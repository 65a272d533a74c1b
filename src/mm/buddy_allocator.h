/**
 * @file
 * Linux-style buddy page allocator (Section 2.3).
 *
 * Faithful to the policies Page Steering depends on:
 *   - per-migratetype free lists, one per order 0..kMaxOrder-1;
 *   - allocation takes the smallest sufficient order and splits larger
 *     blocks only when the smaller lists are empty;
 *   - freed blocks coalesce with their buddy when both are free and of
 *     the same migrate type;
 *   - when a migrate type is exhausted, the allocator *steals* the
 *     largest available block of a fallback type and converts it
 *     (Section 2.4);
 *   - an order-0 per-CPU pageset (PCP) front-end that is consulted
 *     before the buddy lists (the "free page cache" noise source of
 *     Section 4.2.3).
 */

#ifndef HYPERHAMMER_MM_BUDDY_ALLOCATOR_H
#define HYPERHAMMER_MM_BUDDY_ALLOCATOR_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/archive.h"
#include "base/status.h"
#include "base/types.h"
#include "fault/fault.h"
#include "mm/frame_store.h"
#include "mm/page.h"

namespace hh::mm {

/**
 * Snapshot of free-list occupancy, the simulator's equivalent of
 * /proc/pagetypeinfo (used for Figure 3).
 */
struct PageTypeInfo
{
    /** blocks[mt][order] = number of free blocks. */
    std::array<std::array<uint64_t, kMaxOrder>, kMigrateTypes> blocks{};

    /** Free blocks of one (type, order). */
    uint64_t
    blockCount(MigrateType mt, unsigned order) const
    {
        return blocks[static_cast<unsigned>(mt)][order];
    }

    /**
     * Total free *pages* in orders [0, below_order) of one migrate
     * type: the paper's "noise pages" metric when applied to
     * Unmovable with below_order = 9.
     */
    uint64_t pagesBelowOrder(MigrateType mt, unsigned below_order) const;

    /** Total free pages of a migrate type across all orders. */
    uint64_t totalPages(MigrateType mt) const;
};

/** Per-CPU pageset configuration. */
struct PcpConfig
{
    /** Maximum order-0 pages parked in the PCP before draining. */
    unsigned highWatermark = 186;
    /** Pages moved per refill/drain batch. */
    unsigned batch = 63;
};

/** Allocator construction parameters. */
struct BuddyConfig
{
    /** Managed physical pages (frames [0, totalPages)). */
    uint64_t totalPages;
    PcpConfig pcp;
    /**
     * Isolation-domain partitioning (the mitigation layer). Empty --
     * the default -- builds one General domain over all of memory and
     * behaves bit-identically to the undomained allocator.
     */
    DomainLayout layout;
};

/** Read-only view of one isolation domain (tests, defenses, census). */
struct DomainInfo
{
    Pfn start = 0;
    /** One past the last frame, guard band included. */
    Pfn end = 0;
    /** Start of the guard band ([usableEnd, end) is never allocated). */
    Pfn usableEnd = 0;
    DomainClass cls = DomainClass::General;
};

/**
 * The buddy allocator over a flat frame database. Single NUMA node,
 * single zone: the evaluation machines are small desktops (Section 5)
 * and the attack is insensitive to zone structure.
 */
class BuddyAllocator
{
  private:
    /** Restricts the fork constructor to forkFrom(). */
    struct ForkTag
    {};

  public:
    explicit BuddyAllocator(BuddyConfig config);

    /**
     * Copy-on-write fork constructor (reachable only through
     * forkFrom(): ForkTag is private). Shares the frame database
     * chunk-wise and copies the free lists and PCP stacks. The fork
     * starts with no fault injector installed.
     */
    BuddyAllocator(ForkTag, const BuddyAllocator &src);

    /** Deep copies are banned: clone via forkFrom(). */
    BuddyAllocator(const BuddyAllocator &) = delete;
    BuddyAllocator &operator=(const BuddyAllocator &) = delete;

    /**
     * A copy-on-write clone of @p src: O(chunk pointers), with every
     * subsequent frame mutation unsharing one chunk. The source must
     * not be mutated while forks are being taken.
     */
    static std::unique_ptr<BuddyAllocator>
    forkFrom(const BuddyAllocator &src)
    {
        return std::make_unique<BuddyAllocator>(ForkTag{}, src);
    }

    /** Number of managed frames. */
    uint64_t totalPages() const { return frames.size(); }

    /** Frames currently free (buddy lists + PCP). */
    uint64_t freePages() const { return freeCount + pcpCount(); }

    /** Read-only frame metadata. */
    const PageFrame &frame(Pfn pfn) const;

    /**
     * Allocate a 2^order block with the given migrate type.
     * Order-0 unmovable/movable requests go through the PCP first.
     *
     * @return PFN of the block head, or NoMemory
     */
    [[nodiscard]] base::Expected<Pfn> allocPages(unsigned order, MigrateType mt,
                                   PageUse use, uint16_t owner = 0);

    /**
     * Allocate ignoring migrate types: take the smallest available
     * block from *any* list (Xen's alloc_domheap_pages has no
     * migrate-type separation; Section 6). The block keeps the
     * migrate type of the list it came from.
     */
    [[nodiscard]] base::Expected<Pfn> allocPagesAnyType(unsigned order, PageUse use,
                                          uint16_t owner = 0);

    /** Free a block previously returned by allocPages. */
    void freePages(Pfn pfn, unsigned order);

    /**
     * Free a block and *retype* it in the process (models the path
     * where madvise(DONTNEED) returns a THP-backed region: the freed
     * range keeps its pageblock migrate type).
     */
    void freePagesAs(Pfn pfn, unsigned order, MigrateType mt);

    /** Pin / unpin one frame (VFIO). Pinned frames must be allocated. */
    void setPinned(Pfn pfn, bool pinned);

    /** Update the usage tag of an allocated frame. */
    void setUse(Pfn pfn, PageUse use, uint16_t owner);

    /**
     * Pin @p count allocated frames from @p first for DMA (VFIO): each
     * is marked pinned, retyped unmovable and tagged @p use / @p owner
     * in one write.
     */
    void pinRange(Pfn first, uint64_t count, PageUse use, uint16_t owner);

    /** Unpin @p count allocated frames from @p first. */
    void unpinRange(Pfn first, uint64_t count);

    /**
     * True when every frame of the 2^order block is allocated with
     * the given use and owner -- the precondition for freeing the
     * block wholesale (a KSM-merged page breaks it).
     */
    bool blockUniformlyOwned(Pfn pfn, unsigned order, PageUse use,
                             uint16_t owner) const;

    /** Free-list census (the /proc/pagetypeinfo equivalent). */
    PageTypeInfo pageTypeInfo() const;

    /** @name Isolation domains */
    /// @{

    /** Number of domains (1 for the undefended layout). */
    size_t domainCount() const { return domains.size(); }

    /** Geometry and class of one domain. */
    DomainInfo domainInfo(size_t idx) const;

    /** Index of the domain containing @p pfn. */
    size_t domainIndexOf(Pfn pfn) const;

    /** Total frames reserved as guard bands across all domains. */
    uint64_t guardPageCount() const;
    /// @}

    /** Current number of order-0 pages held by the PCP front-end. */
    uint64_t pcpCount() const;

    /** Drain all PCP pages back into the buddy lists. */
    void drainPcp();

    /**
     * Verify internal invariants (every free block correctly linked,
     * buddy bitmap consistent, no double-free). O(frames); tests only.
     */
    void checkConsistency() const;

    /**
     * Install (or clear) the host's fault injector. Not owned; must
     * outlive this allocator. Null means the fault-free fast path.
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        faultInjector = injector;
    }

    /** Serialize the frame database, free lists and PCP stacks. */
    void saveState(base::ArchiveWriter &w) const;

  private:
    struct FreeList
    {
        Pfn head = kInvalidPfn;
        uint64_t count = 0;
    };

    /**
     * One isolation domain: a contiguous PFN range with its own free
     * lists and PCP front-end. Per-domain PCPs are required for
     * correctness, not just locality: a shared order-0 cache would hand
     * pages freed in one domain to allocations another domain must not
     * see. Free blocks never coalesce across a domain boundary (the
     * guard band is permanently allocated, so no buddy merge can span
     * it even when domains abut).
     */
    struct Domain
    {
        Pfn start = 0;
        Pfn end = 0;
        Pfn usableEnd = 0;
        DomainClass cls = DomainClass::General;
        /** lists[mt][order] */
        std::array<std::array<FreeList, kMaxOrder>, kMigrateTypes>
            lists{};
        std::array<std::vector<Pfn>, kMigrateTypes> pcp;
    };

    FrameStore frames;
    std::vector<Domain> domains;
    uint64_t freeCount = 0;

    /** PCP front-end configuration, shared by every domain. */
    // hh-lint: allow(snapshot-field-coverage) -- configuration fixed at construction, not state
    PcpConfig pcpCfg;
    fault::FaultInjector *faultInjector = nullptr;

    Domain &domainOf(Pfn pfn);
    const Domain &domainOf(Pfn pfn) const;

    void listPush(Domain &dom, MigrateType mt, unsigned order, Pfn pfn);
    void listRemove(Domain &dom, MigrateType mt, unsigned order,
                    Pfn pfn);
    Pfn listPop(Domain &dom, MigrateType mt, unsigned order);

    /** Core buddy alloc within one domain (no PCP). */
    [[nodiscard]] base::Expected<Pfn> allocCore(Domain &dom,
                                                unsigned order,
                                                MigrateType mt);

    /** Core buddy free (no PCP), coalescing within the domain. */
    void freeCore(Domain &dom, Pfn pfn, unsigned order, MigrateType mt);

    /** Steal the largest block of another migrate type (same domain). */
    [[nodiscard]] base::Expected<Pfn> stealFallback(Domain &dom,
                                                    unsigned order,
                                                    MigrateType mt);

    /** Drain one domain's PCP caches back into its buddy lists. */
    void drainPcpDomain(Domain &dom);

    /**
     * True when @p dom should be tried for @p use on this preference
     * pass: 0 = specific admitting domains in layout order, 1 =
     * General domains.
     */
    static bool domainOnPass(const Domain &dom, PageUse use, int pass);

    void markAllocated(Pfn pfn, unsigned order, MigrateType mt,
                       PageUse use, uint16_t owner);
};

} // namespace hh::mm

#endif // HYPERHAMMER_MM_BUDDY_ALLOCATOR_H
