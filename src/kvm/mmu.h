/**
 * @file
 * KVM MMU model: builds and walks a VM's 4-level EPT, and implements the
 * iTLB-Multihit countermeasure that Page Steering exploits (Section
 * 4.2.3).
 *
 * Table pages are allocated from the host buddy allocator as order-0
 * MIGRATE_UNMOVABLE pages and their entries live in simulated DRAM, so
 * both the allocator interactions and the Rowhammer exposure are real
 * within the simulation.
 */

#ifndef HYPERHAMMER_KVM_MMU_H
#define HYPERHAMMER_KVM_MMU_H

#include <array>
#include <cstdint>
#include <vector>

#include "base/archive.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"
#include "dram/dram_system.h"
#include "kvm/ept.h"
#include "mm/buddy_allocator.h"

namespace hh::kvm {

/** Type of guest access, for permission checks and the exec fault. */
enum class Access : uint8_t { Read, Write, Exec };

/** How table pages are drawn from the host allocator. */
enum class TableAllocPolicy : uint8_t
{
    /** Linux/KVM: order-0 from the MIGRATE_UNMOVABLE lists. */
    UnmovableLists,
    /** Xen: alloc_domheap_pages ignores migrate types (Section 6). */
    AnyList,
};

/** MMU tuning knobs. */
struct MmuConfig
{
    /**
     * iTLB-Multihit countermeasure: back guest hugepages with
     * non-executable 2 MB leaves and demote to executable 4 KB pages on
     * an exec fault. KVM enables this by default on affected parts.
     */
    bool nxHugePages = true;
    /**
     * Whether the host CPU has the iTLB Multihit erratum at all. With
     * the erratum present and the countermeasure off, an exec on a
     * freshly resized hugepage machine-checks (DoS).
     */
    bool itlbMultihitErratum = true;
    /** Table-page allocation policy (KVM vs. Xen ablation). */
    TableAllocPolicy tableAlloc = TableAllocPolicy::UnmovableLists;
};

/** Result of a guest access through the EPT. */
struct AccessResult
{
    base::Status status;
    /** Translated host physical address (valid when status is ok). */
    HostPhysAddr hpa{0};
    /** True when this access triggered a hugepage demotion. */
    bool demotedHugePage = false;
};

/**
 * One VM's extended page tables.
 */
class Mmu
{
  public:
    /**
     * @param dram     backing store for table pages
     * @param buddy    host page allocator
     * @param config   countermeasure configuration
     * @param owner_id VM identifier for page-frame accounting
     */
    Mmu(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
        MmuConfig config, uint16_t owner_id);

    ~Mmu();

    Mmu(const Mmu &) = delete;
    Mmu &operator=(const Mmu &) = delete;

    /** Root table (PML4) frame. */
    Pfn rootFrame() const { return root; }

    /**
     * Install a 2 MB mapping gpa -> hpa (both 2 MB aligned). Under the
     * NX-hugepage countermeasure the leaf is created non-executable.
     */
    [[nodiscard]] base::Status map2m(GuestPhysAddr gpa, HostPhysAddr hpa);

    /**
     * Remove every mapping inside the 2 MB-aligned range at @p gpa:
     * one PD entry when the range is still a hugepage leaf, or all
     * 512 PT entries after a demotion (virtio-mem unplug path).
     */
    [[nodiscard]] base::Status unmapHugeRange(GuestPhysAddr gpa);

    /**
     * Translate a GPA by walking the EPT in DRAM. Honours whatever the
     * entries *currently* contain -- including Rowhammer corruption.
     */
    [[nodiscard]] base::Expected<HostPhysAddr> translate(GuestPhysAddr gpa) const;

    /**
     * Perform a guest access. Exec accesses to NX 2 MB leaves trigger
     * the countermeasure: the hugepage is demoted into 512 executable
     * 4 KB entries held in a freshly allocated EPT page. With the
     * erratum present and no countermeasure, a resize-prone exec
     * machine-checks (status Fault).
     */
    AccessResult access(GuestPhysAddr gpa, Access type);

    /**
     * Model the iTLB Multihit erratum itself: execute at @p gpa while
     * its mapping is being resized. With the erratum present and the
     * countermeasure disabled this raises a machine check (Fault), the
     * DoS the NX-hugepage mitigation prevents.
     */
    [[nodiscard]] base::Status execDuringPageSizeChange(GuestPhysAddr gpa);

    /**
     * Host-initiated hugepage split (KSM and page migration need 4 KB
     * granularity). Same mechanics as the exec-fault demotion.
     */
    [[nodiscard]] base::Status splitHugePage(GuestPhysAddr gpa);

    /**
     * Toggle the write permission of the 4 KB leaf covering @p gpa
     * (KSM write-protects merged pages).
     */
    [[nodiscard]] base::Status setLeafWritable(GuestPhysAddr gpa, bool writable);

    /**
     * Point the 4 KB leaf covering @p gpa at @p frame (KSM merge and
     * copy-on-write breaking).
     */
    [[nodiscard]] base::Status remapLeaf4k(GuestPhysAddr gpa, Pfn frame,
                             bool writable);

    /** Number of EPT table pages currently allocated (paper's E). */
    uint64_t eptPageCount() const { return tablePages.size(); }

    /** Frames of all EPT table pages (the paper's EPT dump hook). */
    const std::vector<Pfn> &eptPageFrames() const { return tablePages; }

    /** Number of hugepage demotions performed (one new EPT page each). */
    uint64_t demotions() const { return demotionCount; }

    /** Machine checks raised (erratum without countermeasure). */
    uint64_t machineChecks() const { return machineCheckCount; }

    /**
     * Re-read a leaf entry for @p gpa straight from DRAM -- evaluation
     * helper to observe corruption.
     */
    [[nodiscard]] base::Expected<EptEntry> leafEntry(GuestPhysAddr gpa) const;

    /** Host frames of the 512 pages of one 2 MB range. */
    using LeafFrames = std::array<Pfn, kEntriesPerTable>;

    /**
     * Resolve the host frame of every 4 KB page in the 2 MB-aligned
     * range starting at @p base into the caller's @p frames. Walks the
     * upper levels once and then streams the 512 leaves -- the honest
     * equivalent of a guest touching each page with a warm TLB.
     * Entries that are not present yield kInvalidPfn.
     */
    void leafFrames(GuestPhysAddr base, LeafFrames &frames) const;

    /** Serialize root/table/metadata frames, counters and RNG cursor. */
    void saveState(base::ArchiveWriter &w) const;

  private:
    dram::DramSystem &dram;
    mm::BuddyAllocator &buddy;
    // hh-lint: allow(snapshot-field-coverage) -- configuration fixed at construction, not state
    MmuConfig cfg;
    // hh-lint: allow(snapshot-field-coverage) -- construction-time identity, fixed by the VM that builds it
    uint16_t owner;
    /**
     * Varies the split-metadata batching: slab refills are phase-
     * shifted between VM instances, so whether a particular released
     * frame receives an EPT page or metadata differs across attack
     * attempts (it is not a rigid E,M,M,M,... interleave).
     */
    base::Rng rng;

    Pfn root = kInvalidPfn;
    std::vector<Pfn> tablePages;
    /** Slab-backed split metadata (rmap arrays etc.). */
    std::vector<Pfn> metadataPages;
    uint64_t demotionCount = 0;
    uint64_t machineCheckCount = 0;

    /** Allocate one zeroed EPT table page (order-0 UNMOVABLE). */
    [[nodiscard]] base::Expected<Pfn> allocTablePage();

    EptEntry
    readEntry(Pfn table, unsigned index) const
    {
        return EptEntry(dram.readEntry(table, index));
    }

    void
    writeEntry(Pfn table, unsigned index, EptEntry entry)
    {
        dram.writeEntry(table, index, entry.raw());
    }

    /** An entry a walk stopped at, and where it lives. */
    struct Slot
    {
        Pfn table;
        unsigned index;
        unsigned level;
        EptEntry entry;
    };

    /**
     * The one lookup walk: read one entry per level from the root down
     * and stop at a 2 MB leaf or at level @p stop. NotFound when an
     * entry on the way, the last one included, is not present.
     */
    [[nodiscard]] base::Expected<Slot> walk(GuestPhysAddr gpa,
                                            unsigned stop = 1) const;

    /** Demote the 2 MB leaf in @p pd into 4 KB mappings. */
    [[nodiscard]] base::Status demote(const Slot &pd);
};

} // namespace hh::kvm

#endif // HYPERHAMMER_KVM_MMU_H
