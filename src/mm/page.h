/**
 * @file
 * Page-frame metadata, mirroring the parts of Linux's struct page that
 * the attack interacts with: free-list linkage, buddy order, migration
 * type, pinning, and a coarse "what is this page used for" tag that the
 * evaluation harness uses to count EPT/IOPT pages (Table 2).
 */

#ifndef HYPERHAMMER_MM_PAGE_H
#define HYPERHAMMER_MM_PAGE_H

#include <cstdint>
#include <vector>

#include "base/types.h"

namespace hh::mm {

/**
 * Migration types (Section 2.4). Linux has more; the attack only
 * distinguishes unmovable allocations (page tables, IOPTs, pinned guest
 * memory) from movable ones, with reclaimable kept for realistic
 * fallback ordering.
 */
enum class MigrateType : uint8_t
{
    Unmovable = 0,
    Movable = 1,
    Reclaimable = 2,
};

/** Number of migrate types tracked in the free lists. */
constexpr unsigned kMigrateTypes = 3;

/** Largest order + 1 (Linux MAX_ORDER on x86-64, Section 2.3). */
constexpr unsigned kMaxOrder = 11;

/** Coarse usage tag for accounting and the Table 2 census. */
enum class PageUse : uint8_t
{
    Free = 0,
    KernelData,   ///< host kernel internal allocation
    PageCache,    ///< host page cache ("noise" pages)
    GuestMemory,  ///< backs a guest VM's RAM
    EptPage,      ///< holds extended-page-table entries
    IoptPage,     ///< holds IOMMU page-table entries
    DmaBuffer,    ///< device data buffer
    GuardRow,     ///< permanently reserved isolation guard (Siloz)
};

/** Human-readable name of a migrate type. */
const char *migrateTypeName(MigrateType mt);

/** Human-readable name of a page use. */
const char *pageUseName(PageUse use);

/**
 * Isolation-domain classes (the mitigation layer's physical
 * partitioning policies). A domain admits an allocation when its class
 * admits the allocation's PageUse:
 *
 *   - General admits everything (the undefended single-zone kernel);
 *   - Kernel/User split the buddy system CATT-style: page tables and
 *     other kernel state on one side, guest/DMA memory on the other;
 *   - Ept/Guest are Siloz-style dedicated domains for EPT/IOPT pages
 *     and per-group guest memory;
 *   - KernelDma is the CATTmew double-ownership hole: a kernel
 *     partition that *also* admits pinned guest/DMA memory, putting
 *     attacker-reachable rows back next to page tables.
 */
enum class DomainClass : uint8_t
{
    General = 0,
    Kernel,
    User,
    Ept,
    Guest,
    KernelDma,
};

/** Human-readable name of a domain class. */
const char *domainClassName(DomainClass cls);

/** True when a domain of class @p cls admits allocations of @p use. */
constexpr bool
classAdmits(DomainClass cls, PageUse use)
{
    switch (cls) {
      case DomainClass::General:
        return true;
      case DomainClass::Kernel:
        return use == PageUse::KernelData || use == PageUse::PageCache
            || use == PageUse::EptPage || use == PageUse::IoptPage;
      case DomainClass::User:
      case DomainClass::Guest:
        return use == PageUse::GuestMemory || use == PageUse::DmaBuffer;
      case DomainClass::Ept:
        return use == PageUse::EptPage || use == PageUse::IoptPage;
      case DomainClass::KernelDma:
        // The CATTmew hole: everything the kernel partition admits,
        // plus DMA-pinned guest memory (double ownership).
        return use == PageUse::KernelData || use == PageUse::PageCache
            || use == PageUse::EptPage || use == PageUse::IoptPage
            || use == PageUse::GuestMemory || use == PageUse::DmaBuffer;
    }
    return false;
}

/** One contiguous isolation domain carved out of physical memory. */
struct DomainSpec
{
    /**
     * Frames spanned by the domain, guard band included. Zero means
     * "the rest of memory" (only meaningful on the final spec).
     */
    uint64_t pages = 0;
    DomainClass cls = DomainClass::General;
    /**
     * Frames permanently reserved at the domain's tail as a RowHammer
     * guard band: never allocated, never free, so disturbance from the
     * last usable rows of this domain lands on sacrificial rows rather
     * than the next domain's data.
     */
    uint64_t guardPages = 0;
};

/**
 * The whole-host partitioning policy. An empty domain list is the
 * undefended configuration: one General domain spanning all of memory,
 * byte-identical in behaviour to the pre-domain allocator. Isolation
 * is hard: an allocation that no admitting domain can satisfy fails
 * rather than falling back to another domain.
 */
struct DomainLayout
{
    std::vector<DomainSpec> domains;

    bool empty() const { return domains.empty(); }
};

/**
 * Per-frame metadata. Kept small deliberately: a 16 GB host has 4 M
 * frames and the frame database is a flat array.
 */
struct PageFrame
{
    /** Free-list linkage (valid only while the frame heads a block). */
    Pfn nextFree = kInvalidPfn;
    Pfn prevFree = kInvalidPfn;
    /** Order of the free block this frame heads (if free head). */
    uint8_t order = 0;
    /** True when the frame is part of a free block. */
    bool free = false;
    /** True when the frame heads its free block. */
    bool freeHead = false;
    /** Migration type of the page block this frame belongs to. */
    MigrateType migrateType = MigrateType::Movable;
    /** What the frame is used for when allocated. */
    PageUse use = PageUse::Free;
    /** Pinned for DMA (VFIO); cannot migrate (Section 2.6). */
    bool pinned = false;
    /** Owning VM id (0 = host). */
    uint16_t owner = 0;
};

} // namespace hh::mm

#endif // HYPERHAMMER_MM_PAGE_H
