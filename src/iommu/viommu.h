/**
 * @file
 * vIOMMU / VFIO model (Sections 2.5, 2.6, 4.2.1).
 *
 * When a PCI device is assigned to a VM with vIOMMU enabled, the guest
 * programs IOVA -> GPA mappings; the host translates the GPA and installs
 * IOVA -> HPA entries in hardware IOMMU page tables (IOPTs). Each IOPT
 * page is an order-0 MIGRATE_UNMOVABLE host page holding 512 entries,
 * so one leaf page covers 2 MB of IOVA space -- the property the
 * attacker uses to exhaust the unmovable small-order free lists: mapping
 * one guest page at 2 MB-spaced IOVAs consumes one fresh unmovable page
 * per mapping.
 *
 * Linux caps the number of mappings per IOMMU group (65,535 by
 * default), which bounds how many noise pages one device can soak up.
 */

#ifndef HYPERHAMMER_IOMMU_VIOMMU_H
#define HYPERHAMMER_IOMMU_VIOMMU_H

#include <cstdint>
#include <memory>
#include <vector>

#include "base/archive.h"
#include "base/status.h"
#include "base/types.h"
#include "dram/dram_system.h"
#include "mm/buddy_allocator.h"

namespace hh::iommu {

/** Identifier of an IOMMU group (one per assigned device). */
using GroupId = uint32_t;

/** vIOMMU configuration. */
struct IommuConfig
{
    /** Default Linux dma_entry_limit: mappings allowed per group. */
    uint32_t maxMappingsPerGroup = 65'535;
};

/** IOPT entry bits (simplified VT-d second-level format). */
enum IoptBits : uint64_t
{
    kIoptRead = 1ull << 0,
    kIoptWrite = 1ull << 1,
};

/** Number of IOPT levels walked. */
constexpr unsigned kIoptLevels = 4;

/**
 * One device's I/O page table, with table pages allocated from the host
 * buddy allocator and entries stored in simulated DRAM.
 */
class IoPageTable
{
  public:
    IoPageTable(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
                uint16_t owner_id);

    ~IoPageTable();

    IoPageTable(const IoPageTable &) = delete;
    IoPageTable &operator=(const IoPageTable &) = delete;

    /** Install a 4 KB IOVA -> HPA mapping. */
    [[nodiscard]] base::Status map(IoVirtAddr iova, HostPhysAddr hpa);

    /** Remove a mapping. The covering table pages are not reclaimed
     *  eagerly (Linux keeps them until the container is torn down). */
    [[nodiscard]] base::Status unmap(IoVirtAddr iova);

    /** Translate an IOVA. */
    [[nodiscard]] base::Expected<HostPhysAddr> translate(IoVirtAddr iova);

    /** Number of IOPT table pages allocated so far. */
    uint64_t tablePageCount() const { return tablePages.size(); }

    /** Serialize root and table-page list (entries live in DRAM). */
    void saveState(base::ArchiveWriter &w) const;

  private:
    dram::DramSystem &dram;
    mm::BuddyAllocator &buddy;
    // hh-lint: allow(snapshot-field-coverage) -- construction-time identity, fixed by the VM that builds it
    uint16_t owner;
    Pfn root = kInvalidPfn;
    std::vector<Pfn> tablePages;

    [[nodiscard]] base::Expected<Pfn> allocTablePage();

    /**
     * The one walk: the leaf table covering @p iova. Missing tables
     * are allocated with @p create and NotFound without it.
     */
    [[nodiscard]] base::Expected<Pfn> walk(IoVirtAddr iova, bool create);

    static unsigned
    index(IoVirtAddr iova, unsigned level)
    {
        const unsigned shift = kPageShift + 9 * (level - 1);
        return static_cast<unsigned>((iova.value() >> shift) & 0x1ff);
    }
};

/**
 * The VFIO container of one VM: its IOMMU groups, their IOPTs, the
 * per-group mapping limit, and the pinning of guest memory.
 */
class VfioContainer
{
  public:
    VfioContainer(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
                  IommuConfig config, uint16_t owner_id);

    /**
     * Assign one more device (its own IOMMU group). SR-IOV setups can
     * assign several (Section 4.2.1); each group gets an independent
     * mapping budget.
     */
    GroupId addGroup();

    /** Number of assigned groups. */
    uint32_t groupCount() const { return groups.size(); }

    /**
     * VFIO_IOMMU_MAP_DMA: map @p iova to host page @p hpa in group
     * @p group. Fails with LimitExceeded once the group's mapping
     * budget is spent. The target page is pinned.
     */
    [[nodiscard]] base::Status mapDma(GroupId group, IoVirtAddr iova, HostPhysAddr hpa);

    /** VFIO_IOMMU_UNMAP_DMA. */
    [[nodiscard]] base::Status unmapDma(GroupId group, IoVirtAddr iova);

    /** Device-initiated DMA read through the IOMMU. */
    [[nodiscard]] base::Expected<uint64_t> dmaRead64(GroupId group, IoVirtAddr iova);

    /** Device-initiated DMA write through the IOMMU. */
    [[nodiscard]] base::Status dmaWrite64(GroupId group, IoVirtAddr iova,
                            uint64_t value);

    /** Mappings currently installed in @p group. */
    uint32_t mappingCount(GroupId group) const;

    /** IOPT pages across all groups. */
    uint64_t ioptPageCount() const;

    /**
     * Pin a contiguous host frame range for passthrough DMA: frames
     * are marked pinned and retyped MIGRATE_UNMOVABLE (Section 2.6).
     */
    void pinRange(Pfn first, uint64_t count);

    /** Undo pinRange (virtio-mem unplug path). */
    void unpinRange(Pfn first, uint64_t count);

    /** Serialize every group's IOPT and mapping count. */
    void saveState(base::ArchiveWriter &w) const;

  private:
    struct Group
    {
        std::unique_ptr<IoPageTable> table;
        uint32_t mappings = 0;
    };

    dram::DramSystem &dram;
    mm::BuddyAllocator &buddy;
    // hh-lint: allow(snapshot-field-coverage) -- configuration fixed at construction, not state
    IommuConfig cfg;
    // hh-lint: allow(snapshot-field-coverage) -- construction-time identity, fixed by the VM that builds it
    uint16_t owner;
    std::vector<Group> groups;
};

} // namespace hh::iommu

#endif // HYPERHAMMER_IOMMU_VIOMMU_H
