/**
 * @file
 * virtio-mem device and guest driver (Sections 2.6, 4.2.2).
 *
 * virtio-mem is KVM's block-granular memory overcommit mechanism: the
 * hypervisor exposes a GPA region split into 2 MB *sub-blocks*, sets a
 * *requested size*, and the guest driver plugs/unplugs sub-blocks to
 * converge on it. Crucially, the device does not verify that guest
 * requests move toward the requested size -- the lack of enforcement
 * Page Steering exploits to release chosen sub-blocks.
 *
 * The model includes:
 *   - the host device: plug/unplug handling, EPT (un)mapping, VFIO
 *     (un)pinning, madvise-style freeing of order-9 unmovable blocks;
 *   - the stock guest driver behaviour (converge on the target);
 *   - the attacker's two driver modifications: release a *specific*
 *     sub-block, and suppress the automatic re-plug;
 *   - the authors' proposed QEMU quarantine countermeasure (Section 6)
 *     including the plug-failure retry pattern that makes naive
 *     quarantining break the protocol.
 */

#ifndef HYPERHAMMER_VIRTIO_VIRTIO_MEM_H
#define HYPERHAMMER_VIRTIO_VIRTIO_MEM_H

#include <cstdint>
#include <vector>

#include "base/archive.h"
#include "base/status.h"
#include "base/types.h"
#include "dram/dram_system.h"
#include "fault/fault.h"
#include "iommu/viommu.h"
#include "kvm/mmu.h"
#include "mm/buddy_allocator.h"

namespace hh::virtio {

/** Index of a 2 MB sub-block within the virtio-mem region. */
using SubBlockId = uint64_t;

/**
 * The quarantine countermeasure proposed in Section 6: with target size
 * T, plugged size V and a request of signed size delta, a request is
 * suspicious when it overshoots (|delta| > |T - V|) or moves away from
 * the target (delta * (T - V) < 0); the device then responds NACK.
 */
struct QuarantinePolicy
{
    bool enabled = false;

    /** True when the device NACKs the request. */
    bool
    rejects(int64_t delta, uint64_t target, uint64_t plugged) const
    {
        if (!enabled)
            return false;
        const int64_t gap = static_cast<int64_t>(target)
            - static_cast<int64_t>(plugged);
        const auto magnitude = [](int64_t v) {
            return v < 0 ? static_cast<uint64_t>(-v)
                         : static_cast<uint64_t>(v);
        };
        // Overshoot: |delta| > |T - V|.
        if (magnitude(delta) > magnitude(gap))
            return true;
        // Wrong direction: delta * (T - V) < 0, tested via signs to
        // avoid overflow on byte-sized quantities.
        return (delta > 0 && gap < 0) || (delta < 0 && gap > 0);
    }
};

/** virtio-mem device configuration. */
struct VirtioMemConfig
{
    /** First GPA of the device-managed region (2 MB aligned). */
    GuestPhysAddr regionStart{0};
    /** Size of the region in bytes (multiple of 2 MB). */
    uint64_t regionSize = 0;
    /** Initially plugged bytes (from the low end of the region). */
    uint64_t initialPlugged = 0;
    QuarantinePolicy quarantine;
};

/** Statistics the evaluation reads off the device. */
struct VirtioMemStats
{
    uint64_t plugRequests = 0;
    uint64_t unplugRequests = 0;
    uint64_t nackedRequests = 0;
    /** Unplugs answered Busy by an injected delayed reclaim. */
    uint64_t deferredUnplugs = 0;
    /** Host PFNs of the blocks released by unplug (Table 2's log). */
    std::vector<Pfn> releasedBlockPfns;
};

/**
 * Host-side virtio-mem device (the QEMU part).
 */
class VirtioMemDevice
{
  public:
    /**
     * @param vfio may be null when the VM has no passthrough device;
     *             with VFIO present, plugged blocks are pinned and
     *             released blocks free as MIGRATE_UNMOVABLE.
     */
    VirtioMemDevice(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
                    kvm::Mmu &mmu, iommu::VfioContainer *vfio,
                    VirtioMemConfig config, uint16_t owner_id,
                    fault::FaultInjector *fault_injector = nullptr);

    ~VirtioMemDevice();

    VirtioMemDevice(const VirtioMemDevice &) = delete;
    VirtioMemDevice &operator=(const VirtioMemDevice &) = delete;

    /** Region geometry. */
    GuestPhysAddr regionStart() const { return cfg.regionStart; }
    uint64_t regionSize() const { return cfg.regionSize; }
    uint64_t subBlockCount() const { return plugged.size(); }

    /** Currently plugged bytes (the paper's V). */
    uint64_t pluggedSize() const { return pluggedBytes; }

    /** Hypervisor-requested target size (the paper's T). */
    uint64_t requestedSize() const { return requestedBytes; }

    /** Hypervisor-side resize: updates T and notifies the driver. */
    void setRequestedSize(uint64_t bytes) { requestedBytes = bytes; }

    /** True when sub-block @p sb is plugged. */
    bool isPlugged(SubBlockId sb) const;

    /** GPA of sub-block @p sb. */
    GuestPhysAddr
    subBlockGpa(SubBlockId sb) const
    {
        return cfg.regionStart + sb * kHugePageSize;
    }

    /** Sub-block covering @p gpa; region membership unchecked. */
    SubBlockId
    subBlockOf(GuestPhysAddr gpa) const
    {
        return (gpa - cfg.regionStart) / kHugePageSize;
    }

    /** True when @p gpa lies inside the device region. */
    bool
    contains(GuestPhysAddr gpa) const
    {
        return gpa >= cfg.regionStart
            && gpa < cfg.regionStart + cfg.regionSize;
    }

    /**
     * Guest request: plug sub-block @p sb. Allocates an order-9 THP
     * block on the host, maps it as a 2 MB EPT leaf and (with VFIO)
     * pins it. Subject to quarantine.
     */
    [[nodiscard]] base::Status requestPlug(SubBlockId sb);

    /**
     * Guest request: unplug sub-block @p sb. Unmaps the EPT leaf,
     * unpins, and releases the host backing to the buddy system as an
     * order-9 MIGRATE_UNMOVABLE block (the madvise path under THP).
     * Subject to quarantine.
     */
    [[nodiscard]] base::Status requestUnplug(SubBlockId sb);

    const VirtioMemStats &stats() const { return devStats; }

    /** Serialize plugged bitmap, backing frames, sizes and stats. */
    void saveState(base::ArchiveWriter &w) const;

  private:
    dram::DramSystem &dram;
    mm::BuddyAllocator &buddy;
    kvm::Mmu &mmu;
    iommu::VfioContainer *vfio;
    // hh-lint: allow(snapshot-field-coverage) -- configuration fixed at construction, not state
    VirtioMemConfig cfg;
    // hh-lint: allow(snapshot-field-coverage) -- construction-time identity, fixed by the VM that builds it
    uint16_t owner;
    fault::FaultInjector *faultInjector;

    std::vector<bool> plugged;
    /**
     * Host frame backing each plugged sub-block (QEMU's RAMBlock
     * bookkeeping). Deliberately *not* derived from the EPT: the
     * device must stay consistent even when guest page tables are
     * corrupted.
     */
    std::vector<Pfn> backing;
    uint64_t pluggedBytes = 0;
    uint64_t requestedBytes = 0;
    VirtioMemStats devStats;

    [[nodiscard]] base::Status plugBacking(SubBlockId sb);
    void unplugBacking(SubBlockId sb);
};

/**
 * Guest-side virtio-mem driver, including the attacker modifications.
 */
class VirtioMemDriver
{
  public:
    explicit VirtioMemDriver(VirtioMemDevice &device) : device(device) {}

    /**
     * Stock behaviour: issue plug/unplug requests until the plugged
     * size matches the device's requested size (or requests fail).
     * @return sub-blocks changed
     */
    uint64_t converge();

    /**
     * Attacker modification 1 (Section 4.2.2, "Voluntary Page
     * Releases"): release the sub-block containing @p gpa regardless
     * of the requested size, via the moral equivalent of
     * virtio_mem_sbm_unplug_sb_online().
     */
    [[nodiscard]] base::Status unplugSpecific(GuestPhysAddr gpa);

    /**
     * Attacker modification 2: when set, converge() never plugs, so
     * voluntarily released blocks are not immediately re-acquired.
     */
    void setSuppressAutoPlug(bool suppress) { suppressPlug = suppress; }
    bool suppressAutoPlug() const { return suppressPlug; }

    /** Serialize the driver's only state, the auto-plug switch. */
    void saveState(base::ArchiveWriter &w) const { w.boolean(suppressPlug); }

    /**
     * The benign pattern that defeats naive quarantining (Section 6):
     * on a plug failure the stock Linux driver unplugs the sub-block
     * and retries. Returns the final status.
     */
    [[nodiscard]] base::Status plugWithRetry(SubBlockId sb);

  private:
    VirtioMemDevice &device;
    bool suppressPlug = false;
};

} // namespace hh::virtio

#endif // HYPERHAMMER_VIRTIO_VIRTIO_MEM_H
