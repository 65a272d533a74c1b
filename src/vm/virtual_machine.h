/**
 * @file
 * A hardware-assisted VM as the attacker experiences it.
 *
 * VirtualMachine wires one guest's EPT MMU, VFIO container (passthrough
 * NIC + vIOMMU), and virtio-mem device/driver to the shared host buddy
 * allocator and DRAM. Its public methods are exactly the operations a
 * guest can legitimately perform: read/write/execute its own GPAs, issue
 * vIOMMU mappings, talk to the virtio-mem driver, and -- because DRAM is
 * physics, not policy -- hammer rows it can address.
 *
 * Layout mirrors QEMU: boot RAM at GPA 0, the virtio-mem region above
 * the 4 GB hole.
 */

#ifndef HYPERHAMMER_VM_VIRTUAL_MACHINE_H
#define HYPERHAMMER_VM_VIRTUAL_MACHINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "base/archive.h"
#include "base/status.h"
#include "base/types.h"
#include "dram/dram_system.h"
#include "iommu/viommu.h"
#include "kvm/mmu.h"
#include "mm/buddy_allocator.h"
#include "virtio/virtio_mem.h"

namespace hh::vm {

/** Per-VM configuration. */
struct VmConfig
{
    /** Boot RAM mapped at GPA 0 (not managed by virtio-mem). */
    uint64_t bootMemBytes = 1_GiB;
    /** Size of the virtio-mem GPA region (capacity, not allocation). */
    uint64_t virtioMemRegionSize = 16_GiB;
    /** Initially plugged virtio-mem bytes. */
    uint64_t virtioMemPlugged = 12_GiB;
    /** Passthrough devices, one IOMMU group each (>=1 enables VFIO). */
    unsigned passthroughDevices = 1;
    kvm::MmuConfig mmu;
    virtio::QuarantinePolicy quarantine;
    iommu::IommuConfig iommu;
};

/** GPA where the virtio-mem region starts (above the 4 GB hole). */
constexpr GuestPhysAddr kVirtioMemRegionStart{4_GiB};

/**
 * One guest VM plus its host-side devices.
 */
class VirtualMachine
{
  public:
    VirtualMachine(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
                   VmConfig config, uint16_t vm_id,
                   fault::FaultInjector *fault_injector = nullptr);

    ~VirtualMachine();

    VirtualMachine(const VirtualMachine &) = delete;
    VirtualMachine &operator=(const VirtualMachine &) = delete;

    uint16_t id() const { return vmId; }
    const VmConfig &config() const { return cfg; }

    /** Currently usable guest memory (boot + plugged). */
    uint64_t
    memorySize() const
    {
        return cfg.bootMemBytes + memDevice->pluggedSize();
    }

    /** @name Guest-side memory operations (all via the EPT) */
    /// @{

    /** Read the aligned 64-bit word at @p gpa. */
    [[nodiscard]] base::Expected<uint64_t> read64(GuestPhysAddr gpa);

    /**
     * Write the aligned 64-bit word at @p gpa. Honours EPT write
     * permissions: a write-protected page (KSM-merged) triggers the
     * registered write-fault handler (the VM-exit path) and retries.
     */
    [[nodiscard]] base::Status write64(GuestPhysAddr gpa, uint64_t value);

    /**
     * Host-side hook invoked when a guest write hits a write-
     * protected mapping (copy-on-write breaking). Returning success
     * makes the faulting write retry.
     */
    using WriteFaultHandler =
        std::function<base::Status(VirtualMachine &, GuestPhysAddr)>;
    void
    setWriteFaultHandler(WriteFaultHandler handler)
    {
        writeFaultHandler = std::move(handler);
    }

    /** Fill the 2 MB hugepage at @p gpa with a repeated pattern. */
    [[nodiscard]] base::Status fillHugePage(GuestPhysAddr gpa, uint64_t pattern);

    /** Fill one 4 KB guest page with a repeated pattern. */
    [[nodiscard]] base::Status fillPage(GuestPhysAddr gpa, uint64_t pattern);

    /** First word of one 4 KB page, as seen through the EPT. */
    struct PageWord
    {
        /** GPA of the page. */
        GuestPhysAddr page{0};
        /** Word value; undefined when fault is set. */
        uint64_t value = 0;
        /** Access faulted (mapping points beyond physical memory). */
        bool fault = false;
    };

    /**
     * Write @p value(page) into the first word of every mapped 4 KB
     * page of the hugepage at @p hp. One page-table walk per
     * hugepage (TLB-warm guest loop), then per-page stores.
     */
    template <typename Value>
    [[nodiscard]] base::Status
    writePageWords(GuestPhysAddr hp, const Value &value)
    {
        return forEachPage(hp, [&](GuestPhysAddr page,
                                   std::optional<Pfn> frame) {
            if (frame)
                dram.write64(HostPhysAddr(*frame * kPageSize), value(page));
        });
    }

    /**
     * Call @p visit(word) with the first word of every mapped 4 KB
     * page of the hugepage at @p hp, in page order: one page-table
     * walk per hugepage, then per-page loads.
     */
    template <typename Visit>
    [[nodiscard]] base::Status
    readPageWords(GuestPhysAddr hp, const Visit &visit)
    {
        return forEachPage(hp, [&](GuestPhysAddr page,
                                   std::optional<Pfn> frame) {
            visit(frame ? PageWord{page, dram.read64(HostPhysAddr(
                                             *frame * kPageSize))}
                        : PageWord{page, 0, true});
        });
    }

    /**
     * Execute code at @p gpa. Under the NX-hugepage countermeasure an
     * exec on hugepage-backed memory demotes it, allocating one EPT
     * page on the host (the Page Steering primitive).
     */
    kvm::AccessResult execute(GuestPhysAddr gpa);

    /**
     * Hammer the DRAM rows containing the given guest addresses
     * (uncached reads in a loop, from the guest's viewpoint). Rows are
     * resolved through the EPT; an aggressor that is unmapped or maps
     * past physical memory is dropped. Flips land wherever DRAM
     * geometry puts them. Returns the flip events DRAM applied.
     *
     * Simulation instrumentation, not an attacker capability: a real
     * attacker learns flip locations only by scanning. The profiler
     * uses the events to know *which* hugepages a full scan would find
     * dirty (the information content is identical) while virtual time
     * is still charged for the full scan it replaces.
     */
    std::vector<dram::FlipEvent>
    hammer(const std::vector<GuestPhysAddr> &aggressors, uint64_t rounds);
    /// @}

    /** @name vIOMMU guest interface */
    /// @{

    /**
     * Map @p iova to the guest page at @p gpa in IOMMU group
     * @p group: the host resolves the GPA and installs an IOVA -> HPA
     * IOPT mapping, consuming unmovable host pages in the process.
     */
    [[nodiscard]] base::Status iommuMap(iommu::GroupId group, IoVirtAddr iova,
                          GuestPhysAddr gpa);

    /** Remove an IOVA mapping. */
    [[nodiscard]] base::Status iommuUnmap(iommu::GroupId group, IoVirtAddr iova);

    /** Number of IOMMU groups (passthrough devices). */
    uint32_t iommuGroupCount() const;
    /// @}

    /** @name Device access */
    /// @{
    virtio::VirtioMemDriver &memDriver() { return *memDrv; }
    virtio::VirtioMemDevice &memDevice_() { return *memDevice; }
    iommu::VfioContainer *vfio() { return vfioContainer.get(); }
    /// @}

    /** @name Host-side / evaluation hooks */
    /// @{

    /** The VM's MMU (hypervisor side; evaluation and host code only). */
    kvm::Mmu &mmu() { return *eptMmu; }
    const kvm::Mmu &mmu() const { return *eptMmu; }

    /** DRAM timing parameters (guests can measure these anyway). */
    const dram::TimingConfig &
    dramTiming() const
    {
        return dram.config().timing;
    }

    /** Host physical memory size (attackers know the machine spec). */
    uint64_t hostMemoryBytes() const { return dram.size(); }

    /**
     * Debug hypercall translating GPA -> HPA. The paper implemented
     * the same oracle to reuse profiling results across attempts
     * (Section 5.3.2); real attacks do not have it.
     */
    [[nodiscard]] base::Expected<HostPhysAddr> debugTranslate(GuestPhysAddr gpa) const;

    /** Enumerate all currently usable guest 2 MB hugepage GPAs. */
    std::vector<GuestPhysAddr> hugePageGpas() const;
    /// @}

    /**
     * Serialize the VM's host-side metadata: MMU, VFIO groups, virtio
     * devices and boot-block list. Page-table and guest-page contents
     * live in DRAM and belong to the host's state stream, not here.
     */
    void saveState(base::ArchiveWriter &w) const;

  private:
    dram::DramSystem &dram;
    mm::BuddyAllocator &buddy;
    // hh-lint: allow(snapshot-field-coverage) -- configuration fixed at construction, not state
    VmConfig cfg;
    uint16_t vmId;

    std::unique_ptr<kvm::Mmu> eptMmu;
    std::unique_ptr<iommu::VfioContainer> vfioContainer;
    std::vector<iommu::GroupId> groups;
    std::unique_ptr<virtio::VirtioMemDevice> memDevice;
    std::unique_ptr<virtio::VirtioMemDriver> memDrv;

    /** Host order-9 blocks backing boot RAM (for teardown). */
    std::vector<Pfn> bootBlocks;

    // hh-lint: allow(snapshot-field-coverage) -- a callback is wiring, not state: its owner installs it on each world
    WriteFaultHandler writeFaultHandler;

    /**
     * The one per-hugepage guest loop: resolve the leaves of @p hp
     * with one walk, then call @p visit(page, frame) for every mapped
     * 4 KB page in page order. A frame past physical memory (a
     * corrupted EPTE) arrives as nullopt: the guest access faults.
     * NotFound when no page of @p hp maps into physical memory.
     */
    template <typename Visit>
    [[nodiscard]] base::Status
    forEachPage(GuestPhysAddr hp, const Visit &visit)
    {
        if (!hp.hugePageAligned())
            return base::ErrorCode::InvalidArgument;
        kvm::Mmu::LeafFrames frames;
        eptMmu->leafFrames(hp, frames);
        bool any = false;
        for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
            if (frames[i] == kInvalidPfn)
                continue;
            const bool in_memory = frames[i] < dram.pageCount();
            visit(hp + i * kPageSize, in_memory ? std::optional(frames[i])
                                                : std::nullopt);
            any |= in_memory;
        }
        return any ? base::Status::success()
                   : base::Status(base::ErrorCode::NotFound);
    }
};

} // namespace hh::vm

#endif // HYPERHAMMER_VM_VIRTUAL_MACHINE_H
