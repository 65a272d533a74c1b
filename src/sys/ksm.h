/**
 * @file
 * Kernel Samepage Merging (KSM) model -- the memory-deduplication
 * feature the Flip Feng Shui attack abused (Razavi et al., USENIX
 * Security'16; Section 2.1 of the paper) and which commodity
 * hypervisors have therefore disabled. It exists here as the
 * *baseline* HyperHammer is compared against: the classic
 * hypervisor-level Rowhammer massaging primitive that no longer works.
 *
 * The model implements the real mechanism: a scanner hashes guest
 * pages across registered VMs, merges identical ones onto a single
 * write-protected host frame, and breaks copy-on-write on guest
 * writes (through the VM-exit write-fault path). Merged frames are
 * exactly as Rowhammer-corruptible as any other -- which is the whole
 * problem.
 *
 * Destruction order: tear down the registered VMs before the Ksm
 * instance; Ksm then reclaims the shared and COW-replacement frames
 * the VMs' block-wise teardown intentionally skipped.
 */

#ifndef HYPERHAMMER_SYS_KSM_H
#define HYPERHAMMER_SYS_KSM_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "dram/dram_system.h"
#include "mm/buddy_allocator.h"
#include "vm/virtual_machine.h"

namespace hh::sys {

/** KSM statistics (mirrors /sys/kernel/mm/ksm). */
struct KsmStats
{
    uint64_t pagesScanned = 0;
    uint64_t pagesMerged = 0;
    uint64_t cowBreaks = 0;
    /** Frames currently shared by >= 2 mappings. */
    uint64_t sharedFrames = 0;
    /** Pages skipped because a guest write raced the scanner. */
    uint64_t raced = 0;
};

/**
 * The deduplication engine. Disabled by default, as on every
 * contemporary cloud (the paper's motivation for Page Steering).
 */
class Ksm
{
  public:
    Ksm(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
        bool enabled, fault::FaultInjector *fault_injector = nullptr);
    ~Ksm();

    Ksm(const Ksm &) = delete;
    Ksm &operator=(const Ksm &) = delete;

    bool enabled() const { return on; }

    /**
     * Register a VM: installs the COW write-fault handler so guest
     * stores to merged pages trigger unsharing.
     */
    void attach(vm::VirtualMachine &machine);

    /**
     * One scanner pass over @p pages 4 KB pages starting at @p start
     * in @p machine. Hugepage-backed ranges are split first (as the
     * real KSM splits THP). Identical pages -- across all previously
     * scanned content -- are merged. Returns pages merged this pass.
     */
    uint64_t scanRange(vm::VirtualMachine &machine, GuestPhysAddr start,
                       uint64_t pages);

    const KsmStats &stats() const { return ksmStats; }

    /** True when the frame behind (machine, gpa) is currently shared. */
    bool isShared(vm::VirtualMachine &machine, GuestPhysAddr gpa) const;

  private:
    struct StableNode
    {
        Pfn frame;
        /** Mappings currently pointing at the frame. */
        uint32_t refs;
    };

    dram::DramSystem &dram;
    mm::BuddyAllocator &buddy;
    bool on;
    fault::FaultInjector *faultInjector;
    KsmStats ksmStats;

    /** Content hash -> stable node. */
    std::unordered_map<uint64_t, StableNode> stableTree;
    /** Shared frame -> hash (reverse lookup for COW breaking). */
    std::unordered_map<Pfn, uint64_t> frameToHash;
    /** COW replacement frames to reclaim at destruction. */
    std::vector<Pfn> cowFrames;

    uint64_t hashPage(Pfn frame) const;
    bool samePageContent(Pfn a, Pfn b) const;

    /** The write-fault (VM exit) path: unshare (machine, gpa). */
    [[nodiscard]] base::Status breakCow(vm::VirtualMachine &machine,
                          GuestPhysAddr gpa);
};

} // namespace hh::sys

#endif // HYPERHAMMER_SYS_KSM_H
