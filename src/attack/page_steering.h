/**
 * @file
 * Page Steering (Section 4.2): massage the host into placing EPT pages
 * on the vulnerable frames the attacker releases.
 *
 * The three steps of Figure 1:
 *   1. exhaust the small-order MIGRATE_UNMOVABLE free lists ("noise
 *      pages") by mapping one guest page at thousands of 2 MB-spaced
 *      IOVAs, one IOPT page each (Section 4.2.1);
 *   2. voluntarily release the 2 MB sub-blocks containing vulnerable
 *      bits through the modified virtio-mem driver (Section 4.2.2);
 *   3. force EPT-page allocations by writing an idling function into
 *      hugepages and executing it, triggering the iTLB-Multihit
 *      countermeasure's hugepage demotion (Section 4.2.3).
 */

#ifndef HYPERHAMMER_ATTACK_PAGE_STEERING_H
#define HYPERHAMMER_ATTACK_PAGE_STEERING_H

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "attack/types.h"
#include "base/sim_clock.h"
#include "fault/fault.h"
#include "vm/virtual_machine.h"

namespace hh::attack {

/** Page Steering tunables (defaults follow Section 5.2). */
struct SteeringConfig
{
    /** First IOVA used for noise-page exhaustion (paper: 0x1 0000 0000). */
    IoVirtAddr iovaBase{0x1'0000'0000ull};
    /** IOVA spacing; 2 MB forces one IOPT leaf page per mapping. */
    uint64_t iovaStride = kHugePageSize;
    /** Mappings to create across all groups (paper: 60,000). */
    uint32_t exhaustMappings = 60'000;
    /** GPA of the single donor page every IOVA maps to. */
    GuestPhysAddr donorPage{0};
};

/** Outcome of one steering run. */
struct SteeringResult
{
    uint64_t iovaMappings = 0;
    uint64_t releasedSubBlocks = 0;
    /** Hugepages demoted by the spray == EPT pages created by it. */
    uint64_t demotions = 0;
    /** Releases skipped by injected steering misses. */
    uint64_t steerMisses = 0;
    /** Unplug requests the device refused (Busy, quarantine, ...). */
    uint64_t failedUnplugs = 0;
    std::vector<GuestPhysAddr> releasedHugePages;
};

/**
 * Drives the three steering steps against one VM.
 */
class PageSteering
{
  public:
    PageSteering(vm::VirtualMachine &machine, base::SimClock &clock,
                 SteeringConfig config,
                 fault::FaultInjector *fault_injector = nullptr);

    /**
     * Step 1: create 2 MB-spaced IOVA mappings of the donor page until
     * the budget or all group limits are exhausted. @p sample, when
     * set, is invoked every @p sample_every mappings (used to trace
     * Figure 3).
     *
     * @return mappings actually created
     */
    uint64_t
    exhaustNoisePages(const std::function<void(uint64_t)> &sample = {},
                      uint32_t sample_every = 1'000);

    /**
     * Step 2: release the sub-blocks containing the victim hugepages
     * of @p targets. Suppresses the driver's auto re-plug first.
     * Hugepages already listed in @p result.releasedHugePages are
     * skipped, so a retry after partial failure only reworks the
     * remainder.
     *
     * @return hugepages actually released
     */
    uint64_t releaseVulnerable(const std::vector<VulnerableBit> &targets,
                               SteeringResult &result);

    /**
     * Step 3: write the idling function into up to @p budget_bytes of
     * the VM's remaining hugepages (excluding @p excluded) and execute
     * it, demoting each and allocating one EPT page per hugepage.
     *
     * @return demotions triggered
     */
    uint64_t sprayEptes(uint64_t budget_bytes,
                        const std::unordered_set<uint64_t> &excluded);

  private:
    vm::VirtualMachine &machine;
    base::SimClock &clock;
    SteeringConfig cfg;
    fault::FaultInjector *faultInjector;

    /** Write the Listing-1 idling function into a hugepage. */
    void writeIdlingFunction(GuestPhysAddr huge_page);
};

} // namespace hh::attack

#endif // HYPERHAMMER_ATTACK_PAGE_STEERING_H
