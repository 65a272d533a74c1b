#include "page_steering.h"

#include <algorithm>

#include "base/log.h"

namespace hh::attack {

namespace {

/** Cost of one VFIO map ioctl plus vIOMMU emulation round trip. */
constexpr base::SimTime kIovaMapCost = 10 * base::kMicrosecond;
/** Cost of one virtio-mem unplug negotiation. */
constexpr base::SimTime kUnplugCost = 2 * base::kMillisecond;
/** Exec fault + hugepage demotion handling in the hypervisor. */
constexpr base::SimTime kDemotionFaultCost = 100 * base::kMicrosecond;

} // namespace

PageSteering::PageSteering(vm::VirtualMachine &machine,
                           base::SimClock &clock, SteeringConfig config,
                           fault::FaultInjector *fault_injector)
    : machine(machine), clock(clock), cfg(config),
      faultInjector(fault_injector)
{}

uint64_t
PageSteering::exhaustNoisePages(
    const std::function<void(uint64_t)> &sample, uint32_t sample_every)
{
    uint64_t created = 0;
    IoVirtAddr iova = cfg.iovaBase;
    const uint32_t group_count = machine.iommuGroupCount();
    if (group_count == 0)
        return 0;

    for (uint32_t group = 0; group < group_count; ++group) {
        while (created < cfg.exhaustMappings) {
            const base::Status status = machine.iommuMap(
                group, iova, cfg.donorPage);
            clock.advance(kIovaMapCost);
            if (status.error() == base::ErrorCode::LimitExceeded)
                break; // next IOMMU group, if any
            if (!status.ok())
                return created;
            ++created;
            iova += cfg.iovaStride;
            if (sample && created % sample_every == 0)
                sample(created);
        }
        if (created >= cfg.exhaustMappings)
            break;
    }
    return created;
}

uint64_t
PageSteering::releaseVulnerable(const std::vector<VulnerableBit> &targets,
                                SteeringResult &result)
{
    auto &driver = machine.memDriver();
    driver.setSuppressAutoPlug(true);

    // Seed the dedup set from earlier calls so a retry after partial
    // failure only reworks the remaining targets.
    std::unordered_set<uint64_t> released;
    for (const GuestPhysAddr &hp : result.releasedHugePages)
        released.insert(hp.value());
    uint64_t released_now = 0;
    for (const VulnerableBit &bit : targets) {
        const GuestPhysAddr hp = bit.victimHugePage;
        if (released.count(hp.value()))
            continue;
        // Steering miss: the modified driver picks the wrong
        // sub-block, so this target's release never happens (the
        // negotiation time is still spent).
        if (const fault::FaultEntry *f = HH_FAULT_POINT(
                faultInjector, fault::FaultSite::SteerRelease)) {
            if (f->kind == fault::FaultKind::SteerMiss) {
                clock.advance(kUnplugCost);
                ++result.steerMisses;
                continue;
            }
        }
        const base::Status status = driver.unplugSpecific(hp);
        clock.advance(kUnplugCost);
        if (!status.ok()) {
            base::warn("page steering: unplug of GPA %#llx failed: %s",
                       static_cast<unsigned long long>(hp.value()),
                       base::errorName(status.error()));
            ++result.failedUnplugs;
            continue;
        }
        released.insert(hp.value());
        ++released_now;
        result.releasedHugePages.push_back(hp);
    }
    result.releasedSubBlocks += released_now;
    return released_now;
}

void
PageSteering::writeIdlingFunction(GuestPhysAddr huge_page)
{
    // Listing 1: push %rbp; mov %rsp,%rbp; nop...; pop %rbp; ret.
    // 55 48 89 e5 90 90 90 90 ... 90 5d c3
    constexpr uint64_t kPrologueNops = 0x90909090'e5894855ull;
    constexpr uint64_t kNops = 0x90909090'90909090ull;
    constexpr uint64_t kNopsEpilogue = 0xc35d9090'90909090ull;
    // hh-lint: allow(status-discard) -- fills a page the guest just mapped; a failure surfaces at the later scan, not here
    (void)machine.write64(huge_page, kPrologueNops);
    // hh-lint: allow(status-discard) -- same best-effort fill as above
    (void)machine.write64(huge_page + 8, kNops);
    // hh-lint: allow(status-discard) -- same best-effort fill as above
    (void)machine.write64(huge_page + 16, kNopsEpilogue);
}

uint64_t
PageSteering::sprayEptes(uint64_t budget_bytes,
                         const std::unordered_set<uint64_t> &excluded)
{
    uint64_t demotions = 0;
    uint64_t spent = 0;
    for (GuestPhysAddr hp : machine.hugePageGpas()) {
        if (spent + kHugePageSize > budget_bytes)
            break;
        if (excluded.count(hp.value()))
            continue;
        writeIdlingFunction(hp);
        const kvm::AccessResult result = machine.execute(hp);
        clock.advance(kDemotionFaultCost);
        spent += kHugePageSize;
        if (result.status.ok() && result.demotedHugePage)
            ++demotions;
    }
    return demotions;
}

} // namespace hh::attack
