/**
 * @file
 * Whole-stack integration tests: the attack pipeline end to end with
 * a deterministically induced flip, the mitigation matrix (quarantine,
 * TRR, ECC, no-NX-hugepages), and the Section 6 Xen-style allocation
 * variant.
 */

#include <gtest/gtest.h>

#include <memory>

#include "hyperhammer/hyperhammer.h"

namespace hh {
namespace {

sys::SystemConfig
baseConfig(uint64_t seed, double density = 8.0)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(seed)
        .withMemory(1_GiB);
    cfg.dram.fault.weakCellsPerRow *= density;
    return cfg;
}

vm::VmConfig
baseVm()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 640_MiB;
    return cfg;
}

/**
 * Full pipeline with the probabilistic last step removed: profile,
 * steer onto a real profiled bit, hammer it, and verify the EPTE
 * corruption through the guest. Success of the final EPT-page lottery
 * is not required -- that part is covered statistically by the
 * benches -- but every stage before it must demonstrably work.
 */
TEST(Integration, StagesComposeOnRealProfiledBit)
{
    // Seed chosen so the steering places an EPT page (rather than
    // split metadata) on the profiled frame; the metadata case is
    // covered statistically by bench_table2.
    sys::HostSystem host(baseConfig(12));
    auto machine = host.createVm(baseVm());

    // Stage 1: profile.
    attack::ProfilerConfig pcfg;
    pcfg.stopAfterExploitable = 3;
    attack::MemoryProfiler profiler(*machine, host.clock(),
                                    host.dram().mapping(), pcfg);
    std::vector<GuestPhysAddr> region;
    for (GuestPhysAddr hp : machine->hugePageGpas()) {
        if (machine->memDevice_().contains(hp))
            region.push_back(hp);
    }
    const attack::ProfileResult profile = profiler.profile(region);
    auto usable = profile.exploitableBits();
    // Keep stable bits only: the hammer stage must fire on demand.
    std::erase_if(usable, [](const attack::VulnerableBit &bit) {
        return !bit.stable;
    });
    ASSERT_FALSE(usable.empty()) << "seed produced no usable bits";
    const attack::VulnerableBit target = usable.front();

    // Ground truth for later: host location of the victim word.
    auto victim_hpa = machine->debugTranslate(target.wordGpa);
    ASSERT_TRUE(victim_hpa.ok());

    // Stage 2: steer.
    attack::SteeringConfig scfg;
    scfg.exhaustMappings = 3'000;
    attack::PageSteering steering(*machine, host.clock(), scfg);
    const uint64_t spray_bytes = machine->memorySize();
    attack::SteeringResult steered;
    steering.exhaustNoisePages();
    steering.releaseVulnerable({target}, steered);
    EXPECT_EQ(steered.releasedSubBlocks, 1u);
    EXPECT_GT(steering.sprayEptes(spray_bytes, {}), 0u);

    // The vulnerable host frame should now hold an EPT page (the
    // placement can miss when leftovers exceed the spray; tolerate
    // only the hit case for this seed, which is deterministic).
    const mm::PageFrame &frame =
        host.buddy().frame(victim_hpa->pfn());
    if (frame.free || frame.use != mm::PageUse::EptPage)
        GTEST_SKIP() << "placement missed at this scale; covered by "
                        "bench_table2";

    // Stage 3: hammer the profiled aggressors and observe the EPTE
    // corruption in host DRAM.
    const uint64_t before =
        host.dram().backend().read64(victim_hpa->pageBase()
                                     + victim_hpa->pageOffset());
    attack::Exploiter exploiter(*machine, host.clock(),
                                attack::ExploitConfig{});
    exploiter.markPages(machine->hugePageGpas());
    exploiter.hammerTargets({target});
    const uint64_t after =
        host.dram().backend().read64(victim_hpa->pageBase()
                                     + victim_hpa->pageOffset());
    // The stable cell fires iff the EPTE's bit matches the flip
    // direction; both outcomes are legitimate, but when it fired the
    // change must be exactly the profiled bit.
    if (after != before) {
        EXPECT_EQ(after ^ before, 1ull << target.bitInWord);
        // And detection sees it from inside the guest.
        const auto changed = exploiter.detectMappingChanges();
        EXPECT_FALSE(changed.empty());
    }
}

TEST(Integration, NoNxHugePagesMeansNoEptHarvest)
{
    sys::HostSystem host(baseConfig(18));
    vm::VmConfig vm_cfg = baseVm();
    vm_cfg.mmu.nxHugePages = false;
    auto machine = host.createVm(vm_cfg);

    attack::PageSteering steering(*machine, host.clock(),
                                  attack::SteeringConfig{});
    const uint64_t demoted =
        steering.sprayEptes(machine->memorySize(), {});
    EXPECT_EQ(demoted, 0u);
}

TEST(Integration, TrrProtectedDimmYieldsNoProfile)
{
    sys::SystemConfig cfg = baseConfig(13);
    cfg.dram.trr.enabled = true;
    sys::HostSystem host(cfg);
    auto machine = host.createVm(baseVm());

    attack::MemoryProfiler profiler(*machine, host.clock(),
                                    host.dram().mapping(),
                                    attack::ProfilerConfig{});
    std::vector<GuestPhysAddr> region;
    for (GuestPhysAddr hp : machine->hugePageGpas()) {
        if (machine->memDevice_().contains(hp))
            region.push_back(hp);
    }
    const attack::ProfileResult result = profiler.profile(region);
    EXPECT_EQ(result.totalFlips(), 0u);
}

TEST(Integration, EccDimmSuppressesProfile)
{
    sys::SystemConfig cfg = baseConfig(14);
    cfg.dram.ecc.enabled = true;
    sys::HostSystem host(cfg);
    auto machine = host.createVm(baseVm());

    attack::MemoryProfiler profiler(*machine, host.clock(),
                                    host.dram().mapping(),
                                    attack::ProfilerConfig{});
    std::vector<GuestPhysAddr> region;
    for (GuestPhysAddr hp : machine->hugePageGpas()) {
        if (machine->memDevice_().contains(hp))
            region.push_back(hp);
    }
    const attack::ProfileResult result = profiler.profile(region);
    EXPECT_EQ(result.totalFlips(), 0u);
    EXPECT_GT(host.dram().eccCorrectedFlips(), 0u);
}

TEST(Integration, XenStyleSteeringNeedsNoUnmovableExhaustion)
{
    // Section 6: Xen's allocator ignores migrate types, so released
    // (movable or unmovable) blocks are eligible for table pages as
    // soon as smaller blocks run out -- no vIOMMU step required. A
    // quiet host keeps the pre-existing small-block pool below the
    // spray size at this scale.
    sys::SystemConfig host_cfg = sys::SystemConfig::s1(15)
        .withMemory(2_GiB);
    host_cfg.noise.unmovableFreePages = 16;
    sys::HostSystem host(host_cfg);
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 64_MiB;
    vm_cfg.virtioMemRegionSize = 2_GiB;
    vm_cfg.virtioMemPlugged = 1_GiB + 704_MiB;
    vm_cfg.mmu.tableAlloc = kvm::TableAllocPolicy::AnyList;
    vm_cfg.passthroughDevices = 0; // no VFIO, no vIOMMU
    auto machine = host.createVm(vm_cfg);

    // Release one block, then spray without any exhaustion step.
    machine->memDriver().setSuppressAutoPlug(true);
    const GuestPhysAddr victim =
        machine->memDevice_().subBlockGpa(3);
    auto victim_hpa = machine->debugTranslate(victim);
    ASSERT_TRUE(victim_hpa.ok());
    ASSERT_TRUE(machine->memDriver().unplugSpecific(victim).ok());

    attack::PageSteering steering(*machine, host.clock(),
                                  attack::SteeringConfig{});
    steering.sprayEptes(machine->memorySize(), {victim.value()});

    uint64_t reused = 0;
    for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
        const mm::PageFrame &frame =
            host.buddy().frame(victim_hpa->pfn() + i);
        if (!frame.free && frame.use == mm::PageUse::EptPage)
            ++reused;
    }
    EXPECT_GT(reused, 0u);
}

} // namespace
} // namespace hh
