/**
 * @file
 * Tests of Page Steering (Section 4.2): noise-page exhaustion via the
 * vIOMMU, voluntary releases, EPTE spraying via the NX-hugepage
 * demotion, and the end-to-end placement of EPT pages on released
 * frames -- checked against host-side ground truth.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "attack/page_steering.h"
#include "sys/host_system.h"

namespace hh::attack {
namespace {

class SteeringTest : public ::testing::Test
{
  protected:
    void
    boot(uint64_t seed = 9)
    {
        machine.reset();
        host = std::make_unique<sys::HostSystem>(
            sys::SystemConfig::s1(seed).withMemory(1_GiB));
        vm::VmConfig vm_cfg;
        vm_cfg.bootMemBytes = 64_MiB;
        vm_cfg.virtioMemRegionSize = 1_GiB;
        vm_cfg.virtioMemPlugged = 640_MiB;
        machine = host->createVm(vm_cfg);
    }

    SteeringConfig
    steeringConfig(uint32_t mappings = 4'000)
    {
        SteeringConfig cfg;
        cfg.exhaustMappings = mappings;
        return cfg;
    }

    /** A synthetic target in sub-block @p sb. */
    VulnerableBit
    fakeTarget(virtio::SubBlockId sb)
    {
        VulnerableBit bit;
        bit.victimHugePage = machine->memDevice_().subBlockGpa(sb);
        bit.wordGpa = bit.victimHugePage + 0x808;
        bit.bitInWord = 25;
        bit.exploitable = true;
        bit.releasable = true;
        bit.aggressorHugePage =
            machine->memDevice_().subBlockGpa(sb + 1);
        bit.aggressors = {bit.aggressorHugePage,
                          bit.aggressorHugePage + 256_KiB};
        return bit;
    }

    /** The three steering steps in order, as an attack attempt runs them. */
    static SteeringResult
    steer(PageSteering &steering, const VulnerableBit &target,
          uint64_t spray_bytes)
    {
        SteeringResult result;
        result.iovaMappings = steering.exhaustNoisePages();
        steering.releaseVulnerable({target}, result);
        result.demotions = steering.sprayEptes(spray_bytes, {});
        return result;
    }

    std::unique_ptr<sys::HostSystem> host;
    std::unique_ptr<vm::VirtualMachine> machine;
};

TEST_F(SteeringTest, ExhaustDropsNoiseBelowThreshold)
{
    boot();
    const uint64_t noise_before = host->noisePages();
    ASSERT_GT(noise_before, 1'024u);

    PageSteering steering(*machine, host->clock(), steeringConfig());
    uint64_t samples = 0;
    const uint64_t created = steering.exhaustNoisePages(
        [&](uint64_t) { ++samples; }, 500);
    EXPECT_GT(created, 0u);
    EXPECT_EQ(samples, created / 500);
    // Figure 3: the noise population falls below the 1,024 line.
    EXPECT_LT(host->noisePages(), 1'024u);
}

TEST_F(SteeringTest, ExhaustRespectsGroupLimits)
{
    boot();
    // Tiny per-group budget, one device: exhaust stops at the limit.
    machine.reset();
    host = std::make_unique<sys::HostSystem>(
        sys::SystemConfig::s1(9).withMemory(1_GiB));
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 64_MiB;
    vm_cfg.virtioMemRegionSize = 1_GiB;
    vm_cfg.virtioMemPlugged = 256_MiB;
    vm_cfg.iommu.maxMappingsPerGroup = 100;
    machine = host->createVm(vm_cfg);

    PageSteering steering(*machine, host->clock(), steeringConfig());
    EXPECT_EQ(steering.exhaustNoisePages(), 100u);
}

TEST_F(SteeringTest, MultipleDevicesExtendTheBudget)
{
    machine.reset();
    host = std::make_unique<sys::HostSystem>(
        sys::SystemConfig::s1(9).withMemory(1_GiB));
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 64_MiB;
    vm_cfg.virtioMemRegionSize = 1_GiB;
    vm_cfg.virtioMemPlugged = 256_MiB;
    vm_cfg.iommu.maxMappingsPerGroup = 100;
    vm_cfg.passthroughDevices = 3; // SR-IOV style (Section 4.2.1)
    machine = host->createVm(vm_cfg);

    PageSteering steering(*machine, host->clock(), steeringConfig());
    EXPECT_EQ(steering.exhaustNoisePages(), 300u);
}

TEST_F(SteeringTest, ReleaseUnplugsVictims)
{
    boot();
    PageSteering steering(*machine, host->clock(), steeringConfig());
    SteeringResult result;
    const std::vector<VulnerableBit> targets{fakeTarget(10),
                                             fakeTarget(20)};
    EXPECT_EQ(steering.releaseVulnerable(targets, result), 2u);
    EXPECT_FALSE(machine->memDevice_().isPlugged(10));
    EXPECT_FALSE(machine->memDevice_().isPlugged(20));
    EXPECT_TRUE(machine->memDriver().suppressAutoPlug());
    EXPECT_EQ(result.releasedHugePages.size(), 2u);
    // Duplicate victims release once.
    SteeringResult dup_result;
    const std::vector<VulnerableBit> dups{fakeTarget(30),
                                          fakeTarget(30)};
    EXPECT_EQ(steering.releaseVulnerable(dups, dup_result), 1u);
}

TEST_F(SteeringTest, SprayDemotesAndAllocatesEptPages)
{
    boot();
    PageSteering steering(*machine, host->clock(), steeringConfig());
    const uint64_t ept_before = machine->mmu().eptPageCount();
    const uint64_t demoted =
        steering.sprayEptes(64_MiB, /*excluded=*/{});
    EXPECT_EQ(demoted, 64_MiB / kHugePageSize);
    EXPECT_EQ(machine->mmu().eptPageCount(), ept_before + demoted);
    // The idling function was written to the sprayed pages.
    const auto first = machine->read64(GuestPhysAddr(0));
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(*first & 0xffffffffull, 0xe5894855u); // push rbp; mov
}

TEST_F(SteeringTest, SprayRespectsExclusions)
{
    boot();
    PageSteering steering(*machine, host->clock(), steeringConfig());
    std::unordered_set<uint64_t> excluded;
    for (GuestPhysAddr hp : machine->hugePageGpas())
        excluded.insert(hp.value());
    EXPECT_EQ(steering.sprayEptes(64_MiB, excluded), 0u);
}

TEST_F(SteeringTest, FullSteerPlacesEptesOnReleasedFrames)
{
    // The spray must out-size the small-block leftovers the exhaust
    // step regenerates (<= 511 + PCP), so use a VM with plenty of
    // hugepages relative to one released block (Section 4.2.3's
    // "512 x (N+2) EPT pages" rule).
    machine.reset();
    host = std::make_unique<sys::HostSystem>(
        sys::SystemConfig::s1(9).withMemory(4_GiB));
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 64_MiB;
    vm_cfg.virtioMemRegionSize = 4_GiB;
    vm_cfg.virtioMemPlugged = 2_GiB + 256_MiB;
    machine = host->createVm(vm_cfg);

    // Ground truth: host frame backing the victim before release.
    const VulnerableBit target = fakeTarget(40);
    auto victim_hpa = machine->debugTranslate(target.victimHugePage);
    ASSERT_TRUE(victim_hpa.ok());
    const Pfn victim_block = victim_hpa->pfn();

    PageSteering steering(*machine, host->clock(),
                          steeringConfig(/*mappings=*/7'000));
    const base::SimTime start = host->clock().now();
    const SteeringResult result =
        steer(steering, target, machine->memorySize());

    EXPECT_GT(result.iovaMappings, 0u);
    EXPECT_EQ(result.releasedSubBlocks, 1u);
    EXPECT_GT(result.demotions, 1'000u);
    EXPECT_GT(host->clock().now(), start);

    // Host-side census: the released block must be consumed by the
    // spray -- partly as EPT pages, partly as the per-split kernel
    // metadata that interleaves with them (Table 2's R metric).
    uint64_t reused_ept = 0;
    uint64_t reused_meta = 0;
    for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
        const mm::PageFrame &frame = host->buddy().frame(
            victim_block + i);
        if (frame.free)
            continue;
        if (frame.use == mm::PageUse::EptPage)
            ++reused_ept;
        else if (frame.use == mm::PageUse::KernelData)
            ++reused_meta;
    }
    EXPECT_GT(reused_ept, 64u)
        << "EPT spray missed the released vulnerable block";
    EXPECT_GT(reused_ept + reused_meta, 400u)
        << "the released block was not consumed by the spray";
    // EPT share ~ 1 / (1 + splitMetadataPages).
    EXPECT_NEAR(static_cast<double>(reused_ept)
                    / (reused_ept + reused_meta),
                0.25, 0.08);
}

TEST_F(SteeringTest, SteerWithoutIommuStillReleasesAndSprays)
{
    machine.reset();
    host = std::make_unique<sys::HostSystem>(
        sys::SystemConfig::s1(9).withMemory(1_GiB));
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 64_MiB;
    vm_cfg.virtioMemRegionSize = 1_GiB;
    vm_cfg.virtioMemPlugged = 256_MiB;
    vm_cfg.passthroughDevices = 0;
    machine = host->createVm(vm_cfg);

    PageSteering steering(*machine, host->clock(), steeringConfig());
    const SteeringResult result =
        steer(steering, fakeTarget(5), machine->memorySize());
    EXPECT_EQ(result.iovaMappings, 0u);
    EXPECT_EQ(result.releasedSubBlocks, 1u);
    EXPECT_GT(result.demotions, 0u);
}

TEST_F(SteeringTest, QuarantineDefeatsSteering)
{
    machine.reset();
    host = std::make_unique<sys::HostSystem>(
        sys::SystemConfig::s1(9).withMemory(1_GiB));
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 64_MiB;
    vm_cfg.virtioMemRegionSize = 1_GiB;
    vm_cfg.virtioMemPlugged = 256_MiB;
    vm_cfg.quarantine.enabled = true;
    machine = host->createVm(vm_cfg);

    PageSteering steering(*machine, host->clock(), steeringConfig());
    const SteeringResult result =
        steer(steering, fakeTarget(5), machine->memorySize());
    // The release step is NACKed: nothing to place EPTEs on.
    EXPECT_EQ(result.releasedSubBlocks, 0u);
    EXPECT_TRUE(machine->memDevice_().isPlugged(5));
    EXPECT_GT(machine->memDevice_().stats().nackedRequests, 0u);
}

} // namespace
} // namespace hh::attack
