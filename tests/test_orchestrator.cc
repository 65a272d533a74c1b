/**
 * @file
 * Tests of the end-to-end orchestrator: the profiling phase and its
 * host-physical record conversion, the attempt loop with one VM spawn
 * per trial, the expected-time model (Section 5.3.3), and the
 * countermeasure's end-to-end effect.
 */

#include <gtest/gtest.h>

#include <memory>

#include "attack/orchestrator.h"

namespace hh::attack {
namespace {

sys::SystemConfig
hostConfig(uint64_t seed = 42, double density_scale = 4.0)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(seed)
        .withMemory(1_GiB);
    cfg.dram.fault.weakCellsPerRow *= density_scale;
    return cfg;
}

vm::VmConfig
vmConfig()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 640_MiB;
    return cfg;
}

AttackConfig
attackConfig(unsigned max_attempts = 4)
{
    AttackConfig cfg;
    cfg.maxAttempts = max_attempts;
    cfg.steering.exhaustMappings = 2'500;
    return cfg;
}

TEST(ExpectedTime, ModelMatchesPaperArithmetic)
{
    // Section 5.3.3 for S1: full profile 72 h finds 96 bits; needing
    // 12 per attempt gives 9 h per profile, and 512 attempts yield
    // 192 days.
    const base::SimTime full = 72 * base::kHour;
    const base::SimTime expected =
        expectedEndToEndTime(full, 96, 12, 512);
    EXPECT_NEAR(base::SimClock::toSeconds(expected),
                192.0 * 24 * 3600, 3600.0);
    // S2: 48 h, 90 bits, 512 attempts -> ~136.5 days.
    const base::SimTime s2 = expectedEndToEndTime(
        48 * base::kHour, 90, 12, 512);
    EXPECT_NEAR(base::SimClock::toSeconds(s2) / (24 * 3600), 136.5,
                1.0);
    EXPECT_EQ(expectedEndToEndTime(full, 0, 12, 512), 0u);
}

TEST(Orchestrator, ProfilePhaseBuildsHostRecords)
{
    sys::HostSystem host(hostConfig());
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), attackConfig());
    const uint64_t free_before = host.buddy().freePages();
    const ProfileResult profile = attack.profilePhase();
    EXPECT_GT(profile.totalFlips(), 0u);

    // The profiling VM is torn down before profilePhase() returns: no
    // guest or table frame survives and every frame it took is free.
    const mm::BuddyAllocator &buddy = host.buddy();
    uint64_t vm_frames = 0;
    for (Pfn pfn = 0; pfn < buddy.totalPages(); ++pfn) {
        const mm::PageUse use = buddy.frame(pfn).use;
        vm_frames += use == mm::PageUse::GuestMemory
            || use == mm::PageUse::EptPage
            || use == mm::PageUse::IoptPage;
    }
    EXPECT_EQ(vm_frames, 0u);
    EXPECT_EQ(buddy.freePages(), free_before);

    // Records correspond to exploitable+releasable bits only, are in
    // host-physical terms, and are sorted stable-first.
    unsigned usable = 0;
    for (const VulnerableBit &bit : profile.bits)
        usable += bit.exploitable && bit.releasable;
    EXPECT_EQ(attack.hostProfile().size(), usable);
    bool seen_unstable = false;
    for (const HostVulnBit &record : attack.hostProfile()) {
        EXPECT_FALSE(record.aggressorHpas.empty());
        if (!record.stable)
            seen_unstable = true;
        else
            EXPECT_FALSE(seen_unstable) << "stable bits must sort first";
    }
}

TEST(Orchestrator, SecretPlantedInHostMemory)
{
    sys::HostSystem host(hostConfig());
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), attackConfig());
    EXPECT_NE(attack.secretValue(), 0u);
    EXPECT_EQ(host.dram().backend().read64(attack.secretAddress()),
              attack.secretValue());
    // The secret page is host kernel memory, not guest-reachable.
    const mm::PageFrame &frame =
        host.buddy().frame(attack.secretAddress().pfn());
    EXPECT_EQ(frame.use, mm::PageUse::KernelData);
}

TEST(Orchestrator, RunExecutesAttemptsAndRespawns)
{
    sys::HostSystem host(hostConfig());
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), attackConfig(3));
    (void)attack.profilePhase();
    const AttackResult result = attack.runAttempts(2);
    EXPECT_EQ(result.attempts, result.success ? result.attempts : 3u);
    EXPECT_EQ(result.outcomes.size(), result.attempts);
    // Every attempt pays its own VM spawn.
    for (const AttemptOutcome &outcome : result.outcomes)
        EXPECT_GT(outcome.duration, 10 * base::kSecond);
    EXPECT_GT(result.totalTime, 0u);
    EXPECT_GT(result.avgAttemptSeconds(), 10.0);
}

TEST(Orchestrator, AttemptsReleaseAndSprayWhenTargetsRelocate)
{
    sys::HostSystem host(hostConfig(7, 8.0));
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), attackConfig(6));
    (void)attack.profilePhase();
    ASSERT_GT(attack.hostProfile().size(), 0u);
    const AttackResult result = attack.runAttempts(2);
    uint64_t total_targeted = 0;
    uint64_t total_demotions = 0;
    for (const AttemptOutcome &outcome : result.outcomes) {
        total_targeted += outcome.bitsTargeted;
        total_demotions += outcome.demotions;
        EXPECT_EQ(outcome.releasedSubBlocks > 0,
                  outcome.bitsTargeted > 0);
    }
    EXPECT_GT(total_targeted, 0u) << "no attempt relocated any bit";
    EXPECT_GT(total_demotions, 0u);
}

TEST(Orchestrator, QuarantineStopsTheAttack)
{
    sys::HostSystem host(hostConfig(7, 8.0));
    vm::VmConfig vm_cfg = vmConfig();
    vm_cfg.quarantine.enabled = true;
    HyperHammerAttack attack(host, vm_cfg, host.dram().mapping(),
                             attackConfig(3));
    (void)attack.profilePhase();
    const AttackResult result = attack.runAttempts(2);
    EXPECT_FALSE(result.success);
    for (const AttemptOutcome &outcome : result.outcomes)
        EXPECT_EQ(outcome.releasedSubBlocks, 0u);
}

TEST(Orchestrator, BatchCappedBySprayBudget)
{
    // A VM with ~352 hugepages can afford at most 1 released bit per
    // attempt even if many more are profiled (Section 4.3's 1 GB per
    // bit rule, scaled).
    sys::HostSystem host(hostConfig(7, 16.0));
    AttackConfig cfg = attackConfig(2);
    cfg.bitsPerAttempt = 12;
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), cfg);
    (void)attack.profilePhase();
    const AttackResult result = attack.runAttempts(2);
    for (const AttemptOutcome &outcome : result.outcomes)
        EXPECT_LE(outcome.bitsTargeted, 1u);
}

} // namespace
} // namespace hh::attack
