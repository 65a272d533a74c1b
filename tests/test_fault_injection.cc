/**
 * @file
 * Tests of the hh::fault layer (DESIGN.md section 3.3): the injector's
 * occurrence/window semantics, per-site firing at every registered
 * injection point, the null-plan identity guarantee, and the
 * orchestrator's retry / re-profile / degradation behaviour under
 * injected faults -- including bitwise-identical runAttempts results
 * across thread counts with a plan installed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attack/orchestrator.h"
#include "fault/fault.h"
#include "sys/host_system.h"
#include "sys/ksm.h"

namespace hh {
namespace {

fault::FaultEntry
entry(fault::FaultSite site, fault::FaultKind kind, uint64_t first_hit = 0,
      uint64_t count = 1, uint64_t every = 1, double probability = 1.0,
      uint64_t param = 0)
{
    fault::FaultEntry e;
    e.site = site;
    e.kind = kind;
    e.firstHit = first_hit;
    e.count = count;
    e.every = every;
    e.probability = probability;
    e.param = param;
    return e;
}

// ---------------------------------------------------------------------------
// Injector semantics

TEST(FaultRegistry, SiteNamesUniqueAndNonEmpty)
{
    std::set<std::string> names;
    for (size_t i = 0; i < fault::kFaultSiteCount; ++i) {
        const char *name = fault::siteName(static_cast<fault::FaultSite>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_NE(std::string(name), "");
        names.insert(name);
    }
    EXPECT_EQ(names.size(), fault::kFaultSiteCount)
        << "duplicate site name in fault_sites.def";
    EXPECT_NE(std::string(fault::kindName(fault::FaultKind::AllocFail)), "");
}

TEST(FaultRegistry, StreamIdsCollisionFreeAcrossSitesAndHosts)
{
    // Each injector derives per-site Rng streams as
    // SeedSequence(mix64(host seed, plan seed)).seed(site index); a
    // collision would make two sites (or two trial hosts) fire in
    // lockstep. Audit the derivation across a batch of host and plan
    // seeds, including the adjacent values per-trial clones use.
    std::set<uint64_t> stream_seeds;
    size_t derived = 0;
    for (uint64_t host_seed = 1; host_seed <= 16; ++host_seed) {
        for (uint64_t plan_seed : {1ull, 2ull, 21ull, 42ull}) {
            const base::SeedSequence seq(
                base::mix64(host_seed, plan_seed));
            for (size_t site = 0; site < fault::kFaultSiteCount;
                 ++site) {
                stream_seeds.insert(seq.seed(site));
                ++derived;
            }
        }
    }
    EXPECT_EQ(stream_seeds.size(), derived)
        << "fault stream-id collision: two sites share an Rng stream";
}

TEST(FaultInjector, EntryFiresExactlyOnSchedule)
{
    // firstHit=3, every=2, count=2: occurrences 3 and 5 fire, nothing
    // else does.
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::DramRead,
                   fault::FaultKind::ReadCorruption, 3, 2, 2));
    fault::FaultInjector inj(plan, 0x1234);
    std::vector<uint64_t> fired_at;
    for (uint64_t o = 0; o < 12; ++o) {
        if (inj.consult(fault::FaultSite::DramRead) != nullptr)
            fired_at.push_back(o);
    }
    EXPECT_EQ(fired_at, (std::vector<uint64_t>{3, 5}));
    EXPECT_EQ(inj.occurrences(fault::FaultSite::DramRead), 12u);
    EXPECT_EQ(inj.fired(fault::FaultSite::DramRead), 2u);
    EXPECT_EQ(inj.totalFired(), 2u);
    // A site without entries never fires but still counts occurrences.
    EXPECT_EQ(inj.consult(fault::FaultSite::MmAlloc), nullptr);
    EXPECT_EQ(inj.occurrences(fault::FaultSite::MmAlloc), 1u);
}

TEST(FaultInjector, FirstEligibleEntryWinsThenNextTakesOver)
{
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::DramTrr,
                   fault::FaultKind::SpuriousTrr, 0, 1));
    plan.add(entry(fault::FaultSite::DramTrr,
                   fault::FaultKind::ReadCorruption, 0, 0));
    fault::FaultInjector inj(plan, 7);
    const fault::FaultEntry *first = inj.consult(fault::FaultSite::DramTrr);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->kind, fault::FaultKind::SpuriousTrr);
    // The one-shot entry is exhausted; the unlimited one takes over.
    const fault::FaultEntry *second = inj.consult(fault::FaultSite::DramTrr);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->kind, fault::FaultKind::ReadCorruption);
}

TEST(FaultInjector, BernoulliGateIsDeterministicPerSeed)
{
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::KsmScan, fault::FaultKind::ScanRace,
                   0, 0, 1, 0.5));
    auto pattern = [&](uint64_t root) {
        fault::FaultInjector inj(plan, root);
        std::vector<bool> fired;
        for (unsigned o = 0; o < 200; ++o)
            fired.push_back(inj.consult(fault::FaultSite::KsmScan)
                            != nullptr);
        return fired;
    };
    const std::vector<bool> a = pattern(11);
    EXPECT_EQ(a, pattern(11)) << "same plan+root must replay exactly";
    EXPECT_NE(a, pattern(12)) << "different root must shift the stream";
    const size_t fires = std::count(a.begin(), a.end(), true);
    EXPECT_GT(fires, 0u);
    EXPECT_LT(fires, 200u);
}

TEST(FaultPlan, RandomizedCoversEverySite)
{
    const fault::FaultPlan plan = fault::FaultPlan::randomized(21, 0.5);
    ASSERT_EQ(plan.entries.size(), fault::kFaultSiteCount);
    std::set<fault::FaultSite> seen;
    for (const fault::FaultEntry &e : plan.entries) {
        seen.insert(e.site);
        EXPECT_GT(e.probability, 0.0);
        EXPECT_LE(e.probability, 1.0);
        EXPECT_GE(e.every, 1u);
    }
    EXPECT_EQ(seen.size(), fault::kFaultSiteCount);
}

TEST(FaultPoint, NullInjectorIsANoop)
{
    fault::FaultInjector *injector = nullptr;
    // hh-lint: allow(fault-site) -- exercises the macro's null branch, not a new injection point
    EXPECT_EQ(HH_FAULT_POINT(injector, fault::FaultSite::DramRead), nullptr);
}

// ---------------------------------------------------------------------------
// Per-site firing through the real components

dram::DramConfig
dramTestConfig(uint64_t seed = 5)
{
    dram::DramConfig cfg;
    cfg.totalBytes = 256_MiB;
    cfg.mapping = dram::AddressMapping::i3_10100();
    cfg.seed = seed;
    cfg.fault.weakCellsPerRow = 0.02;
    cfg.fault.stableFraction = 1.0;
    cfg.fault.minThreshold = 50'000;
    cfg.fault.maxThreshold = 150'000;
    return cfg;
}

/** First stable weak (bank,row) flipping one-to-zero. */
struct WeakSpot
{
    dram::BankId bank;
    dram::RowId row;
};

WeakSpot
findWeakSpot(const dram::DramSystem &dram)
{
    const dram::AddressMapping &map = dram.mapping();
    const dram::RowId max_row = (dram.size() - 1) >> map.rowLoBit();
    for (dram::RowId row = 2; row + 3 < max_row; ++row) {
        for (dram::BankId bank = 0; bank < map.bankCount(); ++bank) {
            for (const dram::WeakCell &cell :
                 dram.faultModel().weakCellsInRow(bank, row)) {
                if (cell.direction == dram::FlipDirection::OneToZero
                    && cell.stable())
                    return WeakSpot{bank, row};
            }
        }
    }
    ADD_FAILURE() << "no weak spot in the test DIMM";
    return WeakSpot{0, 2};
}

void
fillRow(dram::DramSystem &dram, dram::RowId row, uint64_t pattern)
{
    const dram::AddressMapping &map = dram.mapping();
    const uint64_t base = static_cast<uint64_t>(row) << map.rowLoBit();
    for (uint64_t off = 0; off < map.rowStripeBytes(); off += kPageSize)
        dram.backend().fillPage((base + off) / kPageSize, pattern);
}

/** One full hammer pass against the known weak spot. */
std::vector<dram::FlipEvent>
hammerSpot(dram::DramSystem &dram, const WeakSpot &spot)
{
    fillRow(dram, spot.row, ~0ull);
    const dram::AddressMapping &map = dram.mapping();
    return dram.hammer({map.address(spot.bank, spot.row + 1),
                        map.address(spot.bank, spot.row + 2)},
                       200'000);
}

TEST(FaultSiteDram, ReadCorruptionIsTransientAndScheduled)
{
    base::SimClock clock;
    dram::DramSystem dram(dramTestConfig(), clock);
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::DramRead,
                   fault::FaultKind::ReadCorruption, 1, 1, 1, 1.0, 5));
    fault::FaultInjector inj(plan, 3);
    dram.setFaultInjector(&inj);

    const HostPhysAddr addr(0x1000);
    dram.write64(addr, 0xabcdull);
    EXPECT_EQ(dram.read64(addr), 0xabcdull);          // occurrence 0
    EXPECT_EQ(dram.read64(addr), 0xabcdull ^ (1u << 5)); // occurrence 1
    EXPECT_EQ(dram.read64(addr), 0xabcdull);          // transient
    EXPECT_EQ(dram.backend().read64(addr), 0xabcdull)
        << "stored data must be untouched";
}

TEST(FaultSiteDram, RefreshJitterTruncatesExactlyTheScheduledBurst)
{
    // Three fresh DIMMs share one injector: hammer bursts are
    // occurrences 0, 1, 2 of dram.refresh_window; only 1 fires.
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::DramRefresh,
                   fault::FaultKind::RefreshJitter, 1, 1, 1, 1.0, 100));
    fault::FaultInjector inj(plan, 9);
    for (unsigned burst = 0; burst < 3; ++burst) {
        base::SimClock clock;
        dram::DramSystem dram(dramTestConfig(), clock);
        const WeakSpot spot = findWeakSpot(dram);
        dram.setFaultInjector(&inj);
        const auto events = hammerSpot(dram, spot);
        if (burst == 1)
            EXPECT_TRUE(events.empty())
                << "a 100% jitter burst must not flip";
        else
            EXPECT_FALSE(events.empty());
    }
    EXPECT_EQ(inj.fired(fault::FaultSite::DramRefresh), 1u);
}

TEST(FaultSiteDram, SpuriousTrrSuppressesEveryAggressor)
{
    base::SimClock clock;
    dram::DramSystem dram(dramTestConfig(), clock); // TRR disabled
    const WeakSpot spot = findWeakSpot(dram);
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::DramTrr,
                   fault::FaultKind::SpuriousTrr, 0, 0));
    fault::FaultInjector inj(plan, 2);
    dram.setFaultInjector(&inj);
    EXPECT_TRUE(hammerSpot(dram, spot).empty());
    EXPECT_GT(dram.trrSuppressions(), 0u);
    dram.setFaultInjector(nullptr);
    EXPECT_FALSE(hammerSpot(dram, spot).empty());
}

TEST(FaultSiteDram, EccMiscorrectEatsVisibleFlips)
{
    base::SimClock clock;
    dram::DramSystem dram(dramTestConfig(), clock); // ECC disabled
    const WeakSpot spot = findWeakSpot(dram);
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::DramEcc,
                   fault::FaultKind::EccMiscorrect, 0, 0));
    fault::FaultInjector inj(plan, 2);
    dram.setFaultInjector(&inj);
    EXPECT_TRUE(hammerSpot(dram, spot).empty());
    EXPECT_GT(dram.eccCorrectedFlips(), 0u)
        << "the miscorrection must be accounted as ECC activity";
}

TEST(FaultSiteMm, AllocFailFiresAtScheduledOccurrence)
{
    mm::BuddyConfig cfg;
    cfg.totalPages = 64_MiB / kPageSize;
    mm::BuddyAllocator buddy(cfg);
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::MmAlloc,
                   fault::FaultKind::AllocFail, 1, 1));
    fault::FaultInjector inj(plan, 5);
    buddy.setFaultInjector(&inj);

    auto a = buddy.allocPages(0, mm::MigrateType::Unmovable,
                              mm::PageUse::KernelData);
    ASSERT_TRUE(a.ok());
    auto b = buddy.allocPages(0, mm::MigrateType::Unmovable,
                              mm::PageUse::KernelData);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(b.error(), base::ErrorCode::NoMemory);
    auto c = buddy.allocPages(0, mm::MigrateType::Unmovable,
                              mm::PageUse::KernelData);
    EXPECT_TRUE(c.ok());
    buddy.freePages(*a, 0);
    buddy.freePages(*c, 0);
}

TEST(FaultSiteMm, AllocFailParamStarvesOneUseClass)
{
    mm::BuddyConfig cfg;
    cfg.totalPages = 64_MiB / kPageSize;
    mm::BuddyAllocator buddy(cfg);
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::MmAlloc, fault::FaultKind::AllocFail,
                   0, 0, 1, 1.0,
                   static_cast<uint64_t>(mm::PageUse::EptPage)));
    fault::FaultInjector inj(plan, 5);
    buddy.setFaultInjector(&inj);

    auto kernel = buddy.allocPages(0, mm::MigrateType::Unmovable,
                                   mm::PageUse::KernelData);
    EXPECT_TRUE(kernel.ok()) << "other classes must be unaffected";
    auto ept = buddy.allocPages(0, mm::MigrateType::Unmovable,
                                mm::PageUse::EptPage);
    ASSERT_FALSE(ept.ok());
    EXPECT_EQ(ept.error(), base::ErrorCode::NoMemory);
    buddy.freePages(*kernel, 0);
}

TEST(FaultSiteSys, KsmScanRaceSkipsEveryPage)
{
    base::SimClock clock;
    dram::DramConfig dram_cfg;
    dram_cfg.totalBytes = 256_MiB;
    dram_cfg.fault.weakCellsPerRow = 0;
    dram::DramSystem dram(dram_cfg, clock);
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = 256_MiB / kPageSize;
    mm::BuddyAllocator buddy(buddy_cfg);

    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 8_MiB;
    vm_cfg.virtioMemRegionSize = 64_MiB;
    vm_cfg.virtioMemPlugged = 32_MiB;
    vm_cfg.passthroughDevices = 0;
    auto attacker =
        std::make_unique<vm::VirtualMachine>(dram, buddy, vm_cfg, 1);
    auto victim =
        std::make_unique<vm::VirtualMachine>(dram, buddy, vm_cfg, 2);

    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::KsmScan,
                   fault::FaultKind::ScanRace, 0, 0));
    fault::FaultInjector inj(plan, 6);
    sys::Ksm ksm(dram, buddy, true, &inj);
    ksm.attach(*attacker);
    ksm.attach(*victim);

    const GuestPhysAddr page(0x4000);
    for (unsigned word = 0; word < kPageSize / 8; ++word) {
        ASSERT_TRUE(attacker->write64(page + word * 8ull, 0xd00d).ok());
        ASSERT_TRUE(victim->write64(page + word * 8ull, 0xd00d).ok());
    }
    // Every scan races: no page is ever even fingerprinted.
    EXPECT_EQ(ksm.scanRange(*victim, page, 1), 0u);
    EXPECT_EQ(ksm.scanRange(*attacker, page, 1), 0u);
    EXPECT_EQ(ksm.stats().pagesScanned, 0u);
    EXPECT_EQ(ksm.stats().raced, 2u);
    // VMs must outlive the Ksm teardown contract.
    attacker.reset();
    victim.reset();
}

TEST(FaultSiteVirtio, UnplugDeferredAnswersBusyOnce)
{
    base::SimClock clock;
    dram::DramConfig dram_cfg;
    dram_cfg.totalBytes = 256_MiB;
    dram_cfg.fault.weakCellsPerRow = 0;
    dram::DramSystem dram(dram_cfg, clock);
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = 256_MiB / kPageSize;
    mm::BuddyAllocator buddy(buddy_cfg);

    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 8_MiB;
    vm_cfg.virtioMemRegionSize = 64_MiB;
    vm_cfg.virtioMemPlugged = 32_MiB;
    vm_cfg.passthroughDevices = 0;
    fault::FaultPlan plan;
    plan.add(entry(fault::FaultSite::VirtioUnplug,
                   fault::FaultKind::DelayedReclaim, 0, 1));
    fault::FaultInjector inj(plan, 8);
    vm::VirtualMachine machine(dram, buddy, vm_cfg, 1, &inj);

    GuestPhysAddr target{0};
    for (GuestPhysAddr hp : machine.hugePageGpas()) {
        if (machine.memDevice_().contains(hp)) {
            target = hp;
            break;
        }
    }
    ASSERT_NE(target.value(), 0u);
    machine.memDriver().setSuppressAutoPlug(true);
    const base::Status deferred = machine.memDriver().unplugSpecific(target);
    EXPECT_EQ(deferred.error(), base::ErrorCode::Busy);
    EXPECT_EQ(machine.memDevice_().stats().deferredUnplugs, 1u);
    EXPECT_TRUE(machine.memDriver().unplugSpecific(target).ok())
        << "the retry after the deferral must succeed";
}

// ---------------------------------------------------------------------------
// Orchestrator behaviour under plans (and without them)

sys::SystemConfig
hostConfig(uint64_t seed = 42, double density_scale = 4.0)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(seed).withMemory(1_GiB);
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

attack::AttackConfig
attackConfig(unsigned max_attempts = 4)
{
    attack::AttackConfig cfg;
    cfg.maxAttempts = max_attempts;
    cfg.steering.exhaustMappings = 2'500;
    return cfg;
}

TEST(FaultOrchestrator, EmptyPlanBuildsNoInjectorAndChangesNothing)
{
    // A host configured with an explicitly empty plan is the null-plan
    // fast path: no injector exists and a full campaign is identical
    // to one on a host that never heard of fault injection.
    sys::HostSystem plain(hostConfig());
    sys::HostSystem with_empty(hostConfig().withFaults(fault::FaultPlan{}));
    EXPECT_EQ(plain.faults(), nullptr);
    EXPECT_EQ(with_empty.faults(), nullptr);

    auto run_one = [&](sys::HostSystem &host) {
        attack::HyperHammerAttack attack(host, vmConfig(),
                                         host.dram().mapping(),
                                         attackConfig(2));
        (void)attack.profilePhase();
        return attack.runAttempts(2);
    };
    const attack::AttackResult a = run_one(plain);
    const attack::AttackResult b = run_one(with_empty);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.faultsInjected, 0u);
    EXPECT_EQ(b.faultsInjected, 0u);
    EXPECT_EQ(a.outcomes, b.outcomes);
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].retries, 0u);
        EXPECT_EQ(a.outcomes[i].backoffTime, 0u);
        EXPECT_EQ(a.outcomes[i].faultsFired, 0u);
    }
}

TEST(FaultOrchestrator, RunWithoutProfileDegradesInsteadOfAborting)
{
    sys::HostSystem host(hostConfig());
    attack::HyperHammerAttack attack(host, vmConfig(),
                                     host.dram().mapping(),
                                     attackConfig(2));
    // No profilePhase(): the empty profile ends the campaign.
    const attack::AttackResult result = attack.runAttempts(2);
    EXPECT_FALSE(result.success);
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.status.error(), base::ErrorCode::NotFound);
    EXPECT_EQ(result.attempts, 0u);
}

TEST(FaultOrchestrator, SteerMissesTriggerRetriesAndPartialResult)
{
    // Every release misses: the release phase retries with backoff,
    // then the campaign completes degraded instead of aborting.
    fault::FaultPlan plan;
    plan.seed = 3;
    plan.add(entry(fault::FaultSite::SteerRelease,
                   fault::FaultKind::SteerMiss, 0, 0));
    sys::HostSystem host(hostConfig(7, 8.0).withFaults(plan));
    ASSERT_NE(host.faults(), nullptr);
    attack::HyperHammerAttack attack(host, vmConfig(),
                                     host.dram().mapping(),
                                     attackConfig(2));
    (void)attack.profilePhase();
    ASSERT_GT(attack.hostProfile().size(), 0u);
    const attack::AttackResult result = attack.runAttempts(2);

    EXPECT_FALSE(result.success);
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.status.error(), base::ErrorCode::LimitExceeded);
    EXPECT_EQ(result.attempts, 2u) << "degradation must not abort early";
    EXPECT_GT(result.faultsInjected, 0u);
    for (const attack::AttemptOutcome &outcome : result.outcomes) {
        if (outcome.bitsTargeted == 0)
            continue;
        EXPECT_EQ(outcome.releasedSubBlocks, 0u);
        // Every retry misses again, so the phase uses all three, with
        // backoffs of 10, 20 and 40 ms.
        EXPECT_EQ(outcome.retries, 3u);
        EXPECT_EQ(outcome.backoffTime, 70 * base::kMillisecond);
        EXPECT_GT(outcome.faultsFired, 0u);
    }
}

TEST(FaultOrchestrator, LostFlipsTriggerHammerRetries)
{
    fault::FaultPlan plan;
    plan.seed = 4;
    plan.add(entry(fault::FaultSite::ExploitHammer,
                   fault::FaultKind::LostFlip, 0, 0));
    sys::HostSystem host(hostConfig(7, 8.0).withFaults(plan));
    attack::HyperHammerAttack attack(host, vmConfig(),
                                     host.dram().mapping(),
                                     attackConfig(1));
    (void)attack.profilePhase();
    ASSERT_GT(attack.hostProfile().size(), 0u);
    const attack::AttackResult result = attack.runAttempts(1);
    EXPECT_FALSE(result.success);
    ASSERT_EQ(result.outcomes.size(), 1u);
    const attack::AttemptOutcome &outcome = result.outcomes[0];
    ASSERT_GT(outcome.bitsTargeted, 0u);
    EXPECT_EQ(outcome.retries, 3u);
    EXPECT_EQ(outcome.backoffTime, 70 * base::kMillisecond);
    EXPECT_GT(outcome.faultsFired, 0u);
}

TEST(FaultOrchestrator, FaultsFiredCoverTheTrialWorldsBootAndSpawn)
{
    // Allocation failures that fire only before the attack starts: in
    // the trial world's boot (its injector is born with the fork) and,
    // past the boot and the secret's page, in its VM spawn.
    fault::FaultPlan plan;
    plan.seed = 5;
    plan.add(entry(fault::FaultSite::MmAlloc,
                   fault::FaultKind::AllocFail, 0, 4));
    uint64_t boot_hits = 0;
    {
        const sys::SystemConfig cfg = hostConfig(7, 8.0).withFaults(plan);
        const std::unique_ptr<const sys::HostSystem> tmpl =
            sys::HostSystem::makeForkTemplate(cfg);
        const std::unique_ptr<sys::HostSystem> world =
            sys::HostSystem::forkTrial(*tmpl, cfg);
        boot_hits = world->faults()->occurrences(fault::FaultSite::MmAlloc);
    }
    ASSERT_GT(boot_hits, 4u);
    plan.add(entry(fault::FaultSite::MmAlloc,
                   fault::FaultKind::AllocFail, boot_hits + 8, 2));

    sys::HostSystem host(hostConfig(7, 8.0).withFaults(plan));
    attack::HyperHammerAttack attack(host, vmConfig(),
                                     host.dram().mapping(),
                                     attackConfig(2));
    (void)attack.profilePhase();
    ASSERT_GT(attack.hostProfile().size(), 0u);
    const attack::AttackResult result = attack.runAttempts(2);
    EXPECT_FALSE(result.success);
    EXPECT_TRUE(result.degraded);
    ASSERT_EQ(result.outcomes.size(), 2u);
    for (const attack::AttemptOutcome &outcome : result.outcomes)
        EXPECT_EQ(outcome.faultsFired, 6u);
    EXPECT_EQ(result.faultsInjected, 12u);
}

TEST(FaultOrchestrator, RunAttemptsBitwiseIdenticalAcrossThreadCounts)
{
    // The acceptance bar: with a seeded plan installed, the parallel
    // Monte-Carlo engine must stay bitwise-deterministic at any thread
    // count (DESIGN.md sections 3.2 + 3.3).
    const fault::FaultPlan plan = fault::FaultPlan::randomized(17, 0.5);
    auto run_with = [&](unsigned threads) {
        sys::HostSystem host(hostConfig(11, 8.0).withFaults(plan));
        attack::HyperHammerAttack attack(host, vmConfig(),
                                         host.dram().mapping(),
                                         attackConfig(8));
        (void)attack.profilePhase();
        return attack.runAttempts(threads);
    };
    const attack::AttackResult t1 = run_with(1);
    const attack::AttackResult t4 = run_with(4);
    const attack::AttackResult t8 = run_with(8);
    for (const attack::AttackResult *other : {&t4, &t8}) {
        EXPECT_EQ(t1.success, other->success);
        EXPECT_EQ(t1.attempts, other->attempts);
        EXPECT_EQ(t1.totalTime, other->totalTime);
        EXPECT_EQ(t1.faultsInjected, other->faultsInjected);
        EXPECT_EQ(t1.outcomes, other->outcomes);
    }
}

} // namespace
} // namespace hh
