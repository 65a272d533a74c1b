/**
 * @file
 * Tests of the mitigation layer: the Defense factory/stack, the
 * structural isolation the domain defenses install, and the
 * attacks x defenses matrix properties -- monotonicity (a defense
 * never helps the attacker), separation, the CATTmew re-enablement
 * result, and the threads x shards identity of the whole sweep.
 *
 * The campaign cells run at the calibrated small-scale configuration
 * (1 GiB host, x8 flip density, 64 MiB boot + 640 MiB plugged VM,
 * 2,500 exhaustion mappings -- the same shape the orchestrator tests
 * and bench_mitigation_matrix's --quick mode use). Full escalation is
 * ~1e-3 per attempt even undefended, so the properties compare the
 * graded progress signals (released sub-blocks, flipped mappings,
 * EPT-entry-shaped candidates), which are exact, deterministic
 * counters at this scale.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mitigate/matrix.h"

namespace hh::mitigate {
namespace {

/**
 * Seeds chosen by sweeping bench_mitigation_matrix: the flip signal
 * is geometry-sensitive (roughly one seed in four at this scale), so
 * each property pins a seed where its baseline signal is nonzero.
 * kFlipSeed: undefended flips > 0. kHoleSeed: catt-hole flips > 0
 * (the defended layout shifts placement, so it needs its own seed).
 */
constexpr uint64_t kFlipSeed = 2;
constexpr uint64_t kHoleSeed = 3;
constexpr uint64_t kTrials = 48;

sys::SystemConfig
hostConfig(uint64_t seed)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(seed)
        .withMemory(1_GiB);
    cfg.dram.fault.weakCellsPerRow *= 8.0;
    return cfg;
}

MatrixSpec
calibratedSpec(uint64_t seed)
{
    MatrixSpec spec;
    spec.hosts = {hostConfig(seed)};
    spec.vm.bootMemBytes = 64_MiB;
    spec.vm.virtioMemRegionSize = 1_GiB;
    spec.vm.virtioMemPlugged = 640_MiB;
    spec.attack.steering.exhaustMappings = 2'500;
    spec.attack.profiler.stopAfterExploitable = 0;
    spec.trials = kTrials;
    spec.threads = 4;
    return spec;
}

TEST(DefenseFactory, NamesAndStacks)
{
    EXPECT_EQ(makeDefense("quarantine")->name(),
              std::string("quarantine"));
    EXPECT_EQ(makeDefense("catt-hole")->name(),
              std::string("catt-hole"));
    EXPECT_EQ(makeDefense("nope"), nullptr);
    EXPECT_EQ(makeDefense("none"), nullptr);

    auto none = makeDefenseSet("none");
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none->empty());
    EXPECT_EQ(none->label(), "none");

    auto stacked = makeDefenseSet("siloz+trr-ecc");
    ASSERT_TRUE(stacked.ok());
    EXPECT_EQ(stacked->size(), 2u);
    EXPECT_EQ(stacked->label(), "siloz+trr-ecc");

    EXPECT_FALSE(makeDefenseSet("siloz+bogus").ok());
}

TEST(DefenseFactory, StacksChainConfigTransforms)
{
    auto set = makeDefenseSet("catt+trr-ecc");
    ASSERT_TRUE(set.ok());
    sys::SystemConfig cfg = hostConfig(1);
    set->applyHostConfig(cfg);
    // CATT installed its two partitions and the TRR sweep retuned the
    // DRAM mitigations -- both transforms visible on one config.
    EXPECT_EQ(cfg.domains.domains.size(), 2u);
    EXPECT_TRUE(cfg.dram.trr.enabled);
    EXPECT_TRUE(cfg.dram.ecc.enabled);
}

/** pfn -> owning domain, via the public census only. */
mm::DomainInfo
domainAt(const mm::BuddyAllocator &buddy, Pfn pfn)
{
    for (size_t i = 0; i < buddy.domainCount(); ++i) {
        const mm::DomainInfo dom = buddy.domainInfo(i);
        if (pfn >= dom.start && pfn < dom.end)
            return dom;
    }
    ADD_FAILURE() << "pfn " << pfn << " in no domain";
    return {};
}

// Siloz separation, checked structurally against the frame database
// rather than through campaign outcomes: while a defended world runs a
// VM (after profiling one), every EPT page sits in the dedicated Ept
// domain, every guest frame in a Guest domain, and the guard bands
// between them hold only sacrificial guard rows.
TEST(SilozSeparation, EptAndGuestFramesInDisjointDomains)
{
    auto set = makeDefenseSet("siloz");
    ASSERT_TRUE(set.ok());

    sys::SystemConfig host_cfg = hostConfig(kFlipSeed);
    set->applyHostConfig(host_cfg);
    sys::HostSystem host(host_cfg);
    ASSERT_TRUE(set->configure(host).ok());

    MatrixSpec spec = calibratedSpec(kFlipSeed);
    vm::VmConfig vm_cfg = spec.vm;
    set->applyVmConfig(vm_cfg);
    attack::HyperHammerAttack campaign(host, vm_cfg,
                                       host.dram().mapping(),
                                       spec.attack);
    campaign.attachDefenses(&*set);
    (void)campaign.profilePhase();
    // profilePhase() tears its VM down; inspect a live one.
    const std::unique_ptr<vm::VirtualMachine> machine =
        host.createVm(vm_cfg);

    const mm::BuddyAllocator &buddy = host.buddy();
    uint64_t ept_frames = 0;
    uint64_t guest_frames = 0;
    uint64_t guard_frames = 0;
    for (Pfn pfn = 0; pfn < buddy.totalPages(); ++pfn) {
        const mm::PageFrame &frame = buddy.frame(pfn);
        const mm::DomainInfo dom = domainAt(buddy, pfn);
        if (frame.use == mm::PageUse::EptPage
            || frame.use == mm::PageUse::IoptPage) {
            ++ept_frames;
            EXPECT_EQ(dom.cls, mm::DomainClass::Ept)
                << "EPT/IOPT frame " << pfn << " outside the EPT "
                << "domain (class " << domainClassName(dom.cls)
                << ")";
        } else if (frame.use == mm::PageUse::GuestMemory) {
            ++guest_frames;
            EXPECT_EQ(dom.cls, mm::DomainClass::Guest)
                << "guest frame " << pfn << " outside a guest domain";
        }
        if (pfn >= dom.usableEnd) {
            ++guard_frames;
            EXPECT_EQ(frame.use, mm::PageUse::GuardRow);
            EXPECT_FALSE(frame.free);
        }
    }
    // Non-vacuity: the spawned VM really put both kinds of frame on
    // the host, and the layout really reserved guard bands.
    EXPECT_GT(ept_frames, 0u);
    EXPECT_GT(guest_frames, 0u);
    EXPECT_GT(guard_frames, 0u);
}

// Per-seed monotonicity over the graded progress signals: a defense
// may be useless, but it must never help the attacker. At the
// calibrated flip seed the baseline signal is nonzero, so the
// defense-specific zeroes below are real suppression, not 0 <= 0.
TEST(MitigationMatrix, DefensesNeverHelpTheAttacker)
{
    MatrixSpec spec = calibratedSpec(kFlipSeed);
    spec.defenses = {"none", "quarantine", "siloz", "catt",
                     "trr-ecc"};
    auto matrix = runMatrix(spec);
    ASSERT_TRUE(matrix.ok());
    ASSERT_EQ(matrix->cells.size(), spec.defenses.size());

    const MatrixCell *base = matrix->find("S1", "none", "pairwise");
    ASSERT_NE(base, nullptr);
    EXPECT_GT(base->profiledBits, 0u);
    EXPECT_GT(base->releasedSubBlocks, 0u);
    EXPECT_GT(base->flippedMappings, 0u);
    EXPECT_GT(base->epteCandidates, 0u);

    for (const MatrixCell &cell : matrix->cells) {
        if (cell.defense == "none")
            continue;
        EXPECT_LE(cell.releasedSubBlocks, base->releasedSubBlocks)
            << cell.defense;
        EXPECT_LE(cell.flippedMappings, base->flippedMappings)
            << cell.defense;
        EXPECT_LE(cell.epteCandidates, base->epteCandidates)
            << cell.defense;
        EXPECT_LE(cell.success, base->success) << cell.defense;
    }

    // Each defense breaks its own link of the chain.
    const MatrixCell *quarantine =
        matrix->find("S1", "quarantine", "pairwise");
    ASSERT_NE(quarantine, nullptr);
    EXPECT_EQ(quarantine->releasedSubBlocks, 0u);

    const MatrixCell *siloz = matrix->find("S1", "siloz", "pairwise");
    ASSERT_NE(siloz, nullptr);
    EXPECT_EQ(siloz->flippedMappings, 0u);
    EXPECT_GT(siloz->overhead.reservedBytes, 0u);

    const MatrixCell *catt = matrix->find("S1", "catt", "pairwise");
    ASSERT_NE(catt, nullptr);
    EXPECT_EQ(catt->flippedMappings, 0u);

    const MatrixCell *trr = matrix->find("S1", "trr-ecc", "pairwise");
    ASSERT_NE(trr, nullptr);
    EXPECT_EQ(trr->profiledBits, 0u);
    EXPECT_GT(trr->overhead.slowdownFactor, 1.0);
}

// The CATTmew result as a property: CATT's partitioning pins the flip
// signal at zero, and re-opening the double-ownership hole brings it
// back -- same host seed, same trials, one flag apart.
TEST(MitigationMatrix, CattHoleReenablesTheAttack)
{
    MatrixSpec spec = calibratedSpec(kHoleSeed);
    spec.defenses = {"catt", "catt-hole"};
    auto matrix = runMatrix(spec);
    ASSERT_TRUE(matrix.ok());

    const MatrixCell *catt = matrix->find("S1", "catt", "pairwise");
    const MatrixCell *hole =
        matrix->find("S1", "catt-hole", "pairwise");
    ASSERT_NE(catt, nullptr);
    ASSERT_NE(hole, nullptr);
    EXPECT_EQ(catt->flippedMappings, 0u);
    EXPECT_GT(hole->flippedMappings, 0u);
    EXPECT_GT(hole->epteCandidates, 0u);
}

// The matrix inherits the sharded trial engine's identity guarantee:
// the same spec produces bitwise-identical cells -- one fingerprint --
// at any threads x shards combination.
TEST(MitigationMatrix, FingerprintInvariantAcrossThreadsAndShards)
{
    MatrixSpec spec = calibratedSpec(kFlipSeed);
    spec.trials = 6;
    spec.defenses = {"none", "quarantine"};

    spec.threads = 1;
    spec.shards = 1;
    auto serial = runMatrix(spec);
    ASSERT_TRUE(serial.ok());

    spec.threads = 3;
    spec.shards = 2;
    auto threaded = runMatrix(spec);
    ASSERT_TRUE(threaded.ok());

    spec.threads = 2;
    spec.shards = 3;
    auto sharded = runMatrix(spec);
    ASSERT_TRUE(sharded.ok());

    EXPECT_EQ(serial->fingerprint(), threaded->fingerprint());
    EXPECT_EQ(serial->fingerprint(), sharded->fingerprint());
}

TEST(MitigationMatrix, RejectsUnknownAxes)
{
    MatrixSpec spec = calibratedSpec(1);
    spec.defenses = {"bogus"};
    EXPECT_FALSE(runMatrix(spec).ok());

    spec.defenses = {"none"};
    spec.attacks = {"sideways"};
    EXPECT_FALSE(runMatrix(spec).ok());

    spec.attacks = {"pairwise"};
    spec.trials = 0;
    EXPECT_FALSE(runMatrix(spec).ok());
}

} // namespace
} // namespace hh::mitigate
