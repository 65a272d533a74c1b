/**
 * @file
 * hh::shard unit and identity tests.
 *
 * Two halves. The synthetic half exercises planShards and the merge
 * validation matrix (uneven ranges, duplicates/overlaps, missing
 * shards, fingerprint mismatches, interrupted shards, ordering
 * independence) on hand-built RangeRecords -- no worlds are
 * constructed, so these are fast. The SweepIdentityMatrix half is the
 * ISSUE 7 acceptance sweep: for 8 seeds, with and without a
 * randomized FaultPlan, a campaign split into {1, 2, 4} shards run at
 * {1, 4} threads and merged must be bitwise-identical to the
 * single-process runAttempts() result, field by field via
 * snapshot::diffAttackResults -- including a shard that is stopped
 * mid-range, resumed from its range record, and then merged from the
 * records both ranges left on disk.
 *
 * Slow by design (the matrix runs whole campaigns); registered under
 * the tier2 label.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "shard/shard.h"
#include "snapshot/resume_identity.h"
#include "sys/host_system.h"

namespace hh {
namespace {

// ---------------------------------------------------------------- synthetic

attack::AttemptOutcome
syntheticOutcome(uint64_t trial, bool success = false)
{
    attack::AttemptOutcome outcome;
    outcome.success = success;
    outcome.bitsTargeted = static_cast<unsigned>(1 + trial % 12);
    outcome.releasedSubBlocks = trial * 3 + 1;
    outcome.demotions = trial * 5 + 2;
    outcome.changedPages = trial * 7 + 3;
    outcome.epteCandidates = trial % 4;
    outcome.duration = base::SimTime(1000 + trial * 17);
    outcome.retries = static_cast<unsigned>(trial % 3);
    outcome.backoffTime = base::SimTime(trial * 11);
    outcome.faultsFired = trial % 2;
    return outcome;
}

attack::RangeRecord
syntheticShard(uint64_t fingerprint, uint64_t total, uint64_t begin,
               uint64_t end, uint64_t success_at = UINT64_MAX)
{
    attack::RangeRecord shard;
    shard.campaignFingerprint = fingerprint;
    shard.totalTrials = total;
    shard.begin = begin;
    shard.end = end;
    for (uint64_t trial = begin; trial < end; ++trial) {
        shard.outcomes.push_back(
            syntheticOutcome(trial, trial == success_at));
        if (trial == success_at)
            break; // a range stops at its own first success
    }
    return shard;
}

TEST(PlanShards, EvenSplitTilesTheCampaign)
{
    const auto ranges = shard::planShards(8, 4);
    ASSERT_EQ(ranges.size(), 4u);
    uint64_t expected = 0;
    for (const shard::ShardRange &range : ranges) {
        EXPECT_EQ(range.begin, expected);
        EXPECT_EQ(range.size(), 2u);
        expected = range.end;
    }
    EXPECT_EQ(expected, 8u);
}

TEST(PlanShards, UnevenSplitFrontLoadsTheRemainder)
{
    const auto ranges = shard::planShards(10, 4);
    ASSERT_EQ(ranges.size(), 4u);
    EXPECT_EQ(ranges[0].size(), 3u);
    EXPECT_EQ(ranges[1].size(), 3u);
    EXPECT_EQ(ranges[2].size(), 2u);
    EXPECT_EQ(ranges[3].size(), 2u);
    EXPECT_EQ(ranges[0].begin, 0u);
    EXPECT_EQ(ranges[3].end, 10u);
}

TEST(PlanShards, MoreShardsThanTrialsYieldsEmptyRanges)
{
    const auto ranges = shard::planShards(2, 5);
    ASSERT_EQ(ranges.size(), 5u);
    EXPECT_EQ(ranges[0].size(), 1u);
    EXPECT_EQ(ranges[1].size(), 1u);
    for (size_t i = 2; i < ranges.size(); ++i)
        EXPECT_TRUE(ranges[i].empty());
    EXPECT_EQ(ranges.back().end, 2u);
}

TEST(PlanShards, ZeroCountBehavesAsOne)
{
    const auto ranges = shard::planShards(6, 0);
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0].begin, 0u);
    EXPECT_EQ(ranges[0].end, 6u);
}

TEST(ShardArtifact, SaveLoadRoundTrips)
{
    const std::string path = ::testing::TempDir() + "shard_rt.bin";
    const attack::RangeRecord shard =
        syntheticShard(0xf00d, 8, 2, 6, /*success_at=*/4);
    ASSERT_TRUE(attack::saveRangeRecord(path, shard).ok());
    const auto loaded = attack::loadRangeRecord(path);
    ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
    EXPECT_EQ(loaded->campaignFingerprint, 0xf00dull);
    EXPECT_EQ(loaded->totalTrials, 8u);
    EXPECT_EQ(loaded->begin, 2u);
    EXPECT_EQ(loaded->end, 6u);
    ASSERT_EQ(loaded->outcomes.size(), shard.outcomes.size());
    for (size_t i = 0; i < shard.outcomes.size(); ++i) {
        EXPECT_EQ(loaded->outcomes[i].duration,
                  shard.outcomes[i].duration);
        EXPECT_EQ(loaded->outcomes[i].success,
                  shard.outcomes[i].success);
    }
    EXPECT_TRUE(loaded->complete());
}

TEST(ShardArtifact, TruncatedFileIsRejected)
{
    const std::string path = ::testing::TempDir() + "shard_trunc.bin";
    ASSERT_TRUE(
        attack::saveRangeRecord(path, syntheticShard(1, 4, 0, 4)).ok());
    // Chop the tail off: framing (payload length + checksum) must
    // catch it.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 9u);
    bytes.resize(bytes.size() - 9);
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(attack::loadRangeRecord(path).ok());
}

TEST(ShardArtifact, InconsistentManifestIsRejected)
{
    const std::string path = ::testing::TempDir() + "shard_incons.bin";
    attack::RangeRecord shard = syntheticShard(1, 8, 2, 4);
    // More outcomes than the range holds.
    shard.outcomes.push_back(syntheticOutcome(9));
    ASSERT_TRUE(attack::saveRangeRecord(path, shard).ok());
    const auto loaded = attack::loadRangeRecord(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error(), base::ErrorCode::InvalidArgument);
}

TEST(MergeShards, NoShardsIsInvalid)
{
    const auto merged = shard::mergeShards({});
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::InvalidArgument);
}

TEST(MergeShards, FingerprintMismatchIsInvalid)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(2, 8, 4, 8));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::InvalidArgument);
}

TEST(MergeShards, CampaignSizeMismatchIsInvalid)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(1, 10, 4, 8));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::InvalidArgument);
}

TEST(MergeShards, OverlappingRangesAreRejected)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 5));
    shards.push_back(syntheticShard(1, 8, 3, 8));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::Exists);
}

TEST(MergeShards, DuplicateShardsAreRejected)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(1, 8, 4, 8));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::Exists);
}

TEST(MergeShards, CoverageGapIsMissingShard)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 3));
    shards.push_back(syntheticShard(1, 8, 5, 8));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::NotFound);
}

TEST(MergeShards, MissingTailShardIsDetected)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::NotFound);
}

TEST(MergeShards, InterruptedShardIsBusy)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    attack::RangeRecord cut = syntheticShard(1, 8, 4, 8);
    cut.outcomes.resize(2); // stopped mid-range, no success
    EXPECT_FALSE(cut.complete());
    shards.push_back(std::move(cut));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::Busy);
}

TEST(MergeShards, SuccessTerminatedShardMergesAndTruncates)
{
    // Shard [0, 4) succeeds at trial 2 and legally stops there; the
    // later shard ran to completion (its process cannot know). The
    // merged campaign must stop at trial 2, like a sequential run.
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4, /*success_at=*/2));
    shards.push_back(syntheticShard(1, 8, 4, 8));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_TRUE(merged.ok()) << base::errorName(merged.error());
    EXPECT_TRUE(merged->success);
    EXPECT_EQ(merged->attempts, 3u);
    EXPECT_TRUE(merged->outcomes.back().success);
    EXPECT_TRUE(merged->status.ok());
}

TEST(MergeShards, EmptyRangesAreAccepted)
{
    // planShards(2, 5): three of the five shards are empty.
    std::vector<attack::RangeRecord> shards;
    for (const shard::ShardRange &range : shard::planShards(2, 5))
        shards.push_back(
            syntheticShard(1, 2, range.begin, range.end));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_TRUE(merged.ok()) << base::errorName(merged.error());
    EXPECT_EQ(merged->attempts, 2u);
}

TEST(MergeShards, ArrivalOrderIsIrrelevant)
{
    const auto build = [] {
        std::vector<attack::RangeRecord> shards;
        shards.push_back(syntheticShard(7, 10, 0, 3));
        shards.push_back(syntheticShard(7, 10, 3, 6));
        shards.push_back(syntheticShard(7, 10, 6, 8));
        shards.push_back(syntheticShard(7, 10, 8, 10));
        return shards;
    };
    auto sorted = build();
    const auto reference = shard::mergeShards(std::move(sorted));
    ASSERT_TRUE(reference.ok());

    // Every rotation and the full reversal must merge identically.
    for (size_t rot = 1; rot < 4; ++rot) {
        auto rotated = build();
        std::rotate(rotated.begin(), rotated.begin() + rot,
                    rotated.end());
        const auto merged = shard::mergeShards(std::move(rotated));
        ASSERT_TRUE(merged.ok());
        EXPECT_TRUE(snapshot::diffAttackResults(*reference, *merged)
                        .empty())
            << "rotation " << rot;
    }
    auto reversed = build();
    std::reverse(reversed.begin(), reversed.end());
    const auto merged = shard::mergeShards(std::move(reversed));
    ASSERT_TRUE(merged.ok());
    EXPECT_TRUE(
        snapshot::diffAttackResults(*reference, *merged).empty());
}

// ----------------------------------------------------------- partial merge

shard::MergePolicy
partialPolicy()
{
    shard::MergePolicy policy;
    policy.allowPartial = true;
    return policy;
}

TEST(PartialMerge, CoverageGapBecomesMissingRange)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 3));
    shards.push_back(syntheticShard(1, 8, 5, 8));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    EXPECT_TRUE(report->partial());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 3u);
    EXPECT_EQ(report->missing[0].end, 5u);
    EXPECT_FALSE(report->exact); // no success before the hole
    EXPECT_EQ(report->result.attempts, 6u);
    EXPECT_EQ(report->campaignFingerprint, 1u);
    EXPECT_EQ(report->totalTrials, 8u);
}

TEST(PartialMerge, TailHoleIsReported)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 4u);
    EXPECT_EQ(report->missing[0].end, 8u);
}

TEST(PartialMerge, NonTerminalShardBecomesItsWholeRangeAsHole)
{
    // An abandoned worker's partial artifact contributes nothing: its
    // WHOLE range is a hole, so a resumed sweep finishes it from the
    // checkpoint and a re-merge cannot double-count its prefix.
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    attack::RangeRecord cut = syntheticShard(1, 8, 4, 8);
    cut.outcomes.resize(2);
    cut.terminal = false;
    shards.push_back(std::move(cut));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 4u);
    EXPECT_EQ(report->missing[0].end, 8u);
    EXPECT_EQ(report->result.attempts, 4u);
}

TEST(PartialMerge, NonTerminalCompleteShardIsStillAHole)
{
    // terminal=false with a full outcome vector (killed between the
    // last trial and the final save): the flag alone decides.
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    attack::RangeRecord cut = syntheticShard(1, 8, 4, 8);
    cut.terminal = false;
    shards.push_back(std::move(cut));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 4u);
}

TEST(PartialMerge, NonTerminalShardIsBusyInStrictMode)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    attack::RangeRecord cut = syntheticShard(1, 8, 4, 8);
    cut.terminal = false;
    shards.push_back(std::move(cut));
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::Busy);
}

TEST(PartialMerge, AdjacentHolesCoalesce)
{
    // A gap [2, 4) flows straight into a non-terminal shard's range
    // [4, 6): one hole [2, 6), not two.
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 2));
    attack::RangeRecord cut = syntheticShard(1, 8, 4, 6);
    cut.terminal = false;
    shards.push_back(std::move(cut));
    shards.push_back(syntheticShard(1, 8, 6, 8));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 2u);
    EXPECT_EQ(report->missing[0].end, 6u);
}

TEST(PartialMerge, ExactWhenSuccessPrecedesTheFirstHole)
{
    // The campaign succeeded at trial 2, so the sequential run never
    // reaches the hole at [4, 8): the degraded fold IS the canonical
    // result, and must equal the strict merge of a tiling set.
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4, /*success_at=*/2));
    auto degraded =
        shard::mergeShards({shards[0]}, partialPolicy());
    ASSERT_TRUE(degraded.ok()) << base::errorName(degraded.error());
    EXPECT_TRUE(degraded->partial());
    EXPECT_TRUE(degraded->exact);

    shards.push_back(syntheticShard(1, 8, 4, 8));
    const auto full = shard::mergeShards(std::move(shards));
    ASSERT_TRUE(full.ok());
    EXPECT_TRUE(snapshot::diffAttackResults(degraded->result, *full)
                    .empty());
}

TEST(PartialMerge, NotExactWhenSuccessFollowsTheFirstHole)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 2));
    shards.push_back(syntheticShard(1, 8, 4, 8, /*success_at=*/5));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 2u);
    // A hole precedes the success: the real campaign might have
    // succeeded inside [2, 4) first, so this fold is not canonical.
    EXPECT_FALSE(report->exact);
}

TEST(PartialMerge, FullTilingIsExactAndNotPartial)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(1, 8, 4, 8));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    EXPECT_FALSE(report->partial());
    EXPECT_TRUE(report->exact);
    EXPECT_TRUE(report->missing.empty());
}

TEST(PartialMerge, DuplicatesAreStillRejected)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(1, 8, 0, 4));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error(), base::ErrorCode::Exists);
}

TEST(PartialMerge, OverlapsAreStillRejected)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 5));
    shards.push_back(syntheticShard(1, 8, 3, 8));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error(), base::ErrorCode::Exists);
}

TEST(PartialMerge, ForeignFingerprintIsStillRejected)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(2, 8, 4, 8));
    const auto report =
        shard::mergeShards(std::move(shards), partialPolicy());
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error(), base::ErrorCode::InvalidArgument);
}

TEST(PartialMerge, EmptyInputIsStillInvalid)
{
    const auto report =
        shard::mergeShards({}, partialPolicy());
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error(), base::ErrorCode::InvalidArgument);
}

TEST(ShardArtifact, TerminalFlagRoundTrips)
{
    const std::string path = ::testing::TempDir() + "shard_term.bin";
    attack::RangeRecord cut = syntheticShard(1, 8, 4, 8);
    cut.outcomes.resize(2);
    cut.terminal = false;
    ASSERT_TRUE(attack::saveRangeRecord(path, cut).ok());
    const auto loaded = attack::loadRangeRecord(path);
    ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
    EXPECT_FALSE(loaded->terminal);
    EXPECT_FALSE(loaded->complete());
}

// ------------------------------------------------------- identity matrix

sys::SystemConfig
hostConfig(uint64_t seed, bool faulted)
{
    sys::SystemConfig cfg =
        sys::SystemConfig::s1(seed).withMemory(1_GiB);
    // Milder than the resume-identity matrix's 0.5: at 0.5 most
    // seeds lose profiling to injected faults and the cell turns
    // vacuous (no bits, nothing to shard). 0.35 keeps faults firing
    // during trials while most seeds still profile.
    if (faulted)
        cfg = cfg.withFaults(
            fault::FaultPlan::randomized(seed * 31 + 7, 0.35));
    // Denser weak cells so profiling finds bits in a 1 GiB host.
    cfg.dram.fault.weakCellsPerRow *= 4.0;
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
attackConfig(unsigned attempts)
{
    attack::AttackConfig cfg;
    cfg.maxAttempts = attempts;
    cfg.steering.exhaustMappings = 2'500;
    return cfg;
}

class SweepIdentityMatrix
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>>
{
};

// The ISSUE 7 acceptance sweep. Trials are pure functions of
// (campaign, trial index), so one attack object can serve as every
// "process": runTrialRange(begin, end) recomputes exactly what an
// independent OS process computes for that range (tools/hh_sweep and
// the sweep-identity CI leg prove the actual multi-process spelling;
// this matrix proves the algebra for 8 seeds x shard/thread shapes).
TEST_P(SweepIdentityMatrix, ShardedMergeEqualsSingleProcess)
{
    const uint64_t seed = std::get<0>(GetParam());
    const bool faulted = std::get<1>(GetParam());
    constexpr unsigned kAttempts = 4;

    sys::HostSystem host(hostConfig(seed, faulted));
    attack::HyperHammerAttack attack(host, vmConfig(),
                                     host.dram().mapping(),
                                     attackConfig(kAttempts));
    attack.profilePhase();
    if (attack.hostProfile().empty())
        GTEST_SKIP() << "no exploitable bits at seed " << seed;

    const attack::AttackResult reference = attack.runAttempts(
        kAttempts, 1, snapshot::CheckpointPolicy{});
    const uint64_t fingerprint = attack.campaignFingerprint();

    for (const unsigned shard_count : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 4u}) {
            std::vector<attack::RangeRecord> shards;
            for (const shard::ShardRange &range :
                 shard::planShards(kAttempts, shard_count)) {
                attack::TrialRangeResult ranged =
                    attack.runTrialRange(range.begin, range.end,
                                         threads,
                                         snapshot::CheckpointPolicy{});
                ASSERT_FALSE(ranged.stopped);
                attack::RangeRecord one;
                one.campaignFingerprint = fingerprint;
                one.totalTrials = kAttempts;
                one.begin = range.begin;
                one.end = range.end;
                one.outcomes = std::move(ranged.outcomes);
                shards.push_back(std::move(one));
            }
            const auto merged = shard::mergeShards(std::move(shards));
            ASSERT_TRUE(merged.ok())
                << base::errorName(merged.error());
            const std::vector<std::string> mismatches =
                snapshot::diffAttackResults(reference, *merged);
            std::string joined;
            for (const std::string &field : mismatches)
                joined += " " + field;
            EXPECT_TRUE(mismatches.empty())
                << "seed " << seed << (faulted ? " faulted" : "")
                << ", " << shard_count << " shard(s) x " << threads
                << " thread(s): mismatched fields:" << joined;
        }
    }
}

// A shard that is stopped mid-range (the simulated SIGKILL hook),
// resumed from its range record by a fresh attack object -- a
// stand-in for a fresh OS process -- and merged from the records both
// ranges left on disk must leave no trace in the result.
TEST_P(SweepIdentityMatrix, KilledAndResumedShardMergesIdentically)
{
    const uint64_t seed = std::get<0>(GetParam());
    const bool faulted = std::get<1>(GetParam());
    constexpr unsigned kAttempts = 4;
    const sys::SystemConfig cfg = hostConfig(seed, faulted);

    sys::HostSystem host(cfg);
    attack::HyperHammerAttack attack(host, vmConfig(),
                                     host.dram().mapping(),
                                     attackConfig(kAttempts));
    attack.profilePhase();
    if (attack.hostProfile().empty())
        GTEST_SKIP() << "no exploitable bits at seed " << seed;

    const attack::AttackResult reference = attack.runAttempts(
        kAttempts, 1, snapshot::CheckpointPolicy{});
    const auto ranges = shard::planShards(kAttempts, 2);
    const std::string stem = ::testing::TempDir() + "shard_kill_s" +
        std::to_string(seed) + (faulted ? "_f" : "");
    const std::string paths[2] = {stem + "_0.bin", stem + "_1.bin"};
    for (const std::string &path : paths) {
        std::remove(path.c_str());
        std::remove((path + snapshot::kCheckpointPrevSuffix).c_str());
    }

    // Shard 0 runs to completion in the "first process".
    snapshot::CheckpointPolicy straight;
    straight.path = paths[0];
    ASSERT_FALSE(attack.runTrialRange(ranges[0].begin, ranges[0].end,
                                      1, straight)
                     .stopped);

    // Shard 1 is killed after one trial...
    snapshot::CheckpointPolicy killer;
    killer.path = paths[1];
    killer.everyTrials = 1;
    killer.stopAfterTrials = 1;
    attack::TrialRangeResult cut = attack.runTrialRange(
        ranges[1].begin, ranges[1].end, 1, killer);
    // When the range's very first trial succeeded, the shard finished
    // before the kill point; its record still has to merge
    // identically.
    if (cut.stopped) {
        ASSERT_LT(cut.outcomes.size(), ranges[1].size());

        // ...and resumed by a fresh attack object over a fresh host
        // (the "second process" re-derives the identical profile from
        // the same configuration).
        sys::HostSystem host2(cfg);
        attack::HyperHammerAttack attack2(host2, vmConfig(),
                                          host2.dram().mapping(),
                                          attackConfig(kAttempts));
        attack2.profilePhase();
        ASSERT_EQ(attack2.campaignFingerprint(),
                  attack.campaignFingerprint());
        snapshot::CheckpointPolicy resumer;
        resumer.path = paths[1];
        resumer.everyTrials = 1;
        resumer.resume = true;
        attack::TrialRangeResult ranged = attack2.runTrialRange(
            ranges[1].begin, ranges[1].end, 1, resumer);
        ASSERT_FALSE(ranged.stopped);
        EXPECT_GT(ranged.resumedTrials, 0u);
    }

    std::vector<attack::RangeRecord> shards;
    for (const std::string &path : paths) {
        auto loaded = attack::loadRangeRecord(path);
        ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
        shards.push_back(std::move(*loaded));
    }
    const auto merged = shard::mergeShards(std::move(shards));
    ASSERT_TRUE(merged.ok()) << base::errorName(merged.error());
    const std::vector<std::string> mismatches =
        snapshot::diffAttackResults(reference, *merged);
    std::string joined;
    for (const std::string &field : mismatches)
        joined += " " + field;
    EXPECT_TRUE(mismatches.empty())
        << "seed " << seed << (faulted ? " faulted" : "")
        << ": mismatched fields:" << joined;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SweepIdentityMatrix,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                         8u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, bool>>
           &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
            (std::get<1>(info.param) ? "_faulted" : "_clean");
    });

} // namespace
} // namespace hh
