/**
 * @file
 * Sharded-sweep unit and identity tests: planShards, the range
 * record's file and mergeShards.
 *
 * Two halves. The synthetic half exercises planShards, the range
 * record's file (its bytes pinned) and the merge on hand-built
 * RangeRecords: its rejections (duplicates/overlaps, fingerprint
 * mismatches) and the holes it names (gaps, a missing tail,
 * interrupted records), uneven ranges and ordering independence -- no
 * worlds are constructed, so these are fast. The SweepIdentityMatrix
 * half runs whole campaigns: for 8 seeds, with and without a
 * randomized FaultPlan, a campaign split into {1, 2, 4} shards run at
 * {1, 4} threads and merged must equal the single-process
 * runAttempts() result in every total and every outcome. It is also
 * the kill/resume matrix: a shard resumed from the records a kill
 * leaves, at 1 and 4 threads, merges to the same result, on every
 * seed and on one Siloz-defended world.
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

#include "attack/orchestrator.h"
#include "mitigate/defense.h"
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
    const auto ranges = attack::planShards(8, 4);
    ASSERT_EQ(ranges.size(), 4u);
    uint64_t expected = 0;
    for (const attack::ShardRange &range : ranges) {
        EXPECT_EQ(range.begin, expected);
        EXPECT_EQ(range.size(), 2u);
        expected = range.end;
    }
    EXPECT_EQ(expected, 8u);
}

TEST(PlanShards, UnevenSplitFrontLoadsTheRemainder)
{
    const auto ranges = attack::planShards(10, 4);
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
    const auto ranges = attack::planShards(2, 5);
    ASSERT_EQ(ranges.size(), 5u);
    EXPECT_EQ(ranges[0].size(), 1u);
    EXPECT_EQ(ranges[1].size(), 1u);
    for (size_t i = 2; i < ranges.size(); ++i)
        EXPECT_TRUE(ranges[i].empty());
    EXPECT_EQ(ranges.back().end, 2u);
}

TEST(PlanShards, ZeroCountBehavesAsOne)
{
    const auto ranges = attack::planShards(6, 0);
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0].begin, 0u);
    EXPECT_EQ(ranges[0].end, 6u);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

std::string
hexOf(const std::string &bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (const char c : bytes) {
        const auto byte = static_cast<uint8_t>(c);
        hex += kDigits[byte >> 4];
        hex += kDigits[byte & 15];
    }
    return hex;
}

void
expectSameRecord(const attack::RangeRecord &actual,
                 const attack::RangeRecord &expected)
{
    EXPECT_EQ(actual.campaignFingerprint, expected.campaignFingerprint);
    EXPECT_EQ(actual.totalTrials, expected.totalTrials);
    EXPECT_EQ(actual.begin, expected.begin);
    EXPECT_EQ(actual.end, expected.end);
    EXPECT_EQ(actual.terminal, expected.terminal);
    EXPECT_EQ(actual.outcomes, expected.outcomes);
}

/**
 * Every campaign total and every outcome of @p actual equal
 * @p expected's; a failure names the field or the outcome index.
 * resumedTrials is not compared: it says how a result was computed,
 * not what it is.
 */
void
expectSameResult(const attack::AttackResult &actual,
                 const attack::AttackResult &expected,
                 const std::string &where)
{
    EXPECT_EQ(actual.success, expected.success) << where << ": success";
    EXPECT_EQ(actual.attempts, expected.attempts)
        << where << ": attempts";
    EXPECT_EQ(actual.totalTime, expected.totalTime)
        << where << ": totalTime";
    EXPECT_STREQ(base::errorName(actual.status.error()),
                 base::errorName(expected.status.error()))
        << where << ": status";
    EXPECT_EQ(actual.degraded, expected.degraded)
        << where << ": degraded";
    EXPECT_EQ(actual.faultsInjected, expected.faultsInjected)
        << where << ": faultsInjected";
    EXPECT_EQ(actual.outcomes.size(), expected.outcomes.size())
        << where << ": outcomes.size";
    for (size_t i = 0;
         i < std::min(actual.outcomes.size(), expected.outcomes.size());
         ++i)
        EXPECT_EQ(actual.outcomes[i], expected.outcomes[i])
            << where << ": outcomes[" << i << "]";
}

TEST(ShardArtifact, SaveLoadRoundTrips)
{
    const std::string path = ::testing::TempDir() + "shard_rt.bin";
    const attack::RangeRecord shard =
        syntheticShard(0xf00d, 8, 2, 6, /*success_at=*/4);
    ASSERT_TRUE(attack::saveRangeRecord(path, shard).ok());
    const auto loaded = attack::loadRangeRecord(path);
    ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
    expectSameRecord(*loaded, shard);
    EXPECT_TRUE(loaded->complete());
}

TEST(ShardArtifact, RecordBytesArePinned)
{
    // The one layout that reaches disk, byte for byte. Every field of
    // each outcome holds a value no other field holds, so a reordered,
    // resized or re-encoded field changes the file even when writer
    // and reader change alike and the record still round-trips.
    attack::RangeRecord record;
    record.campaignFingerprint = 0x0123456789abcdefull;
    record.totalTrials = 40;
    record.begin = 16;
    record.end = 24;
    record.terminal = false;
    record.outcomes.resize(2);
    attack::AttemptOutcome &first = record.outcomes[0];
    first.success = false;
    first.bitsTargeted = 12;
    first.releasedSubBlocks = 3;
    first.demotions = 351;
    first.changedPages = 5;
    first.epteCandidates = 2;
    first.duration = 31'212'746'475;
    first.retries = 1;
    first.backoffTime = 10'000'000;
    first.faultsFired = 7;
    attack::AttemptOutcome &second = record.outcomes[1];
    second.success = true;
    second.bitsTargeted = 11;
    second.releasedSubBlocks = 4;
    second.demotions = 352;
    second.changedPages = 6;
    second.epteCandidates = 9;
    second.duration = 29'876'543'210;
    second.retries = 3;
    second.backoffTime = 30'000'000;
    second.faultsFired = 8;

    const std::string path = ::testing::TempDir() + "shard_pinned.bin";
    ASSERT_TRUE(attack::saveRangeRecord(path, record).ok());
    EXPECT_EQ(hexOf(fileBytes(path)),
              // Frame: magic, format version 10, payload length 171,
              // FNV-1a of the payload.
              "010a54504b434848" "0a000000" "ab00000000000000"
              "a6b8ea3abb2b35cd"
              // Record: fingerprint, campaign size 40, range [16, 24),
              // not terminal, 2 outcomes.
              "efcdab8967452301" "2800000000000000" "1000000000000000"
              "1800000000000000" "00" "0200000000000000"
              // Outcomes: success, bits targeted, released sub-blocks,
              // demotions, changed pages, EPTE candidates, duration,
              // retries, backoff time, faults fired.
              "00" "0c000000" "0300000000000000" "5f01000000000000"
              "0500000000000000" "0200000000000000" "ebb66c4407000000"
              "01000000" "8096980000000000" "0700000000000000"
              "01" "0b000000" "0400000000000000" "6001000000000000"
              "0600000000000000" "0900000000000000" "eadec7f406000000"
              "03000000" "80c3c90100000000" "0800000000000000");
    const auto loaded = attack::loadRangeRecord(path);
    ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
    expectSameRecord(*loaded, record);
}

TEST(ShardArtifact, TruncatedFileIsRejected)
{
    const std::string path = ::testing::TempDir() + "shard_trunc.bin";
    ASSERT_TRUE(
        attack::saveRangeRecord(path, syntheticShard(1, 4, 0, 4)).ok());
    // Chop the tail off: framing (payload length + checksum) must
    // catch it.
    std::string bytes = fileBytes(path);
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
    const auto merged = attack::mergeShards({});
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::InvalidArgument);
}

TEST(MergeShards, FingerprintMismatchIsInvalid)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(2, 8, 4, 8));
    const auto merged = attack::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::InvalidArgument);
}

TEST(MergeShards, CampaignSizeMismatchIsInvalid)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(1, 10, 4, 8));
    const auto merged = attack::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::InvalidArgument);
}

TEST(MergeShards, OverlappingRangesAreRejected)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 5));
    shards.push_back(syntheticShard(1, 8, 3, 8));
    const auto merged = attack::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::Exists);
}

TEST(MergeShards, DuplicateShardsAreRejected)
{
    // Two records claiming the same trials is corruption, not a hole:
    // an error even though [4, 8) is missing as well.
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4));
    shards.push_back(syntheticShard(1, 8, 0, 4));
    const auto merged = attack::mergeShards(std::move(shards));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error(), base::ErrorCode::Exists);
}

TEST(MergeShards, SuccessTerminatedShardMergesAndTruncates)
{
    // Shard [0, 4) succeeds at trial 2 and legally stops there; the
    // later shard ran to completion (its process cannot know). The
    // merged campaign must stop at trial 2, like a sequential run.
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4, /*success_at=*/2));
    shards.push_back(syntheticShard(1, 8, 4, 8));
    const auto merged = attack::mergeShards(std::move(shards));
    ASSERT_TRUE(merged.ok()) << base::errorName(merged.error());
    EXPECT_FALSE(merged->partial());
    EXPECT_TRUE(merged->result.success);
    EXPECT_EQ(merged->result.attempts, 3u);
    EXPECT_TRUE(merged->result.outcomes.back().success);
    EXPECT_TRUE(merged->result.status.ok());
}

TEST(MergeShards, EmptyRangesAreAccepted)
{
    // planShards(2, 5): three of the five shards are empty.
    std::vector<attack::RangeRecord> shards;
    for (const attack::ShardRange &range : attack::planShards(2, 5))
        shards.push_back(
            syntheticShard(1, 2, range.begin, range.end));
    const auto merged = attack::mergeShards(std::move(shards));
    ASSERT_TRUE(merged.ok()) << base::errorName(merged.error());
    EXPECT_FALSE(merged->partial());
    EXPECT_EQ(merged->result.attempts, 2u);
}

TEST(MergeShards, HugeCampaignSizeIsOnlyAHole)
{
    // A record's campaign size comes from its file: one that claims an
    // enormous campaign merges to a hole, and drives no allocation.
    const uint64_t huge = uint64_t{1} << 62;
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, huge, 0, 2));
    const auto report = attack::mergeShards(std::move(shards));
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 2u);
    EXPECT_EQ(report->missing[0].end, huge);
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
    const auto reference = attack::mergeShards(std::move(sorted));
    ASSERT_TRUE(reference.ok());
    EXPECT_FALSE(reference->partial());

    // Every rotation and the full reversal must merge identically.
    for (size_t rot = 1; rot < 4; ++rot) {
        auto rotated = build();
        std::rotate(rotated.begin(), rotated.begin() + rot,
                    rotated.end());
        const auto merged = attack::mergeShards(std::move(rotated));
        ASSERT_TRUE(merged.ok());
        expectSameResult(merged->result, reference->result,
                         "rotation " + std::to_string(rot));
    }
    auto reversed = build();
    std::reverse(reversed.begin(), reversed.end());
    const auto merged = attack::mergeShards(std::move(reversed));
    ASSERT_TRUE(merged.ok());
    expectSameResult(merged->result, reference->result, "reversed");
}

// ------------------------------------------------------------ merge holes

TEST(PartialMerge, CoverageGapBecomesMissingRange)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 3));
    shards.push_back(syntheticShard(1, 8, 5, 8));
    const auto report = attack::mergeShards(std::move(shards));
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
    const auto report = attack::mergeShards(std::move(shards));
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
    const auto report = attack::mergeShards(std::move(shards));
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
    const auto report = attack::mergeShards(std::move(shards));
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 4u);
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
    const auto report = attack::mergeShards(std::move(shards));
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 2u);
    EXPECT_EQ(report->missing[0].end, 6u);
}

TEST(PartialMerge, ExactWhenSuccessPrecedesTheFirstHole)
{
    // The campaign succeeded at trial 2, so the sequential run never
    // reaches the hole at [4, 8): the degraded fold IS the canonical
    // result, and must equal the merge of a tiling set.
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 4, /*success_at=*/2));
    auto degraded = attack::mergeShards({shards[0]});
    ASSERT_TRUE(degraded.ok()) << base::errorName(degraded.error());
    EXPECT_TRUE(degraded->partial());
    EXPECT_TRUE(degraded->exact);

    shards.push_back(syntheticShard(1, 8, 4, 8));
    const auto full = attack::mergeShards(std::move(shards));
    ASSERT_TRUE(full.ok());
    ASSERT_FALSE(full->partial());
    expectSameResult(degraded->result, full->result, "degraded fold");
}

TEST(PartialMerge, NotExactWhenSuccessFollowsTheFirstHole)
{
    std::vector<attack::RangeRecord> shards;
    shards.push_back(syntheticShard(1, 8, 0, 2));
    shards.push_back(syntheticShard(1, 8, 4, 8, /*success_at=*/5));
    const auto report = attack::mergeShards(std::move(shards));
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
    const auto report = attack::mergeShards(std::move(shards));
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    EXPECT_FALSE(report->partial());
    EXPECT_TRUE(report->exact);
    EXPECT_TRUE(report->missing.empty());
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
    // At intensity 0.5 most seeds lose profiling to injected faults
    // and the cell turns vacuous (no bits, nothing to shard). 0.35
    // keeps faults firing during trials while most seeds still
    // profile.
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

/** A profiled campaign on a host of its own, as one process has it. */
struct Campaign
{
    sys::HostSystem host;
    attack::HyperHammerAttack attack;

    Campaign(const sys::SystemConfig &cfg, unsigned attempts)
        : host(cfg),
          attack(host, vmConfig(), host.dram().mapping(),
                 attackConfig(attempts))
    {
        attack.profilePhase();
    }
};

class SweepIdentityMatrix
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>>
{
};

// The ISSUE 7 acceptance sweep. Trials are pure functions of
// (campaign, trial index), so one attack object can serve as every
// "process": runTrialRange(begin, end) recomputes exactly what an
// independent OS process computes for that range (tools/hh_sweep and
// the hh_sweep_resume_cycle ctest prove the multi-process spelling;
// this matrix proves the algebra for 8 seeds x shard/thread shapes).
TEST_P(SweepIdentityMatrix, ShardedMergeEqualsSingleProcess)
{
    const uint64_t seed = std::get<0>(GetParam());
    const bool faulted = std::get<1>(GetParam());
    constexpr unsigned kAttempts = 4;

    Campaign campaign(hostConfig(seed, faulted), kAttempts);
    attack::HyperHammerAttack &attack = campaign.attack;
    if (attack.hostProfile().empty())
        GTEST_SKIP() << "no exploitable bits at seed " << seed;

    const attack::AttackResult reference = attack.runAttempts(1);
    const uint64_t fingerprint = attack.campaignFingerprint();

    for (const unsigned shard_count : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 4u}) {
            std::vector<attack::RangeRecord> shards;
            for (const attack::ShardRange &range :
                 attack::planShards(kAttempts, shard_count)) {
                attack::TrialRangeResult ranged = attack.runTrialRange(
                    range.begin, range.end, threads, {});
                attack::RangeRecord one;
                one.campaignFingerprint = fingerprint;
                one.totalTrials = kAttempts;
                one.begin = range.begin;
                one.end = range.end;
                one.outcomes = std::move(ranged.outcomes);
                shards.push_back(std::move(one));
            }
            const auto merged = attack::mergeShards(std::move(shards));
            ASSERT_TRUE(merged.ok())
                << base::errorName(merged.error());
            ASSERT_FALSE(merged->partial());
            expectSameResult(merged->result, reference,
                             "seed " + std::to_string(seed)
                                 + (faulted ? " faulted, " : ", ")
                                 + std::to_string(shard_count)
                                 + " shard(s) x "
                                 + std::to_string(threads)
                                 + " thread(s)");
        }
    }
}

void
removeRecords(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + attack::kCheckpointPrevSuffix).c_str());
}

/** @p record as its writer saved it after @p trials outcomes. */
attack::RangeRecord
cutRecord(attack::RangeRecord record, uint64_t trials)
{
    record.outcomes.resize(trials);
    record.terminal = false;
    return record;
}

/**
 * The kill/resume cell of campaign @p cfg. Both shards of a 4-trial
 * campaign finish their records. Shard 1's record then becomes the
 * files a kill after its first trial leaves: the record of that trial
 * at the path, and the range-start record the writer rotated to .prev
 * (Checkpoint.EveryBlockEndLeavesItsRecord). A fresh campaign object
 * -- a stand-in for a fresh OS process -- resumes them at 1 and at 4
 * threads, and each merge of the two records must equal the
 * single-process result.
 */
void
expectKilledShardMergesIdentically(const sys::SystemConfig &cfg,
                                   const std::string &cell)
{
    constexpr unsigned kAttempts = 4;
    constexpr uint64_t kKilledAfter = 1;
    Campaign straight(cfg, kAttempts);
    if (straight.attack.hostProfile().empty())
        GTEST_SKIP() << "no exploitable bits: " << cell;
    const attack::AttackResult reference =
        straight.attack.runAttempts(1);

    const auto ranges = attack::planShards(kAttempts, 2);
    const std::string stem =
        ::testing::TempDir() + "shard_kill_" + cell;
    const std::string paths[2] = {stem + "_0.bin", stem + "_1.bin"};
    attack::CheckpointPolicy policy;
    policy.everyTrials = 1;
    for (size_t i = 0; i < 2; ++i) {
        removeRecords(paths[i]);
        policy.path = paths[i];
        (void)straight.attack.runTrialRange(ranges[i].begin,
                                            ranges[i].end, 1, policy);
    }
    const auto finished = attack::loadRangeRecord(paths[1]);
    ASSERT_TRUE(finished.ok()) << base::errorName(finished.error());
    ASSERT_GT(finished->outcomes.size(), kKilledAfter)
        << cell << ": no trial left to resume";

    Campaign fresh(cfg, kAttempts);
    ASSERT_EQ(fresh.attack.campaignFingerprint(),
              straight.attack.campaignFingerprint());
    policy.path = paths[1];
    for (const unsigned threads : {1u, 4u}) {
        const std::string where =
            cell + ", " + std::to_string(threads) + " thread(s)";
        removeRecords(paths[1]);
        ASSERT_TRUE(attack::saveRangeRecord(
                        paths[1], cutRecord(*finished, kKilledAfter - 1))
                        .ok());
        ASSERT_TRUE(attack::saveRangeRecord(
                        paths[1], cutRecord(*finished, kKilledAfter))
                        .ok());
        const attack::TrialRangeResult resumed =
            fresh.attack.runTrialRange(ranges[1].begin, ranges[1].end,
                                       threads, policy);
        EXPECT_EQ(resumed.resumedTrials, kKilledAfter) << where;

        std::vector<attack::RangeRecord> shards;
        for (const std::string &path : paths) {
            auto loaded = attack::loadRangeRecord(path);
            ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
            shards.push_back(std::move(*loaded));
        }
        const auto merged = attack::mergeShards(std::move(shards));
        ASSERT_TRUE(merged.ok()) << base::errorName(merged.error());
        ASSERT_FALSE(merged->partial()) << where;
        expectSameResult(merged->result, reference, where);
    }
    for (const std::string &path : paths)
        removeRecords(path);
}

TEST_P(SweepIdentityMatrix, KilledAndResumedShardMergesIdentically)
{
    const uint64_t seed = std::get<0>(GetParam());
    const bool faulted = std::get<1>(GetParam());
    expectKilledShardMergesIdentically(
        hostConfig(seed, faulted),
        "s" + std::to_string(seed) + (faulted ? "_faulted" : "_clean"));
}

// The same cell on a defended, faulted world: SilozDomains installs a
// multi-domain buddy layout with pinned guard rows, and every trial,
// before and after the kill, rebuilds that world from the
// configuration and its index. Seed 3's plan at intensity 0.5 still
// profiles a bit here.
TEST(SweepIdentityDefended, KilledAndResumedSilozShardMergesIdentically)
{
    sys::SystemConfig cfg = hostConfig(3, false).withFaults(
        fault::FaultPlan::randomized(3 * 31 + 7, 0.5));
    mitigate::SilozDomains().applyHostConfig(cfg);
    expectKilledShardMergesIdentically(cfg, "siloz_s3_faulted");
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
