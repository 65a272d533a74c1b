/**
 * @file
 * hh::dispatch unit and supervisor tests.
 *
 * Three groups. The data-plane group covers deterministic backoff,
 * the crash-safe ledger (.prev rotation, corruption, NotFound) and
 * the gap-manifest JSON round trip. The supervisor group drives real
 * fork()ed workers -- in-process lambdas standing in for hh_sweep's
 * fork+exec -- through every lifecycle edge: happy path, flaky worker
 * retry, attempt-cap quarantine with a degraded partial report,
 * hanging-worker lease reclaim, the forced-quarantine hook, and
 * ledger resume (Done revalidation, demotion of lost artifacts,
 * foreign-campaign rejection). The chaos group forces each of the
 * four dispatch.* fault sites with probability-1 plans and checks the
 * supervisor recovers to the exact merged result every time.
 *
 * Workers write synthetic range records that are pure functions of
 * their range, so retries reproduce identical bytes and every test
 * can compare the supervisor's merged result against a strict
 * in-process mergeShards of the same tiling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "dispatch/dispatch.h"
#include "dispatch/supervisor.h"
#include "dispatch/wall.h"
#include "fault/fault.h"
#include "shard/shard.h"
#include "snapshot/checkpoint_policy.h"
#include "snapshot/resume_identity.h"

namespace hh {
namespace {

constexpr uint64_t kFp = 0xabcdef0123456789ull;
constexpr uint64_t kTotal = 6;

attack::AttemptOutcome
syntheticOutcome(uint64_t trial)
{
    attack::AttemptOutcome outcome;
    outcome.success = false;
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

/** The artifact every worker (and the reference) derives from a
 *  range: a pure function, so a retried attempt rewrites the same
 *  bytes a first attempt would have. */
attack::RangeRecord
shardFor(const shard::ShardRange &range)
{
    attack::RangeRecord shard;
    shard.campaignFingerprint = kFp;
    shard.totalTrials = kTotal;
    shard.begin = range.begin;
    shard.end = range.end;
    for (uint64_t trial = range.begin; trial < range.end; ++trial)
        shard.outcomes.push_back(syntheticOutcome(trial));
    return shard;
}

std::vector<shard::ShardRange>
ranges3()
{
    return {{0, 2}, {2, 4}, {4, 6}};
}

attack::AttackResult
referenceResult()
{
    std::vector<attack::RangeRecord> shards;
    for (const shard::ShardRange &range : ranges3())
        shards.push_back(shardFor(range));
    auto merged = shard::mergeShards(std::move(shards));
    EXPECT_TRUE(merged.ok());
    return *merged;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "dispatch_" + name;
    ::mkdir(dir.c_str(), 0777); // EEXIST is fine; files are rewritten
    return dir;
}

dispatch::SupervisorConfig
testConfig(const std::string &dir)
{
    dispatch::SupervisorConfig cfg;
    cfg.ledgerPath = dir + "/ledger.bin";
    cfg.artifactDir = dir;
    cfg.pollSeconds = 0.01;
    cfg.backoff.baseMs = 1;
    cfg.backoff.capMs = 4;
    return cfg;
}

/**
 * Fork a worker whose behaviour is chosen by @p mode:
 *   "ok"        write the artifact, exit 0
 *   "flaky"     exit 1 on attempt 1, behave like "ok" after
 *   "crash"     exit 1 always
 *   "hang"      beat once, then sleep forever (attempt 1 only)
 *   "slowbeat"  beat, linger half a second, then write + exit 0
 */
dispatch::WorkerLauncher
forkWorker(const std::string &mode)
{
    return [mode](const dispatch::WorkerSpec &spec) -> long {
        const pid_t pid = ::fork();
        if (pid != 0)
            return pid;
        if (mode == "crash"
            || (mode == "flaky" && spec.attempt == 1))
            ::_exit(1);
        if (mode == "hang" && spec.attempt == 1) {
            snapshot::touchHeartbeat(spec.heartbeatPath, 0);
            for (;;)
                dispatch::sleepSeconds(0.05); // await SIGKILL
        }
        if (mode == "slowbeat") {
            snapshot::touchHeartbeat(spec.heartbeatPath,
                                     spec.range.begin);
            dispatch::sleepSeconds(0.5);
        }
        if (!attack::saveRangeRecord(spec.artifactPath,
                                     shardFor(spec.range))
                 .ok())
            ::_exit(9);
        ::_exit(0);
    };
}

// ------------------------------------------------------------- backoff

TEST(Backoff, IsAPureFunctionOfItsArguments)
{
    const dispatch::BackoffConfig cfg;
    for (uint32_t attempt = 1; attempt < 6; ++attempt) {
        const uint64_t a =
            dispatch::backoffDelayMs(kFp, 3, attempt, cfg);
        const uint64_t b =
            dispatch::backoffDelayMs(kFp, 3, attempt, cfg);
        EXPECT_EQ(a, b) << "attempt " << attempt;
    }
}

TEST(Backoff, GrowsExponentiallyAndCaps)
{
    dispatch::BackoffConfig cfg;
    cfg.baseMs = 100;
    cfg.capMs = 1'000;
    EXPECT_EQ(dispatch::backoffDelayMs(kFp, 0, 0, cfg), 0u);
    for (uint32_t attempt = 1; attempt < 64; ++attempt) {
        const uint64_t delay =
            dispatch::backoffDelayMs(kFp, 0, attempt, cfg);
        // min(cap, base * 2^(a-1)) plus jitter in [0, delay/2].
        const uint64_t core =
            std::min<uint64_t>(cfg.capMs,
                               cfg.baseMs
                                   << std::min<uint32_t>(attempt - 1,
                                                         40));
        EXPECT_GE(delay, core) << "attempt " << attempt;
        EXPECT_LE(delay, core + core / 2) << "attempt " << attempt;
    }
}

TEST(Backoff, JitterVariesAcrossShards)
{
    dispatch::BackoffConfig cfg;
    cfg.baseMs = 1'000;
    cfg.capMs = 1'000'000;
    bool varied = false;
    for (uint32_t shard = 1; shard < 16 && !varied; ++shard)
        varied = dispatch::backoffDelayMs(kFp, 0, 4, cfg)
            != dispatch::backoffDelayMs(kFp, shard, 4, cfg);
    EXPECT_TRUE(varied);
}

// -------------------------------------------------------------- ledger

dispatch::Ledger
syntheticLedger()
{
    dispatch::Ledger ledger;
    ledger.campaignFingerprint = kFp;
    ledger.totalTrials = kTotal;
    uint32_t index = 0;
    for (const shard::ShardRange &range : ranges3()) {
        dispatch::ShardJob job;
        job.index = index++;
        job.range = range;
        ledger.jobs.push_back(job);
    }
    ledger.jobs[0].state = dispatch::ShardState::Done;
    ledger.jobs[1].state = dispatch::ShardState::Retrying;
    ledger.jobs[1].attempts = 2;
    ledger.jobs[1].lastFailure = dispatch::kFailureLeaseExpired;
    return ledger;
}

TEST(Ledger, SaveLoadRoundTrips)
{
    const std::string path =
        freshDir("ledger_rt") + "/ledger.bin";
    const dispatch::Ledger ledger = syntheticLedger();
    ASSERT_TRUE(dispatch::saveLedger(path, ledger).ok());
    const auto loaded = dispatch::loadLedger(path);
    ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
    EXPECT_EQ(loaded->campaignFingerprint, kFp);
    EXPECT_EQ(loaded->totalTrials, kTotal);
    ASSERT_EQ(loaded->jobs.size(), 3u);
    EXPECT_EQ(loaded->jobs[0].state, dispatch::ShardState::Done);
    EXPECT_EQ(loaded->jobs[1].state, dispatch::ShardState::Retrying);
    EXPECT_EQ(loaded->jobs[1].attempts, 2u);
    EXPECT_EQ(loaded->jobs[1].lastFailure,
              dispatch::kFailureLeaseExpired);
    EXPECT_EQ(loaded->jobs[2].range.end, 6u);
    EXPECT_FALSE(loaded->settled());
    EXPECT_EQ(loaded->quarantined(), 0u);
}

TEST(Ledger, PrevRotationSurvivesACorruptPrimary)
{
    const std::string path =
        freshDir("ledger_prev") + "/ledger.bin";
    dispatch::Ledger ledger = syntheticLedger();
    ASSERT_TRUE(dispatch::saveLedger(path, ledger).ok());
    ledger.jobs[1].state = dispatch::ShardState::Done;
    ASSERT_TRUE(dispatch::saveLedger(path, ledger).ok());
    // Tear the primary mid-write; the rotation's .prev must answer.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "torn";
    }
    const auto loaded = dispatch::loadLedger(path);
    ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
    // The .prev holds the FIRST save (one generation old).
    EXPECT_EQ(loaded->jobs[1].state, dispatch::ShardState::Retrying);
}

TEST(Ledger, MissingBothFilesIsNotFound)
{
    const auto loaded = dispatch::loadLedger(
        freshDir("ledger_none") + "/ledger.bin");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error(), base::ErrorCode::NotFound);
}

// -------------------------------------------------------- gap manifest

TEST(GapManifest, SaveLoadRoundTrips)
{
    const std::string path =
        freshDir("gaps_rt") + "/gaps.json";
    dispatch::GapManifest manifest;
    manifest.campaignFingerprint = kFp;
    manifest.totalTrials = 64;
    manifest.campaign.trials = 64;
    manifest.campaign.threads = 4;
    manifest.campaign.seed = 7;
    manifest.campaign.hostGib = 2;
    manifest.campaign.faultSeed = 11;
    manifest.campaign.faultIntensity = 0.35;
    manifest.campaign.checkpointEvery = 3;
    manifest.artifacts = {"out/shard_0.bin", "out/shard_2.bin"};
    manifest.missing = {{8, 16}, {24, 32}};
    ASSERT_TRUE(dispatch::saveGapManifest(path, manifest).ok());
    const auto loaded = dispatch::loadGapManifest(path);
    ASSERT_TRUE(loaded.ok()) << base::errorName(loaded.error());
    EXPECT_EQ(loaded->campaignFingerprint, kFp);
    EXPECT_EQ(loaded->totalTrials, 64u);
    EXPECT_EQ(loaded->campaign.trials, 64u);
    EXPECT_EQ(loaded->campaign.threads, 4u);
    EXPECT_EQ(loaded->campaign.seed, 7u);
    EXPECT_EQ(loaded->campaign.hostGib, 2u);
    EXPECT_EQ(loaded->campaign.faultSeed, 11u);
    EXPECT_DOUBLE_EQ(loaded->campaign.faultIntensity, 0.35);
    EXPECT_EQ(loaded->campaign.checkpointEvery, 3u);
    ASSERT_EQ(loaded->artifacts.size(), 2u);
    EXPECT_EQ(loaded->artifacts[1], "out/shard_2.bin");
    ASSERT_EQ(loaded->missing.size(), 2u);
    EXPECT_EQ(loaded->missing[0].begin, 8u);
    EXPECT_EQ(loaded->missing[1].end, 32u);
}

TEST(GapManifest, GarbageIsRejected)
{
    const std::string path =
        freshDir("gaps_bad") + "/gaps.json";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "not a manifest";
    }
    EXPECT_FALSE(dispatch::loadGapManifest(path).ok());
}

TEST(GapManifest, MissingFileIsAnError)
{
    EXPECT_FALSE(dispatch::loadGapManifest(
                     freshDir("gaps_none") + "/gaps.json")
                     .ok());
}

TEST(Heartbeat, TouchAndReadRoundTrip)
{
    const std::string path =
        freshDir("hb") + "/worker.hb";
    std::remove(path.c_str()); // earlier runs share TempDir
    EXPECT_EQ(dispatch::readHeartbeat(path), "");
    snapshot::touchHeartbeat(path, 41);
    const std::string first = dispatch::readHeartbeat(path);
    EXPECT_NE(first, "");
    snapshot::touchHeartbeat(path, 42);
    EXPECT_NE(dispatch::readHeartbeat(path), first);
}

// ---------------------------------------------------------- supervisor

void
expectExactResult(const shard::SweepReport &report)
{
    EXPECT_FALSE(report.partial());
    EXPECT_TRUE(report.exact);
    const std::vector<std::string> mismatches =
        snapshot::diffAttackResults(referenceResult(), report.result);
    std::string joined;
    for (const std::string &field : mismatches)
        joined += " " + field;
    EXPECT_TRUE(mismatches.empty()) << "mismatched:" << joined;
}

TEST(Supervisor, HappyPathMergesEveryShard)
{
    dispatch::Supervisor sup(testConfig(freshDir("happy")),
                             forkWorker("ok"));
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_TRUE(sup.ledger().settled());
    EXPECT_EQ(sup.ledger().quarantined(), 0u);
    EXPECT_EQ(sup.stats().launches, 3u);
    EXPECT_EQ(sup.stats().retries, 0u);
    for (const dispatch::ShardJob &job : sup.ledger().jobs) {
        EXPECT_EQ(job.state, dispatch::ShardState::Done);
        EXPECT_EQ(job.attempts, 1u);
    }
}

TEST(Supervisor, FlakyWorkersAreRetriedToSuccess)
{
    dispatch::Supervisor sup(testConfig(freshDir("flaky")),
                             forkWorker("flaky"));
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_EQ(sup.stats().retries, 3u);
    EXPECT_EQ(sup.stats().launches, 6u);
    for (const dispatch::ShardJob &job : sup.ledger().jobs)
        EXPECT_EQ(job.attempts, 2u);
}

TEST(Supervisor, AttemptCapQuarantinesAndReportsTheHole)
{
    dispatch::SupervisorConfig cfg = testConfig(freshDir("quar"));
    cfg.maxAttempts = 2;
    // Shard 1 always crashes; the others are healthy.
    dispatch::Supervisor sup(
        cfg, [](const dispatch::WorkerSpec &spec) -> long {
            return forkWorker(spec.shardIndex == 1 ? "crash"
                                                   : "ok")(spec);
        });
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    EXPECT_TRUE(report->partial());
    EXPECT_FALSE(report->exact);
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 2u);
    EXPECT_EQ(report->missing[0].end, 4u);
    EXPECT_EQ(report->result.attempts, 4u);
    EXPECT_EQ(sup.ledger().quarantined(), 1u);
    EXPECT_EQ(sup.stats().quarantines, 1u);
    const dispatch::ShardJob &bad = sup.ledger().jobs[1];
    EXPECT_EQ(bad.state, dispatch::ShardState::Quarantined);
    EXPECT_EQ(bad.attempts, 2u);
    EXPECT_GT(bad.lastFailure, 0); // a real wait status, not a code
}

TEST(Supervisor, HangingWorkerLeaseIsReclaimed)
{
    dispatch::SupervisorConfig cfg = testConfig(freshDir("hang"));
    cfg.leaseSeconds = 0.3;
    // Only shard 0 hangs (on its first attempt).
    dispatch::Supervisor sup(
        cfg, [](const dispatch::WorkerSpec &spec) -> long {
            return forkWorker(spec.shardIndex == 0 ? "hang"
                                                   : "ok")(spec);
        });
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_GE(sup.stats().leaseExpiries, 1u);
    // The hole was reclaimed, relaunched and finished: success clears
    // lastFailure, and the extra attempt shows in the ledger.
    EXPECT_EQ(sup.ledger().jobs[0].lastFailure, 0);
    EXPECT_GE(sup.ledger().jobs[0].attempts, 2u);
    EXPECT_EQ(sup.ledger().jobs[0].state, dispatch::ShardState::Done);
}

TEST(Supervisor, ForceQuarantineHookExcludesTheShard)
{
    dispatch::SupervisorConfig cfg = testConfig(freshDir("force"));
    cfg.forceQuarantine = {2};
    dispatch::Supervisor sup(cfg, forkWorker("ok"));
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    EXPECT_TRUE(report->partial());
    ASSERT_EQ(report->missing.size(), 1u);
    EXPECT_EQ(report->missing[0].begin, 4u);
    EXPECT_EQ(report->missing[0].end, 6u);
    EXPECT_EQ(sup.stats().launches, 2u);
    EXPECT_EQ(sup.ledger().jobs[2].lastFailure,
              dispatch::kFailureQuarantineHook);
}

TEST(Supervisor, ResumeRevalidatesDoneWorkWithoutRelaunching)
{
    const std::string dir = freshDir("resume_done");
    {
        dispatch::Supervisor first(testConfig(dir), forkWorker("ok"));
        ASSERT_TRUE(
            first.openSweep(kFp, kTotal, ranges3(), false).ok());
        ASSERT_TRUE(first.runSweep().ok());
    }
    dispatch::Supervisor second(testConfig(dir), forkWorker("ok"));
    ASSERT_TRUE(second.openSweep(kFp, kTotal, ranges3(), true).ok());
    const auto report = second.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_EQ(second.stats().launches, 0u);
}

TEST(Supervisor, ResumeDemotesDoneJobsWithLostArtifacts)
{
    const std::string dir = freshDir("resume_lost");
    {
        dispatch::Supervisor first(testConfig(dir), forkWorker("ok"));
        ASSERT_TRUE(
            first.openSweep(kFp, kTotal, ranges3(), false).ok());
        ASSERT_TRUE(first.runSweep().ok());
        std::remove(first.artifactPath(1).c_str());
    }
    dispatch::Supervisor second(testConfig(dir), forkWorker("ok"));
    ASSERT_TRUE(second.openSweep(kFp, kTotal, ranges3(), true).ok());
    const auto report = second.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_EQ(second.stats().launches, 1u);
}

TEST(Supervisor, ResumeReclaimsLeasedAndRetryingJobs)
{
    // A ledger as a kill -9'd supervisor would leave it: one shard
    // Done (with its artifact), one Leased (orphaned), one Retrying.
    const std::string dir = freshDir("resume_states");
    dispatch::SupervisorConfig cfg = testConfig(dir);
    dispatch::Ledger ledger;
    ledger.campaignFingerprint = kFp;
    ledger.totalTrials = kTotal;
    uint32_t index = 0;
    for (const shard::ShardRange &range : ranges3()) {
        dispatch::ShardJob job;
        job.index = index++;
        job.range = range;
        ledger.jobs.push_back(job);
    }
    ledger.jobs[0].state = dispatch::ShardState::Done;
    ledger.jobs[0].attempts = 1;
    ledger.jobs[1].state = dispatch::ShardState::Leased;
    ledger.jobs[1].attempts = 1;
    ledger.jobs[2].state = dispatch::ShardState::Retrying;
    ledger.jobs[2].attempts = 1;
    ASSERT_TRUE(dispatch::saveLedger(cfg.ledgerPath, ledger).ok());
    ASSERT_TRUE(attack::saveRangeRecord(cfg.artifactDir + "/shard_0.bin",
                                        shardFor({0, 2}))
                    .ok());

    dispatch::Supervisor sup(cfg, forkWorker("ok"));
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), true).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_EQ(sup.stats().launches, 2u); // shard 0 was revalidated
}

TEST(Supervisor, ResumeRejectsAForeignCampaign)
{
    const std::string dir = freshDir("resume_foreign");
    dispatch::SupervisorConfig cfg = testConfig(dir);
    {
        dispatch::Supervisor first(cfg, forkWorker("ok"));
        ASSERT_TRUE(
            first.openSweep(kFp, kTotal, ranges3(), false).ok());
        ASSERT_TRUE(first.runSweep().ok());
    }
    dispatch::Supervisor second(cfg, forkWorker("ok"));
    EXPECT_FALSE(
        second.openSweep(kFp + 1, kTotal, ranges3(), true).ok());
}

TEST(Supervisor, ResumeWithoutALedgerIsAnError)
{
    dispatch::Supervisor sup(testConfig(freshDir("resume_none")),
                             forkWorker("ok"));
    EXPECT_FALSE(sup.openSweep(kFp, kTotal, ranges3(), true).ok());
}

// --------------------------------------------------------------- chaos

fault::FaultPlan
oneShot(fault::FaultSite site, fault::FaultKind kind,
        uint64_t param = 0)
{
    fault::FaultEntry entry;
    entry.site = site;
    entry.kind = kind;
    entry.count = 1;
    entry.param = param;
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.add(entry);
    return plan;
}

TEST(SupervisorChaos, SpawnFaultConsumesAnAttemptAndRetries)
{
    fault::FaultInjector injector(
        oneShot(fault::FaultSite::DispatchSpawn,
                fault::FaultKind::SpawnFail),
        1);
    dispatch::SupervisorConfig cfg = testConfig(freshDir("c_spawn"));
    cfg.injector = &injector;
    dispatch::Supervisor sup(cfg, forkWorker("ok"));
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_EQ(sup.stats().spawnFailures, 1u);
    EXPECT_EQ(sup.stats().retries, 1u);
    EXPECT_EQ(injector.totalFired(), 1u);
}

TEST(SupervisorChaos, TornArtifactIsDetectedAndRecomputed)
{
    fault::FaultInjector injector(
        oneShot(fault::FaultSite::DispatchArtifact,
                fault::FaultKind::TornArtifact, /*param=*/7),
        1);
    dispatch::SupervisorConfig cfg = testConfig(freshDir("c_torn"));
    cfg.injector = &injector;
    dispatch::Supervisor sup(cfg, forkWorker("ok"));
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_EQ(sup.stats().tornArtifacts, 1u);
    EXPECT_GE(sup.stats().retries, 1u);
}

TEST(SupervisorChaos, HeartbeatLossEatsAnObservation)
{
    fault::FaultInjector injector(
        oneShot(fault::FaultSite::DispatchHeartbeat,
                fault::FaultKind::HeartbeatLoss),
        1);
    dispatch::SupervisorConfig cfg = testConfig(freshDir("c_beat"));
    cfg.injector = &injector;
    cfg.maxParallel = 1; // serialize so the beat is surely observed
    dispatch::Supervisor sup(cfg, forkWorker("slowbeat"));
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    // The lease is long (default 30 s): losing one observation must
    // not kill a healthy worker, only widen its reclaim window.
    expectExactResult(*report);
    EXPECT_EQ(sup.stats().heartbeatLossFaults, 1u);
    EXPECT_EQ(sup.stats().leaseExpiries, 0u);
}

TEST(SupervisorChaos, SpuriousMergeBusyForcesRecollection)
{
    fault::FaultInjector injector(
        oneShot(fault::FaultSite::DispatchMerge,
                fault::FaultKind::SpuriousBusy),
        1);
    dispatch::SupervisorConfig cfg = testConfig(freshDir("c_merge"));
    cfg.injector = &injector;
    dispatch::Supervisor sup(cfg, forkWorker("ok"));
    ASSERT_TRUE(sup.openSweep(kFp, kTotal, ranges3(), false).ok());
    const auto report = sup.runSweep();
    ASSERT_TRUE(report.ok()) << base::errorName(report.error());
    expectExactResult(*report);
    EXPECT_EQ(sup.stats().mergeBusyRetries, 1u);
}

} // namespace
} // namespace hh
