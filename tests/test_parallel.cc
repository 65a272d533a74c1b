/**
 * @file
 * Tests of the parallel Monte-Carlo trial engine: the thread pool and
 * parallelFor/parallelFindFirst loops, per-stream seed derivation,
 * and the determinism contract of HyperHammerAttack::runAttempts --
 * the same root seed must produce bitwise-identical merged results at
 * 1, 2, and 8 threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "attack/orchestrator.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/thread_pool.h"

namespace hh {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob)
{
    base::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);

    // The pool is reusable after a wait().
    for (int i = 0; i < 50; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 150);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    base::ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
    EXPECT_GE(base::ThreadPool::defaultThreads(), 1u);
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> visits(1000);
        base::parallelFor(visits.size(), threads,
                          [&](uint64_t i) { ++visits[i]; });
        for (const std::atomic<int> &count : visits)
            EXPECT_EQ(count.load(), 1);
    }
}

TEST(ParallelFor, SlotWritesMatchSerialLoop)
{
    std::vector<uint64_t> serial(500), parallel(500);
    for (uint64_t i = 0; i < serial.size(); ++i)
        serial[i] = base::mix64(i, 17);
    base::parallelFor(parallel.size(), 8, [&](uint64_t i) {
        parallel[i] = base::mix64(i, 17);
    });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, PropagatesBodyExceptions)
{
    EXPECT_THROW(
        base::parallelFor(64, 4,
                          [](uint64_t i) {
                              if (i == 13)
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

TEST(ParallelFindFirst, ReturnsSmallestHitAtAnyThreadCount)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> visits(200);
        const uint64_t first = base::parallelFindFirst(
            visits.size(), threads, [&](uint64_t i) {
                ++visits[i];
                return i == 37 || i == 73;
            });
        EXPECT_EQ(first, 37u);
        // The prefix up to the hit ran exactly once; speculative
        // trials past it at most once.
        for (uint64_t i = 0; i <= first; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "index " << i;
        for (uint64_t i = first + 1; i < visits.size(); ++i)
            EXPECT_LE(visits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFindFirst, NoHitReturnsN)
{
    const uint64_t n = 100;
    EXPECT_EQ(base::parallelFindFirst(n, 4,
                                      [](uint64_t) { return false; }),
              n);
    EXPECT_EQ(base::parallelFindFirst(0, 4,
                                      [](uint64_t) { return true; }),
              0u);
}

TEST(SeedSequence, StreamsAreIndexedNotDrawn)
{
    const base::SeedSequence seq(42);
    // Pure function of (root, index): order of queries is irrelevant.
    const uint64_t s3 = seq.seed(3);
    const uint64_t s0 = seq.seed(0);
    EXPECT_EQ(seq.seed(3), s3);
    EXPECT_EQ(seq.seed(0), s0);
    EXPECT_NE(s0, s3);
    // Stream 0 is not the root itself, and different roots diverge.
    EXPECT_NE(s0, 42u);
    EXPECT_NE(base::SeedSequence(43).seed(0), s0);
    // Adjacent streams produce uncorrelated draws.
    base::Rng a = seq.stream(1);
    base::Rng b = seq.stream(2);
    unsigned same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_EQ(same, 0u);
}

// --- Orchestrator batch engine ------------------------------------

sys::SystemConfig
trialHostConfig(uint64_t seed = 42)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(seed)
        .withMemory(512_MiB);
    cfg.dram.fault.weakCellsPerRow *= 6.0;
    return cfg;
}

vm::VmConfig
trialVmConfig()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 32_MiB;
    cfg.virtioMemRegionSize = 512_MiB;
    cfg.virtioMemPlugged = 320_MiB;
    return cfg;
}

attack::AttackConfig
trialAttackConfig()
{
    attack::AttackConfig cfg;
    cfg.steering.exhaustMappings = 1'200;
    return cfg;
}

TEST(RunAttempts, BitwiseIdenticalAcrossThreadCounts)
{
    sys::HostSystem host(trialHostConfig());
    attack::HyperHammerAttack attack(host, trialVmConfig(),
                                     host.dram().mapping(),
                                     trialAttackConfig());
    (void)attack.profilePhase();
    ASSERT_GT(attack.hostProfile().size(), 0u);

    const attack::AttackResult ref = attack.runAttempts(4, 1);
    EXPECT_EQ(ref.outcomes.size(), ref.attempts);
    for (unsigned threads : {2u, 8u}) {
        const attack::AttackResult got = attack.runAttempts(4, threads);
        EXPECT_EQ(got.success, ref.success) << threads << " threads";
        EXPECT_EQ(got.attempts, ref.attempts) << threads << " threads";
        EXPECT_EQ(got.totalTime, ref.totalTime) << threads << " threads";
        EXPECT_EQ(got.outcomes, ref.outcomes) << threads << " threads";
    }
}

TEST(RunAttempts, TrialsAreIndependentSamples)
{
    sys::HostSystem host(trialHostConfig(7));
    attack::HyperHammerAttack attack(host, trialVmConfig(),
                                     host.dram().mapping(),
                                     trialAttackConfig());
    (void)attack.profilePhase();
    ASSERT_GT(attack.hostProfile().size(), 0u);

    const attack::AttackResult result = attack.runAttempts(3, 2);
    EXPECT_GE(result.attempts, 1u);
    EXPECT_LE(result.attempts, 3u);
    EXPECT_EQ(result.outcomes.size(), result.attempts);
    // Every trial pays its own VM spawn on its own cloned host.
    for (const attack::AttemptOutcome &outcome : result.outcomes)
        EXPECT_GT(outcome.duration, 10 * base::kSecond);
    // Aggregate time is the sum of per-trial durations.
    base::SimTime total = 0;
    for (const attack::AttemptOutcome &outcome : result.outcomes)
        total += outcome.duration;
    EXPECT_EQ(result.totalTime, total);
    // Success, if any, terminates the batch exactly there.
    for (size_t i = 0; i < result.outcomes.size(); ++i) {
        EXPECT_EQ(result.outcomes[i].success,
                  result.success && i + 1 == result.outcomes.size());
    }
}

} // namespace
} // namespace hh
