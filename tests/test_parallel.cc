/**
 * @file
 * Tests of the parallel Monte-Carlo trial engine: the thread pool and
 * parallelFor/parallelFindFirst loops, per-stream seed derivation,
 * mergeable statistics, and the determinism contract of
 * HyperHammerAttack::runAttempts -- the same root seed must produce
 * bitwise-identical merged results at 1, 2, and 8 threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "attack/orchestrator.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/stats.h"
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

TEST(RunningStats, MergeMatchesSequentialAdds)
{
    base::RunningStats whole, left, right;
    base::Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.gaussian(5.0, 2.0);
        whole.add(x);
        (i < 400 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    // Sums agree up to float non-associativity (split vs one chain).
    EXPECT_NEAR(left.sum(), whole.sum(), 1e-9 * std::abs(whole.sum()));
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmptySides)
{
    base::RunningStats filled, empty;
    filled.add(1.0);
    filled.add(3.0);

    base::RunningStats copy = filled;
    copy.merge(empty); // no-op
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_DOUBLE_EQ(copy.mean(), 2.0);

    empty.merge(filled); // adopt
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
    EXPECT_DOUBLE_EQ(empty.min(), 1.0);
    EXPECT_DOUBLE_EQ(empty.max(), 3.0);
}

TEST(Histogram, MergeSumsBucketsExactly)
{
    base::Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
    a.add(1.5);
    a.add(-1.0); // underflow
    b.add(1.7);
    b.add(25.0); // overflow
    b.add(9.9);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_EQ(a.bucket(1), 2u);
    EXPECT_EQ(a.bucket(9), 1u);
    EXPECT_EQ(a.underflowCount(), 1u);
    EXPECT_EQ(a.overflowCount(), 1u);
}

TEST(Series, MergeAppendsPoints)
{
    base::Series a("a"), b("b");
    a.add(1.0, 2.0);
    b.add(3.0, 4.0);
    b.add(5.0, 6.0);
    a.merge(b);
    ASSERT_EQ(a.data().size(), 3u);
    EXPECT_EQ(a.data()[1].x, 3.0);
    EXPECT_EQ(a.data()[2].y, 6.0);
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

void
expectSameOutcome(const attack::AttemptOutcome &a,
                  const attack::AttemptOutcome &b, size_t index)
{
    EXPECT_EQ(a.success, b.success) << "attempt " << index;
    EXPECT_EQ(a.bitsTargeted, b.bitsTargeted) << "attempt " << index;
    EXPECT_EQ(a.releasedSubBlocks, b.releasedSubBlocks)
        << "attempt " << index;
    EXPECT_EQ(a.demotions, b.demotions) << "attempt " << index;
    EXPECT_EQ(a.changedPages, b.changedPages) << "attempt " << index;
    EXPECT_EQ(a.epteCandidates, b.epteCandidates)
        << "attempt " << index;
    EXPECT_EQ(a.duration, b.duration) << "attempt " << index;
}

void
expectSameStats(const base::RunningStats &a, const base::RunningStats &b)
{
    // Bitwise-identical, not just close: the merge sequence must not
    // depend on the thread count.
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
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
        ASSERT_EQ(got.outcomes.size(), ref.outcomes.size());
        for (size_t i = 0; i < ref.outcomes.size(); ++i)
            expectSameOutcome(got.outcomes[i], ref.outcomes[i], i);
        expectSameStats(got.stats.attemptSeconds,
                        ref.stats.attemptSeconds);
        expectSameStats(got.stats.bitsTargeted, ref.stats.bitsTargeted);
        expectSameStats(got.stats.releasedSubBlocks,
                        ref.stats.releasedSubBlocks);
        expectSameStats(got.stats.demotions, ref.stats.demotions);
        expectSameStats(got.stats.changedPages, ref.stats.changedPages);
        expectSameStats(got.stats.epteCandidates,
                        ref.stats.epteCandidates);
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
    EXPECT_EQ(result.stats.attemptSeconds.count(), result.attempts);
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
