/**
 * @file
 * Tests for the static-analysis layer itself: the hh-lint rule
 * fixtures, the tools' command-line contracts, and runtime smoke
 * tests of the annotated Mutex/CondVar/ThreadPool primitives the
 * Clang thread-safety leg reasons about. The zero-findings gates on
 * the real tree and hh-analyze's fixture self-test are their own
 * ctests (hh_lint, hh_analyze, hh_analyze_selftest in
 * tests/CMakeLists.txt).
 *
 * The thread-safety *compile-fail* check lives in tests/CMakeLists.txt
 * (try_compile over tests/static_analysis/, Clang only): a negative
 * compile test cannot be expressed inside a googletest binary.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/container_util.h"
#include "base/log.h"
#include "base/mutex.h"
#include "base/parallel.h"
#include "base/thread_annotations.h"
#include "base/thread_pool.h"

#ifndef HH_REPO_ROOT
#error "tests/CMakeLists.txt must define HH_REPO_ROOT"
#endif
#ifndef HH_PYTHON
#error "tests/CMakeLists.txt must define HH_PYTHON"
#endif

namespace {

using hh::base::CondVar;
using hh::base::Mutex;
using hh::base::MutexLock;
using hh::base::ThreadPool;

int
runTool(const std::string &tool, const std::string &args)
{
    const std::string cmd = std::string(HH_PYTHON) + " " + HH_REPO_ROOT
        + "/tools/" + tool + " " + args;
    const int raw = std::system(cmd.c_str());
    if (raw == -1 || !WIFEXITED(raw))
        return -1;
    return WEXITSTATUS(raw);
}

int
runCommand(const std::string &args)
{
    return runTool("hh_lint.py", args);
}

int
runAnalyze(const std::string &args)
{
    // The builtin frontend is hermetic (no libclang).
    return runTool("hh_analyze.py", "--frontend=builtin " + args);
}

// Every rule must fire exactly where its fixture's `// expect:`
// markers say, no rule may be fixture-less, and justified waivers
// must suppress (tests/lint_fixtures/waiver_ok.cc).
TEST(HhLint, SelfTestFixturesFireEveryRule)
{
    EXPECT_EQ(0, runCommand(std::string("--self-test ") + HH_REPO_ROOT
                            + "/tests/lint_fixtures"));
}

TEST(HhLint, ListRulesExits0)
{
    EXPECT_EQ(0, runCommand("--list-rules"));
}

TEST(HhAnalyze, ListRulesExits0)
{
    EXPECT_EQ(0, runAnalyze("--list-rules"));
}

// A bogus --build-dir must be a usage error (exit 2) for the clang
// frontend, not a silent fallback; the builtin frontend ignores it.
TEST(HhAnalyze, MissingCompileCommandsIsAUsageError)
{
    const int code = runTool(
        "hh_analyze.py",
        "--frontend=clang --build-dir /nonexistent-build-dir "
        "2>/dev/null");
    EXPECT_EQ(2, code);
}

// The annotation macros must be inert decoration at runtime: a
// guarded struct behaves like the plain one on every compiler.
TEST(ThreadAnnotations, MacrosCompileAway)
{
    struct Guarded
    {
        Mutex mutex;
        int value HH_GUARDED_BY(mutex) = 0;
    };
    Guarded guarded;
    {
        MutexLock lock(guarded.mutex);
        guarded.value = 41;
        ++guarded.value;
    }
    MutexLock lock(guarded.mutex);
    EXPECT_EQ(42, guarded.value);
}

// Mutex actually excludes: N threads hammering one guarded counter
// must not lose an increment (under TSan this also proves the wrapper
// maps onto a real std::mutex).
TEST(MutexSmoke, GuardedCounterIsExact)
{
    constexpr int kThreads = 4;
    constexpr int kIncrements = 2'000;
    Mutex mutex;
    int counter = 0;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                MutexLock lock(mutex);
                ++counter;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    MutexLock lock(mutex);
    EXPECT_EQ(kThreads * kIncrements, counter);
}

// CondVar round-trip: consumer waits for a guarded flag, producer
// flips it; the REQUIRES(mutex) contract matches std::condition_variable.
TEST(MutexSmoke, CondVarHandshake)
{
    Mutex mutex;
    CondVar ready;
    bool go = false;
    int observed = 0;

    std::thread consumer([&] {
        MutexLock lock(mutex);
        while (!go)
            ready.wait(mutex);
        observed = 1;
    });
    {
        MutexLock lock(mutex);
        go = true;
    }
    ready.notifyAll();
    consumer.join();
    EXPECT_EQ(1, observed);
}

// The pool's annotated queue state survives churn: interleaved
// submit/wait cycles with jobs that themselves contend on a mutex.
TEST(MutexSmoke, ThreadPoolQuiescesUnderContention)
{
    ThreadPool pool(4);
    Mutex mutex;
    int done = 0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 64; ++i) {
            pool.submit([&] {
                MutexLock lock(mutex);
                ++done;
            });
        }
        pool.wait();
    }
    MutexLock lock(mutex);
    EXPECT_EQ(3 * 64, done);
}

// Concurrent logging: the warning counter is exact and the process
// does not interleave mid-line (crash/TSan-checked; content goes to
// stderr, which gtest leaves alone).
TEST(LoggerSmoke, ConcurrentWarningsAreCounted)
{
    auto &logger = hh::base::Logger::get();
    const auto before = logger.warningCount();
    const auto threshold = logger.getThreshold();
    logger.setThreshold(hh::base::LogLevel::Error); // silence the spam
    constexpr int kThreads = 4;
    constexpr int kWarnings = 250;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kWarnings; ++i)
                hh::base::warn("lint-smoke warning %d", i);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    logger.setThreshold(threshold);
    EXPECT_EQ(before + kThreads * kWarnings, logger.warningCount());
}

// sortedKeys: the sanctioned deterministic view is sorted and
// complete regardless of hash order.
TEST(ContainerUtil, SortedViewsAreDeterministic)
{
    std::unordered_map<uint64_t, int> table;
    std::unordered_set<uint64_t> members;
    for (uint64_t key : {9ull, 2ull, 7ull, 4ull}) {
        table[key] = static_cast<int>(key * 10);
        members.insert(key);
    }
    const std::vector<uint64_t> want{2, 4, 7, 9};
    EXPECT_EQ(want, hh::base::sortedKeys(table));
    EXPECT_EQ(want, hh::base::sortedKeys(members));
}

} // namespace
