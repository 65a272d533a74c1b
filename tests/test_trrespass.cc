/**
 * @file
 * Tests of the TRRespass-style pattern finder (Section 5.1): on
 * TRR-less DIMMs the minimal effective pattern is the single-sided
 * two-row pair the paper uses; with a TRR sampler, only patterns
 * exceeding the tracker capacity flip.
 */

#include <gtest/gtest.h>

#include <memory>

#include "analysis/trrespass.h"
#include "base/sim_clock.h"

namespace hh::analysis {
namespace {

std::unique_ptr<dram::DramSystem>
makeDram(dram::TrrConfig trr, base::SimClock &clock, uint64_t seed = 3)
{
    dram::DramConfig cfg;
    cfg.totalBytes = 512_MiB;
    cfg.seed = seed;
    cfg.fault.weakCellsPerRow = 0.05; // dense: quick trials
    cfg.fault.stableFraction = 1.0;
    cfg.fault.minThreshold = 50'000;
    cfg.fault.maxThreshold = 150'000;
    cfg.trr = trr;
    return std::make_unique<dram::DramSystem>(cfg, clock);
}

TEST(Trrespass, NoTrrMeansOneOrTwoRowsSuffice)
{
    base::SimClock clock;
    auto dram = makeDram(dram::TrrConfig{}, clock);
    TrrespassConfig cfg;
    cfg.maxAggressorRows = 4;
    Trrespass finder(*dram, cfg);
    const TrrespassResult result = finder.run();
    ASSERT_TRUE(result.foundPattern());
    EXPECT_LE(result.effectiveAggressorRows, 2u);
    EXPECT_GT(result.flips, 0u);
}

TEST(Trrespass, TrrRaisesTheRequiredPatternSize)
{
    base::SimClock clock;
    auto dram = makeDram(dram::TrrConfig{true}, clock);
    TrrespassConfig cfg;
    cfg.maxAggressorRows = 10;
    cfg.trialsPerSize = 32;
    Trrespass finder(*dram, cfg);
    const TrrespassResult result = finder.run();
    ASSERT_TRUE(result.foundPattern());
    // Patterns within the tracker capacity cannot flip anything.
    EXPECT_GT(result.effectiveAggressorRows, dram::kTrrTrackerCapacity);
    for (unsigned size = 1; size <= dram::kTrrTrackerCapacity; ++size)
        EXPECT_EQ(result.flipsBySize[size], 0u);
}

TEST(Trrespass, FlipsBySizeShapeWithoutTrr)
{
    base::SimClock clock;
    auto dram = makeDram(dram::TrrConfig{}, clock);
    TrrespassConfig cfg;
    cfg.maxAggressorRows = 6;
    Trrespass finder(*dram, cfg);
    const TrrespassResult result = finder.run();
    ASSERT_EQ(result.flipsBySize.size(), 7u);
    // More aggressor rows reach more victim rows: cumulative flips
    // must not be concentrated at the top only.
    uint64_t total = 0;
    for (uint64_t flips : result.flipsBySize)
        total += flips;
    EXPECT_GT(total, result.flipsBySize[6]);
}

TEST(Trrespass, TryPatternReportsFlips)
{
    base::SimClock clock;
    auto dram = makeDram(dram::TrrConfig{}, clock);
    Trrespass finder(*dram, TrrespassConfig{});
    uint64_t flips = 0;
    for (int trial = 0; trial < 40 && flips == 0; ++trial)
        flips = finder.tryPattern(2);
    EXPECT_GT(flips, 0u);
}

} // namespace
} // namespace hh::analysis
