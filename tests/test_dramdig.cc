/**
 * @file
 * Tests of the DRAMDig-style bank-function recovery (Section 5.1):
 * timing-based conflict detection, GF(2) basis reduction, and full
 * recovery of both paper CPUs' functions from the simulated timing
 * side channel.
 */

#include <gtest/gtest.h>

#include <memory>

#include "analysis/dramdig.h"
#include "base/sim_clock.h"

namespace hh::analysis {
namespace {

std::unique_ptr<dram::DramSystem>
makeDram(dram::AddressMapping mapping, base::SimClock &clock)
{
    dram::DramConfig cfg;
    cfg.totalBytes = 1_GiB;
    cfg.mapping = std::move(mapping);
    cfg.fault.weakCellsPerRow = 0;
    return std::make_unique<dram::DramSystem>(cfg, clock);
}

TEST(GF2, ReduceToBasisDropsDependentMasks)
{
    const uint64_t a = (1ull << 6) | (1ull << 13);
    const uint64_t b = (1ull << 14) | (1ull << 18);
    const std::vector<uint64_t> masks{a, b, a ^ b, a, b ^ a};
    const auto basis = DramDig::reduceToBasis(masks);
    ASSERT_EQ(basis.size(), 2u);
    EXPECT_TRUE(DramDig::sameSpan(basis, {a, b}));
}

TEST(GF2, ReduceToBasisPrefersLowWeight)
{
    const uint64_t a = (1ull << 6) | (1ull << 13);
    const uint64_t b = (1ull << 14) | (1ull << 18);
    // Offer the heavy combination first; the light generators win.
    const std::vector<uint64_t> masks{a ^ b, a, b};
    const auto basis = DramDig::reduceToBasis(masks);
    ASSERT_EQ(basis.size(), 2u);
    EXPECT_EQ(std::popcount(basis[0]), 2);
    EXPECT_EQ(std::popcount(basis[1]), 2);
}

TEST(GF2, SameSpanDetectsEquivalence)
{
    const uint64_t a = 0b0110;
    const uint64_t b = 0b1010;
    EXPECT_TRUE(DramDig::sameSpan({a, b}, {a ^ b, b}));
    EXPECT_FALSE(DramDig::sameSpan({a}, {a, b}));
    EXPECT_FALSE(DramDig::sameSpan({a, b}, {a, 0b0001}));
    EXPECT_TRUE(DramDig::sameSpan({}, {}));
}

TEST(DramDig, ConflictDetection)
{
    base::SimClock clock;
    auto dram = makeDram(dram::AddressMapping::i3_10100(), clock);
    DramDig dig(*dram, DramDigConfig{});

    const dram::AddressMapping &map = dram->mapping();
    // Construct a same-bank different-row pair and a different-bank
    // pair from ground truth.
    const HostPhysAddr row10 = map.address(3, 10);
    EXPECT_TRUE(dig.conflicts(row10, map.address(3, 99)));

    const HostPhysAddr other_bank(
        row10.value()
        ^ (1ull << map.interleaveShift())); // different bank class
    ASSERT_NE(map.bankOf(row10), map.bankOf(other_bank));
    EXPECT_FALSE(dig.conflicts(row10, other_bank));
}

class DramDigRecovery
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(DramDigRecovery, RecoversConfiguredFunction)
{
    base::SimClock clock;
    const std::string name = GetParam();
    dram::AddressMapping mapping = name == "i3"
        ? dram::AddressMapping::i3_10100()
        : name == "xeon" ? dram::AddressMapping::xeonE3_2124()
                         : dram::AddressMapping::linear(5);
    auto dram_sys = makeDram(mapping, clock);

    DramDigConfig cfg;
    cfg.seed = 0xabc;
    DramDig dig(*dram_sys, cfg);
    const DramDigResult result = dig.run();
    ASSERT_TRUE(result.recovered());
    EXPECT_EQ(result.bankMasks.size(), mapping.bankMasks().size());
    EXPECT_TRUE(
        DramDig::sameSpan(result.bankMasks, mapping.bankMasks()))
        << "recovered function spans a different space";
    EXPECT_GT(result.timedAccesses, 0u);
    EXPECT_GT(result.latencyThreshold, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Mappings, DramDigRecovery,
                         ::testing::Values("i3", "xeon", "linear"));

TEST(DramDig, RecoveredFunctionPreservedByThp)
{
    // The attack's prerequisite check: the recovered function must
    // only use THP-preserved bits (Section 5.1).
    base::SimClock clock;
    auto dram_sys = makeDram(dram::AddressMapping::i3_10100(), clock);
    DramDig dig(*dram_sys, DramDigConfig{});
    const DramDigResult result = dig.run();
    ASSERT_TRUE(result.recovered());
    const dram::AddressMapping recovered(result.bankMasks, 18, 33);
    EXPECT_TRUE(recovered.bankBitsPreservedBy(21));
}

} // namespace
} // namespace hh::analysis
