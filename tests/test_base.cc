/**
 * @file
 * Unit tests for hh::base: bit operations, RNG, clock, status types and
 * the Series sampler.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/bitops.h"
#include "base/rng.h"
#include "base/sim_clock.h"
#include "base/stats.h"
#include "base/status.h"
#include "base/types.h"

namespace hh::base {
namespace {

TEST(Bitops, BitAndBits)
{
    EXPECT_EQ(bit(0b1010, 1), 1u);
    EXPECT_EQ(bit(0b1010, 0), 0u);
    EXPECT_EQ(bits(0xabcd, 15, 8), 0xabu);
    EXPECT_EQ(bits(0xabcd, 7, 0), 0xcdu);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

TEST(Bitops, SetAndFlip)
{
    EXPECT_EQ(setBit(0, 5, true), 32u);
    EXPECT_EQ(setBit(32, 5, false), 0u);
    EXPECT_EQ(flipBit(0, 5), 32u);
    EXPECT_EQ(flipBit(32, 5), 0u);
}

TEST(Bitops, XorFoldAndMaskParity)
{
    // Bits 6 and 13 of 0x2040 are both set: parity 0.
    EXPECT_EQ(xorFold(0x2040, {6, 13}), 0u);
    EXPECT_EQ(xorFold(0x0040, {6, 13}), 1u);
    EXPECT_EQ(maskParity(0x2040, (1ull << 6) | (1ull << 13)), 0u);
    EXPECT_EQ(maskParity(0x0040, (1ull << 6) | (1ull << 13)), 1u);
}

TEST(Bitops, Log2Helpers)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(16_GiB), 34u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(16_GiB), 34u);
}

TEST(Bitops, PowerOfTwoAndAlign)
{
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_EQ(alignUp(1, 4096), 4096u);
    EXPECT_EQ(alignUp(4096, 4096), 4096u);
    EXPECT_EQ(alignDown(4097, 4096), 4096u);
}

TEST(TypedAddr, PageArithmetic)
{
    HostPhysAddr addr(0x20'1234);
    EXPECT_EQ(addr.pfn(), 0x201u);
    EXPECT_EQ(addr.pageOffset(), 0x234u);
    EXPECT_EQ(addr.pageBase().value(), 0x20'1000u);
    EXPECT_EQ(addr.hugePageBase().value(), 0x20'0000u);
    EXPECT_EQ(addr.hugePageOffset(), 0x1234u);
    EXPECT_FALSE(addr.pageAligned());
    EXPECT_TRUE(addr.pageBase().pageAligned());
    EXPECT_TRUE(addr.hugePageBase().hugePageAligned());
}

TEST(TypedAddr, ArithmeticAndComparison)
{
    GuestPhysAddr a(100);
    GuestPhysAddr b = a + 28;
    EXPECT_EQ(b.value(), 128u);
    EXPECT_EQ(b - a, 28u);
    EXPECT_LT(a, b);
    a += 28;
    EXPECT_EQ(a, b);
}

TEST(Rng, Deterministic)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(7);
    Rng b(8);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng rng(1);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowRoughlyUniform)
{
    Rng rng(2);
    std::vector<int> counts(8, 0);
    const int n = 80'000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.below(8)];
    for (int c : counts) {
        EXPECT_GT(c, n / 8 - 800);
        EXPECT_LT(c, n / 8 + 800);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        // hh-lint: allow(float-accumulation) -- fixed-order serial sum
        sum += u;
    }
    EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(0.0));
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    rng.shuffle(v);
    std::set<int> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), 8u);
}

TEST(Rng, ForkIndependent)
{
    Rng a(6);
    Rng child = a.fork();
    EXPECT_NE(a(), child());
}

TEST(Rng, MixStructuredInputsUniform)
{
    // Regression test for the fault-model seeding bug: the minimum of
    // many draws over a structured (bank, row) grid must reach the
    // small values a uniform distribution produces.
    double min_u = 1.0;
    for (uint64_t row = 0; row < 2048; ++row) {
        for (uint64_t bank = 0; bank < 32; ++bank) {
            uint64_t s = 12345 ^ (row * 0x9e3779b97f4a7c15ull)
                ^ ((bank + 1) * 0xc2b2ae3d27d4eb4full);
            (void)splitMix64(s);
            const double u =
                static_cast<double>(splitMix64(s) >> 11) * 0x1.0p-53;
            min_u = std::min(min_u, u);
        }
    }
    EXPECT_LT(min_u, 1.0 / 4000);
}

TEST(SimClock, AdvanceAndFormat)
{
    SimClock clock;
    EXPECT_EQ(clock.now(), 0u);
    clock.advance(90 * kSecond);
    EXPECT_EQ(clock.now(), 90 * kSecond);
    EXPECT_EQ(SimClock::format(90 * kSecond), "1.5 min");
    EXPECT_EQ(SimClock::format(36 * kHour), "1.5 d");
    EXPECT_EQ(SimClock::format(500), "500 ns");
    EXPECT_EQ(SimClock::format(2 * kMillisecond), "2.00 ms");
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
}

TEST(SimClock, ScopedTimer)
{
    SimClock clock;
    SimTime elapsed = 0;
    {
        ScopedTimer timer(clock, elapsed);
        clock.advance(123);
    }
    EXPECT_EQ(elapsed, 123u);
}

TEST(Status, OkAndError)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    Status bad(ErrorCode::NoMemory);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error(), ErrorCode::NoMemory);
    EXPECT_STREQ(errorName(ErrorCode::NoMemory), "NoMemory");
    EXPECT_STREQ(errorName(ErrorCode::Denied), "Denied");
}

TEST(Expected, ValueAndError)
{
    Expected<int> good(42);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(*good, 42);
    EXPECT_EQ(good.valueOr(0), 42);

    Expected<int> bad(ErrorCode::NotFound);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error(), ErrorCode::NotFound);
    EXPECT_EQ(bad.valueOr(-1), -1);
}

TEST(Series, AppendAndRead)
{
    Series series("noise");
    EXPECT_TRUE(series.empty());
    series.add(1.0, 2.0);
    series.add(2.0, 1.0);
    EXPECT_EQ(series.name(), "noise");
    ASSERT_EQ(series.data().size(), 2u);
    EXPECT_DOUBLE_EQ(series.data()[1].y, 1.0);
}

TEST(SizeLiterals, Values)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024);
    EXPECT_EQ(2_GiB, 2ull << 30);
    EXPECT_EQ(kPagesPerHugePage, 512u);
}

// --- pinned test vectors ---------------------------------------------------
//
// Every stochastic subsystem derives its streams from splitMix64 /
// mix64 / SeedSequence, so these constants pin the whole simulator's
// random universe: a change here silently invalidates every golden
// trace and every stored range record. If one of these tests fails,
// the generator changed -- re-baseline tests/golden/ and bump
// kSnapshotFormatVersion, or revert.

TEST(RngVectors, SplitMix64Pinned)
{
    uint64_t s = 0;
    EXPECT_EQ(splitMix64(s), 0xe220a8397b1dcdafull);
    EXPECT_EQ(splitMix64(s), 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(splitMix64(s), 0x06c45d188009454full);
    uint64_t s42 = 42;
    EXPECT_EQ(splitMix64(s42), 0xbdd732262feb6e95ull);
}

TEST(RngVectors, Mix64Pinned)
{
    EXPECT_EQ(mix64(0, 0), 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(mix64(1, 2), 0xa3efbcce2e044f84ull);
    EXPECT_EQ(mix64(2, 1), 0x88a32f63162d1170ull); // not commutative
    EXPECT_EQ(mix64(42, 7), 0x0dad47f980930d86ull);
}

TEST(RngVectors, SeedSequencePinned)
{
    constexpr SeedSequence seq(42);
    EXPECT_EQ(seq.seed(0), 0xd7b58b9fb835aee9ull);
    EXPECT_EQ(seq.seed(1), 0xc1749176f9c9caa6ull);
    EXPECT_EQ(seq.seed(1'000'000), 0xccd82fc90f034fb6ull);
}

TEST(RngVectors, Xoshiro256StarStarPinned)
{
    Rng rng(42);
    EXPECT_EQ(rng(), 0x15780b2e0c2ec716ull);
    EXPECT_EQ(rng(), 0x6104d9866d113a7eull);
    EXPECT_EQ(rng(), 0xae17533239e499a1ull);
}

} // namespace
} // namespace hh::base
