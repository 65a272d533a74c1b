/**
 * @file
 * Tests of the DramSystem facade: the timing side channel, the hammer
 * path against the ground-truth fault oracle, refresh-window capping,
 * and the TRR / ECC mitigation models.
 */

#include <gtest/gtest.h>

#include <optional>

#include "base/sim_clock.h"
#include "dram/dram_system.h"

namespace hh::dram {
namespace {

DramConfig
testConfig(uint64_t seed = 5)
{
    DramConfig cfg;
    cfg.totalBytes = 256_MiB;
    cfg.mapping = AddressMapping::i3_10100();
    cfg.seed = seed;
    cfg.fault.weakCellsPerRow = 0.02; // dense for testability
    cfg.fault.stableFraction = 1.0;   // deterministic flips
    cfg.fault.minThreshold = 50'000;
    cfg.fault.maxThreshold = 150'000;
    return cfg;
}

/** First weak (bank,row) with a given direction, plus its cell. */
struct WeakSpot
{
    BankId bank;
    RowId row;
    WeakCell cell;
};

std::optional<WeakSpot>
findWeakSpot(const DramSystem &dram, FlipDirection direction,
             RowId min_row = 2)
{
    const AddressMapping &map = dram.mapping();
    const RowId max_row = (dram.size() - 1) >> map.rowLoBit();
    for (RowId row = min_row; row + 3 < max_row; ++row) {
        for (BankId bank = 0; bank < map.bankCount(); ++bank) {
            for (const WeakCell &cell :
                 dram.faultModel().weakCellsInRow(bank, row)) {
                if (cell.direction == direction && cell.stable())
                    return WeakSpot{bank, row, cell};
            }
        }
    }
    return std::nullopt;
}

/** Fill the full row stripe of a row with a pattern. */
void
fillRow(DramSystem &dram, RowId row, uint64_t pattern)
{
    const AddressMapping &map = dram.mapping();
    const uint64_t base = static_cast<uint64_t>(row) << map.rowLoBit();
    for (uint64_t off = 0; off < map.rowStripeBytes(); off += kPageSize)
        dram.backend().fillPage((base + off) / kPageSize, pattern);
}

class DramSystemTest : public ::testing::Test
{
  protected:
    base::SimClock clock;
};

TEST_F(DramSystemTest, TimedAccessLatencies)
{
    DramSystem dram(testConfig(), clock);
    const AddressMapping &map = dram.mapping();

    const HostPhysAddr a = map.address(0, 10);
    const HostPhysAddr b = map.address(0, 20); // same bank, other row
    // First access to an idle bank: row miss.
    EXPECT_EQ(dram.timedAccess(a), kRowMissLatency);
    // Same row again: hit.
    EXPECT_EQ(dram.timedAccess(a), kRowHitLatency);
    // Different row, same bank: conflict.
    EXPECT_EQ(dram.timedAccess(b), kRowConflictLatency);
    EXPECT_EQ(dram.timedAccess(a), kRowConflictLatency);
}

TEST_F(DramSystemTest, DifferentBanksDoNotConflict)
{
    DramSystem dram(testConfig(), clock);
    const AddressMapping &map = dram.mapping();
    const HostPhysAddr a = map.address(0, 10);
    const HostPhysAddr b = map.address(1, 20);
    (void)dram.timedAccess(a);
    (void)dram.timedAccess(b);
    // Both rows stay open in their banks.
    EXPECT_EQ(dram.timedAccess(a), kRowHitLatency);
    EXPECT_EQ(dram.timedAccess(b), kRowHitLatency);
}

TEST_F(DramSystemTest, AccessChargesClock)
{
    DramSystem dram(testConfig(), clock);
    const base::SimTime before = clock.now();
    (void)dram.read64(HostPhysAddr(0));
    EXPECT_GT(clock.now(), before);
}

TEST_F(DramSystemTest, HammerFlipsGroundTruthCell)
{
    DramSystem dram(testConfig(), clock);
    const auto spot = findWeakSpot(dram, FlipDirection::OneToZero);
    ASSERT_TRUE(spot.has_value());

    // Store the direction-matching value and hammer both neighbours.
    fillRow(dram, spot->row, ~0ull);
    const AddressMapping &map = dram.mapping();
    const std::vector<HostPhysAddr> aggressors{
        map.address(spot->bank, spot->row + 1),
        map.address(spot->bank, spot->row + 2)};
    const auto events = dram.hammer(aggressors, 200'000);

    bool found = false;
    for (const FlipEvent &event : events) {
        if (event.bank == spot->bank && event.row == spot->row
            && event.bitInWord == spot->cell.bitInWord()) {
            found = true;
            // The flip must be visible in memory.
            const uint64_t word = dram.backend().read64(event.wordAddr);
            EXPECT_EQ((word >> event.bitInWord) & 1, 0u);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_GT(dram.totalFlips(), 0u);
}

TEST_F(DramSystemTest, DirectionGateRespectsStoredValue)
{
    DramSystem dram(testConfig(), clock);
    const auto spot = findWeakSpot(dram, FlipDirection::OneToZero);
    ASSERT_TRUE(spot.has_value());

    // Store zeros: a 1->0 cell cannot discharge further.
    fillRow(dram, spot->row, 0ull);
    const AddressMapping &map = dram.mapping();
    const auto events = dram.hammer(
        {map.address(spot->bank, spot->row + 1),
         map.address(spot->bank, spot->row + 2)},
        200'000);
    for (const FlipEvent &event : events) {
        EXPECT_FALSE(event.bank == spot->bank && event.row == spot->row
                     && event.bitInWord == spot->cell.bitInWord());
    }
}

TEST_F(DramSystemTest, BelowThresholdNoFlips)
{
    DramSystem dram(testConfig(), clock);
    const auto spot = findWeakSpot(dram, FlipDirection::OneToZero);
    ASSERT_TRUE(spot.has_value());
    fillRow(dram, spot->row, ~0ull);
    const AddressMapping &map = dram.mapping();
    const auto events = dram.hammer(
        {map.address(spot->bank, spot->row + 1),
         map.address(spot->bank, spot->row + 2)},
        1'000); // far below minThreshold
    EXPECT_TRUE(events.empty());
}

TEST_F(DramSystemTest, AggressorRowsAreNotVictims)
{
    DramSystem dram(testConfig(), clock);
    // Find any weak row and hammer *it* together with a neighbour:
    // activated rows refresh themselves and must not flip.
    const auto spot = findWeakSpot(dram, FlipDirection::OneToZero);
    ASSERT_TRUE(spot.has_value());
    fillRow(dram, spot->row, ~0ull);
    const AddressMapping &map = dram.mapping();
    const auto events = dram.hammer(
        {map.address(spot->bank, spot->row),
         map.address(spot->bank, spot->row + 1)},
        200'000);
    for (const FlipEvent &event : events)
        EXPECT_FALSE(event.row == spot->row && event.bank == spot->bank);
}

TEST_F(DramSystemTest, RefreshWindowCapsDisturbance)
{
    // With many aggressor rows sharing the window, the per-row
    // activation budget falls below the flip threshold.
    DramConfig cfg = testConfig();
    cfg.fault.minThreshold = 700'000;
    cfg.fault.maxThreshold = 900'000;
    DramSystem dram(cfg, clock);
    const auto spot = findWeakSpot(dram, FlipDirection::OneToZero);
    ASSERT_TRUE(spot.has_value());
    fillRow(dram, spot->row, ~0ull);
    const AddressMapping &map = dram.mapping();
    // Even 10 M rounds cannot beat a 700 k threshold: one refresh
    // window fits ~680 k activations of a two-row pattern, and the
    // counters reset across windows.
    const auto events = dram.hammer(
        {map.address(spot->bank, spot->row + 1),
         map.address(spot->bank, spot->row + 2)},
        10'000'000);
    EXPECT_TRUE(events.empty());
}

TEST_F(DramSystemTest, HammerChargesRowCycles)
{
    DramSystem dram(testConfig(), clock);
    const AddressMapping &map = dram.mapping();
    const base::SimTime before = clock.now();
    (void)dram.hammer({map.address(0, 10), map.address(0, 11)},
                      100'000);
    const base::SimTime charged = clock.now() - before;
    EXPECT_EQ(charged, 2u * 100'000 * kRowCycle);
}

TEST_F(DramSystemTest, TrrBlocksSmallPatterns)
{
    DramConfig cfg = testConfig();
    cfg.trr.enabled = true;
    DramSystem dram(cfg, clock);
    const auto spot = findWeakSpot(dram, FlipDirection::OneToZero);
    ASSERT_TRUE(spot.has_value());
    fillRow(dram, spot->row, ~0ull);
    const AddressMapping &map = dram.mapping();
    const auto events = dram.hammer(
        {map.address(spot->bank, spot->row + 1),
         map.address(spot->bank, spot->row + 2)},
        200'000);
    EXPECT_TRUE(events.empty());
    EXPECT_GT(dram.trrSuppressions(), 0u);
}

TEST_F(DramSystemTest, EccSuppressesSingleBitFlips)
{
    DramConfig cfg = testConfig();
    cfg.ecc.enabled = true;
    DramSystem dram(cfg, clock);
    const auto spot = findWeakSpot(dram, FlipDirection::OneToZero);
    ASSERT_TRUE(spot.has_value());
    fillRow(dram, spot->row, ~0ull);
    const AddressMapping &map = dram.mapping();
    const auto events = dram.hammer(
        {map.address(spot->bank, spot->row + 1),
         map.address(spot->bank, spot->row + 2)},
        200'000);
    EXPECT_TRUE(events.empty());
    EXPECT_GT(dram.eccCorrectedFlips(), 0u);
}

TEST_F(DramSystemTest, ScanPageFindsFlips)
{
    DramSystem dram(testConfig(), clock);
    dram.fillPage(7, 0xff);
    dram.write64(HostPhysAddr(7 * kPageSize + 16), 0xfe);
    const auto words = dram.scanPage(7, 0xff);
    ASSERT_EQ(words.size(), 1u);
    EXPECT_EQ(words[0], 2u);
}

TEST(DramSystemDeath, ForkOfWrittenMemoryPanics)
{
    // A fork starts from empty memory; forking a device whose memory
    // holds a page would silently drop it.
    base::SimClock clock;
    DramSystem dram(testConfig(), clock);
    dram.write64(HostPhysAddr(kPageSize), 1);
    base::SimClock fork_clock;
    EXPECT_DEATH((void)DramSystem::forkFrom(dram, fork_clock),
                 "assertion");
}

TEST(EccModel, Classification)
{
    EccModel off(EccConfig{false});
    EXPECT_EQ(off.classify(1), EccOutcome::NoEcc);
    EXPECT_TRUE(off.flipsVisible(1));

    EccModel on(EccConfig{true});
    EXPECT_EQ(on.classify(1), EccOutcome::Corrected);
    EXPECT_EQ(on.classify(2), EccOutcome::Detected);
    EXPECT_EQ(on.classify(3), EccOutcome::Uncorrectable);
    EXPECT_FALSE(on.flipsVisible(1));
    EXPECT_FALSE(on.flipsVisible(2));
    EXPECT_TRUE(on.flipsVisible(3));
}

TEST(TrrModel, SuppressionRules)
{
    TrrModel trr(TrrConfig{true});
    EXPECT_TRUE(trr.suppresses(1, 0.99));
    EXPECT_TRUE(trr.suppresses(kTrrTrackerCapacity, 0.99));
    // Above capacity: probabilistic with p = capacity / aggressors.
    EXPECT_TRUE(trr.suppresses(2 * kTrrTrackerCapacity, 0.49));
    EXPECT_FALSE(trr.suppresses(2 * kTrrTrackerCapacity, 0.51));

    TrrModel disabled(TrrConfig{});
    EXPECT_FALSE(disabled.suppresses(1, 0.0));
}

} // namespace
} // namespace hh::dram
