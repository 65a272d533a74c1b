/**
 * @file
 * Tests of the Rowhammer fault model: determinism, density and
 * property distributions, and agreement between the cheap rowIsWeak()
 * gate and the full generator.
 */

#include <gtest/gtest.h>

#include "dram/fault_model.h"

namespace hh::dram {
namespace {

FaultModelConfig
denseConfig()
{
    FaultModelConfig cfg;
    cfg.weakCellsPerRow = 0.01;
    cfg.stableFraction = 0.4;
    cfg.oneToZeroFraction = 0.6;
    cfg.minThreshold = 50'000;
    cfg.maxThreshold = 150'000;
    return cfg;
}

TEST(FaultModel, Deterministic)
{
    const FaultModel a(denseConfig(), 42, 8192);
    const FaultModel b(denseConfig(), 42, 8192);
    for (RowId row = 0; row < 2'000; ++row) {
        const auto cells_a = a.weakCellsInRow(3, row);
        const auto cells_b = b.weakCellsInRow(3, row);
        ASSERT_EQ(cells_a.size(), cells_b.size());
        for (size_t i = 0; i < cells_a.size(); ++i) {
            EXPECT_EQ(cells_a[i].byteInRow, cells_b[i].byteInRow);
            EXPECT_EQ(cells_a[i].threshold, cells_b[i].threshold);
        }
    }
}

TEST(FaultModel, DifferentSeedsDiffer)
{
    const FaultModel a(denseConfig(), 1, 8192);
    const FaultModel b(denseConfig(), 2, 8192);
    unsigned same = 0;
    unsigned total = 0;
    for (RowId row = 0; row < 20'000; ++row) {
        const bool wa = a.rowIsWeak(0, row);
        const bool wb = b.rowIsWeak(0, row);
        total += wa || wb;
        same += wa && wb;
    }
    EXPECT_GT(total, 0u);
    EXPECT_LT(same, total / 4 + 2);
}

TEST(FaultModel, RowIsWeakAgreesWithGenerator)
{
    const FaultModel model(denseConfig(), 7, 8192);
    for (BankId bank = 0; bank < 8; ++bank) {
        for (RowId row = 0; row < 5'000; ++row) {
            EXPECT_EQ(model.rowIsWeak(bank, row),
                      !model.weakCellsInRow(bank, row).empty());
        }
    }
}

TEST(FaultModel, DensityMatchesConfig)
{
    const FaultModel model(denseConfig(), 11, 8192);
    uint64_t cells = 0;
    const uint64_t rows = 100'000;
    for (RowId row = 0; row < rows; ++row)
        cells += model.weakCellsInRow(1, row).size();
    const double rate = static_cast<double>(cells)
        / static_cast<double>(rows);
    // lambda + lambda^2/2 within 20 %.
    EXPECT_NEAR(rate, 0.01, 0.002);
}

TEST(FaultModel, CellPropertiesInBounds)
{
    const FaultModelConfig cfg = denseConfig();
    const FaultModel model(cfg, 13, 8192);
    unsigned one_to_zero = 0;
    unsigned stable = 0;
    unsigned total = 0;
    for (RowId row = 0; row < 300'000 && total < 2'000; ++row) {
        for (const WeakCell &cell : model.weakCellsInRow(2, row)) {
            ++total;
            EXPECT_LT(cell.byteInRow, 8192u);
            EXPECT_LT(cell.bitInByte, 8u);
            EXPECT_GE(cell.threshold, cfg.minThreshold);
            EXPECT_LE(cell.threshold, cfg.maxThreshold);
            EXPECT_LT(cell.bitInWord(), 64u);
            EXPECT_EQ(cell.bitInWord(),
                      (cell.byteInRow % 8) * 8 + cell.bitInByte);
            one_to_zero +=
                cell.direction == FlipDirection::OneToZero;
            stable += cell.stable();
            if (!cell.stable()) {
                EXPECT_DOUBLE_EQ(cell.flipProbability,
                                 kUnstableFlipProbability);
            }
        }
    }
    ASSERT_GT(total, 500u);
    const double d = static_cast<double>(total);
    EXPECT_NEAR(one_to_zero / d, cfg.oneToZeroFraction, 0.06);
    EXPECT_NEAR(stable / d, cfg.stableFraction, 0.06);
}

TEST(FaultModel, BitPositionsRoughlyUniform)
{
    // Regression for the structured-seed bug: bit positions within the
    // word must cover the whole 0..63 range, in particular the
    // exploitable 21..33 window.
    const FaultModel model(denseConfig(), 17, 8192);
    unsigned in_window = 0;
    unsigned total = 0;
    for (RowId row = 0; row < 200'000 && total < 1'500; ++row) {
        for (const WeakCell &cell : model.weakCellsInRow(5, row)) {
            ++total;
            const unsigned bit = cell.bitInWord();
            in_window += bit >= 21 && bit <= 33;
        }
    }
    ASSERT_GT(total, 500u);
    // 13/64 = 20.3 % expected.
    EXPECT_NEAR(static_cast<double>(in_window) / total, 0.203, 0.05);
}

TEST(FaultModel, ZeroDensityHasNoCells)
{
    FaultModelConfig cfg = denseConfig();
    cfg.weakCellsPerRow = 0.0;
    const FaultModel model(cfg, 3, 8192);
    for (RowId row = 0; row < 10'000; ++row)
        EXPECT_FALSE(model.rowIsWeak(0, row));
}

TEST(FaultModel, BanksIndependent)
{
    const FaultModel model(denseConfig(), 19, 8192);
    // Weak rows in bank 0 should not predict bank 1.
    unsigned both = 0;
    unsigned either = 0;
    for (RowId row = 0; row < 50'000; ++row) {
        const bool a = model.rowIsWeak(0, row);
        const bool b = model.rowIsWeak(1, row);
        both += a && b;
        either += a || b;
    }
    EXPECT_GT(either, 500u);
    EXPECT_LT(both, either / 10);
}

} // namespace
} // namespace hh::dram
