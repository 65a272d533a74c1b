#include "fault_model.h"

#include "base/log.h"
#include "base/rng.h"

namespace hh::dram {

FaultModel::FaultModel(FaultModelConfig config, uint64_t seed,
                       uint64_t row_bytes_per_bank)
    : cfg(config), seed(seed), rowBytes(row_bytes_per_bank)
{
    HH_ASSERT(cfg.weakCellsPerRow >= 0.0);
    HH_ASSERT(cfg.minThreshold > 0);
    HH_ASSERT(cfg.maxThreshold >= cfg.minThreshold);
}

uint64_t
FaultModel::rowSeed(BankId bank, RowId row) const
{
    // (bank, row) pairs are a highly structured input set; a single
    // finalizer round leaves their outputs visibly non-uniform in the
    // top bits. Spread the inputs with odd multipliers and burn one
    // SplitMix64 round so the stream the callers draw from starts
    // decorrelated.
    uint64_t s = seed ^ (row * 0x9e3779b97f4a7c15ull)
        ^ ((static_cast<uint64_t>(bank) + 1) * 0xc2b2ae3d27d4eb4full);
    (void)base::splitMix64(s);
    return s;
}

bool
FaultModel::rowIsWeak(BankId bank, RowId row) const
{
    // The weak-cell count is sampled from the same stream the full
    // generator uses, so the two queries always agree.
    uint64_t stream = rowSeed(bank, row);
    const double u =
        static_cast<double>(base::splitMix64(stream) >> 11) * 0x1.0p-53;
    return u < cfg.weakCellsPerRow;
}

std::vector<WeakCell>
FaultModel::weakCellsInRow(BankId bank, RowId row) const
{
    std::vector<WeakCell> cells;
    weakCellsInRow(bank, row, cells);
    return cells;
}

void
FaultModel::weakCellsInRow(BankId bank, RowId row,
                           std::vector<WeakCell> &out) const
{
    // Approximate a Poisson(lambda) count for small lambda: one cell
    // with probability lambda, a second with probability lambda/2
    // (matching the first two terms of the distribution closely enough
    // for lambda << 1, which is the physical regime).
    uint64_t stream = rowSeed(bank, row);
    auto next_u = [&stream]() {
        return static_cast<double>(base::splitMix64(stream) >> 11)
            * 0x1.0p-53;
    };
    auto next_raw = [&stream]() { return base::splitMix64(stream); };

    if (next_u() >= cfg.weakCellsPerRow)
        return;
    unsigned count = 1;
    if (next_u() < cfg.weakCellsPerRow / 2.0)
        ++count;

    out.reserve(out.size() + count);
    for (unsigned i = 0; i < count; ++i) {
        WeakCell cell;
        cell.byteInRow = static_cast<uint32_t>(next_raw() % rowBytes);
        cell.bitInByte = static_cast<uint8_t>(next_raw() % 8);
        cell.direction = next_u() < cfg.oneToZeroFraction
            ? FlipDirection::OneToZero : FlipDirection::ZeroToOne;
        const double span =
            static_cast<double>(cfg.maxThreshold - cfg.minThreshold);
        cell.threshold = cfg.minThreshold
            + static_cast<uint32_t>(next_u() * span);
        cell.flipProbability = next_u() < cfg.stableFraction
            ? 1.0 : cfg.unstableFlipProbability;
        out.push_back(cell);
    }
}

WeakRowIndex::WeakRowIndex(const FaultModel &model, unsigned bank_count,
                           uint64_t rows_per_bank)
    : rowsPerBankCount(rows_per_bank)
{
    HH_ASSERT(bank_count > 0 && rows_per_bank > 0);
    bits.assign((bank_count * rows_per_bank + 63) / 64, 0);
    for (unsigned bank = 0; bank < bank_count; ++bank) {
        for (uint64_t row = 0; row < rows_per_bank; ++row) {
            if (!model.rowIsWeak(static_cast<BankId>(bank), row))
                continue;
            const uint64_t idx = bank * rows_per_bank + row;
            bits[idx >> 6] |= 1ull << (idx & 63);
        }
    }
}

} // namespace hh::dram
