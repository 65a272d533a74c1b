/**
 * @file
 * Rowhammer fault model: which cells are weak, and when do they flip.
 *
 * Real DIMMs have a sparse population of Rowhammer-weak cells whose
 * behaviour is fixed by manufacturing variation: each weak cell flips in
 * one direction only (1->0 or 0->1), needs a minimum number of adjacent-
 * row activations within a refresh window, and is either *stable*
 * (reproducible) or flips only sometimes (Table 1 distinguishes these).
 *
 * The simulator reproduces this with a deterministic, seed-derived map:
 * the weak cells of a (bank, row) pair are a pure function of
 * (seed, bank, row), generated lazily by hashing, so the model needs no
 * storage proportional to memory size and is identical no matter in what
 * order rows are hammered.
 */

#ifndef HYPERHAMMER_DRAM_FAULT_MODEL_H
#define HYPERHAMMER_DRAM_FAULT_MODEL_H

#include <cstdint>
#include <vector>

#include "dram/address_mapping.h"

namespace hh::dram {

/** Direction of a unidirectional Rowhammer flip. */
enum class FlipDirection : uint8_t
{
    OneToZero, ///< cell discharges: stored 1 reads back 0
    ZeroToOne, ///< cell charges: stored 0 reads back 1
};

/** One Rowhammer-weak DRAM cell. */
struct WeakCell
{
    /** Byte position of the cell within its row's per-bank data. */
    uint32_t byteInRow;
    /** Bit position within the byte (0..7). */
    uint8_t bitInByte;
    /** Only this direction of flip can occur. */
    FlipDirection direction;
    /**
     * Adjacent-row activations within one refresh window needed to
     * disturb the cell.
     */
    uint32_t threshold;
    /**
     * Probability that the cell actually flips once the threshold is
     * reached. Stable cells have 1.0.
     */
    double flipProbability;

    /** Bit index within the 64-bit word containing the cell. */
    unsigned
    bitInWord() const
    {
        return (byteInRow % 8) * 8 + bitInByte;
    }

    /** True when the cell flips on every over-threshold hammer. */
    bool stable() const { return flipProbability >= 1.0; }
};

/** Flip probability of non-stable cells. */
constexpr double kUnstableFlipProbability = 0.35;

/** Tunable parameters of the fault model. */
struct FaultModelConfig
{
    /**
     * Expected number of weak cells per (bank, row). The paper's DIMMs
     * show a few hundred flips over 12 GB of profiled memory (Table 1);
     * with 32 banks x 64 K rows that corresponds to roughly 1e-3..1e-2
     * weak cells per row once profiling reach is accounted for.
     */
    double weakCellsPerRow = 0.004;
    /** Fraction of weak cells that flip 1 -> 0 (rest flip 0 -> 1). */
    double oneToZeroFraction = 0.5;
    /** Fraction of weak cells that are stable (flipProbability = 1). */
    double stableFraction = 0.6;
    /** Minimum activation threshold of any weak cell. */
    uint32_t minThreshold = 40'000;
    /** Maximum activation threshold of any weak cell. */
    uint32_t maxThreshold = 220'000;
    /**
     * Disturbance attenuation for rows two away from an aggressor
     * (Half-Double style far-aggressor coupling); 0 disables it.
     */
    double distanceTwoFactor = 0.0;
};

/**
 * Deterministic weak-cell oracle.
 *
 * All queries are pure functions of (seed, bank, row); the class carries
 * no mutable state and is freely shareable.
 */
class FaultModel
{
  public:
    FaultModel(FaultModelConfig config, uint64_t seed,
               uint64_t row_bytes_per_bank);

    /** Weak cells of one (bank, row); typically empty. */
    std::vector<WeakCell> weakCellsInRow(BankId bank, RowId row) const;

    /**
     * Arena variant: append the weak cells of one (bank, row) to
     * @p out without clearing it. The hot hammer loop reuses one
     * scratch vector across every victim row instead of allocating a
     * fresh vector per query.
     */
    void weakCellsInRow(BankId bank, RowId row,
                        std::vector<WeakCell> &out) const;

    /** True when (bank, row) hosts at least one weak cell. */
    bool rowIsWeak(BankId bank, RowId row) const;

    /** The configuration in force. */
    const FaultModelConfig &config() const { return cfg; }

  private:
    /** Stable per-row hash stream root. */
    uint64_t rowSeed(BankId bank, RowId row) const;

    FaultModelConfig cfg;
    uint64_t seed;
    uint64_t rowBytes;
};

/**
 * Precomputed weak-row predicate, one bit per (bank, row).
 *
 * The hammer loop asks "is this row weak?" for every victim candidate;
 * hashing per query is pure but not free, and the answer never changes
 * for a given fault seed. The index evaluates the oracle once per row
 * at construction and packs the answers into a flat bitset (32 banks x
 * 64 K rows = 256 KB), which forked DramSystems share immutably --
 * compact arena storage instead of per-cell maps, and zero per-fork
 * cost.
 */
class WeakRowIndex
{
  public:
    WeakRowIndex(const FaultModel &model, unsigned bank_count,
                 uint64_t rows_per_bank);

    /** Bit probe equivalent of FaultModel::rowIsWeak. */
    bool
    isWeak(BankId bank, RowId row) const
    {
        const uint64_t idx = bank * rowsPerBankCount + row;
        return (bits[idx >> 6] >> (idx & 63)) & 1;
    }

  private:
    uint64_t rowsPerBankCount;
    std::vector<uint64_t> bits;
};

} // namespace hh::dram

#endif // HYPERHAMMER_DRAM_FAULT_MODEL_H
