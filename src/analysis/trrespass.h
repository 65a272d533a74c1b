/**
 * @file
 * TRRespass-style hammer-pattern search (Section 5.1; Frigo et al.,
 * S&P'20).
 *
 * Before attacking, the paper runs TRRespass to find a pattern that
 * produces reproducible flips on the target DIMMs; on their parts a
 * single-sided two-row pattern suffices. The finder sweeps the number
 * of simultaneous same-bank aggressor rows upward until flips appear,
 * which also characterises any in-DRAM TRR: a tracker of capacity C
 * blocks patterns with <= C rows per bank.
 */

#ifndef HYPERHAMMER_ANALYSIS_TRRESPASS_H
#define HYPERHAMMER_ANALYSIS_TRRESPASS_H

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "dram/dram_system.h"

namespace hh::analysis {

/** Pattern-search tunables. */
struct TrrespassConfig
{
    /** Largest n-sided pattern tried. */
    unsigned maxAggressorRows = 12;
    /** Hammer rounds per trial. */
    uint64_t rounds = 250'000;
    /** Trials per pattern size (different random placements). */
    unsigned trialsPerSize = 24;
    uint64_t seed = 0x7e5;
};

/** Result of the sweep. */
struct TrrespassResult
{
    /**
     * Smallest number of same-bank aggressor rows that produced at
     * least one flip; 0 when nothing flipped up to the maximum.
     */
    unsigned effectiveAggressorRows = 0;
    /** Flips observed at that size across all trials. */
    uint64_t flips = 0;
    /** Flips observed per pattern size (index 1..max). */
    std::vector<uint64_t> flipsBySize;

    bool foundPattern() const { return effectiveAggressorRows != 0; }
};

/**
 * Sweeps pattern sizes against a DramSystem the tester controls.
 */
class Trrespass
{
  public:
    Trrespass(dram::DramSystem &dram, TrrespassConfig config);

    /** Run the sweep. */
    TrrespassResult run();

    /**
     * Hammer one n-sided pattern at a random location: n aggressor
     * rows in one bank, spaced two rows apart (victims in between and
     * beyond). Returns flips produced.
     */
    uint64_t tryPattern(unsigned aggressor_rows);

  private:
    dram::DramSystem &dram;
    TrrespassConfig cfg;
    base::Rng rng;
};

} // namespace hh::analysis

#endif // HYPERHAMMER_ANALYSIS_TRRESPASS_H
