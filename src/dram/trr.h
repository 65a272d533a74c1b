/**
 * @file
 * Target Row Refresh (TRR) model.
 *
 * Production DDR4 parts ship an in-DRAM sampler that tracks frequently
 * activated rows and refreshes their neighbours, defeating naive
 * patterns. TRRespass showed the trackers have small capacity: patterns
 * with more simultaneous aggressor rows than the tracker can follow slip
 * through. The paper's DIMMs flip under single-sided patterns found with
 * TRRespass, so the evaluation configs keep TRR disabled; the model
 * exists for the mitigation ablation (bench_countermeasure) and tests.
 */

#ifndef HYPERHAMMER_DRAM_TRR_H
#define HYPERHAMMER_DRAM_TRR_H

#include <cstdint>
#include <vector>

#include "dram/address_mapping.h"

namespace hh::dram {

/**
 * Number of distinct aggressor rows (per bank, per refresh window) the
 * sampler can track. Patterns using at most this many rows in a bank
 * are fully mitigated.
 */
constexpr unsigned kTrrTrackerCapacity = 4;

/** TRR configuration. */
struct TrrConfig
{
    /** Master switch; disabled reproduces the paper's DIMMs. */
    bool enabled = false;
};

/**
 * Evaluates which aggressor rows of a hammer burst are neutralised by
 * TRR. Stateless apart from configuration; the caller supplies
 * randomness so system-level determinism is preserved. When the
 * pattern exceeds the tracker, each aggressor still gets sampled with
 * probability capacity / aggressors; a sampled aggressor's neighbours
 * are refreshed and take no disturbance in that window.
 */
class TrrModel
{
  public:
    explicit TrrModel(TrrConfig config) : cfg(config) {}

    const TrrConfig &config() const { return cfg; }

    /**
     * Given the number of distinct aggressor rows hammered in one bank
     * during one refresh window, decide per aggressor whether its
     * disturbance is suppressed.
     *
     * @param aggressors_in_bank distinct aggressor rows in the bank
     * @param uniform_draw       caller-supplied uniform [0,1) variate
     *                           for this aggressor
     * @return true when the aggressor's neighbours were TRR-refreshed
     */
    bool
    suppresses(unsigned aggressors_in_bank, double uniform_draw) const
    {
        if (!cfg.enabled)
            return false;
        if (aggressors_in_bank <= kTrrTrackerCapacity)
            return true;
        const double p = static_cast<double>(kTrrTrackerCapacity)
            / static_cast<double>(aggressors_in_bank);
        return uniform_draw < p;
    }

  private:
    TrrConfig cfg;
};

} // namespace hh::dram

#endif // HYPERHAMMER_DRAM_TRR_H
