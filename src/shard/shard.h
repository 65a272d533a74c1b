/**
 * @file
 * Sharded campaign sweeps: split a Monte-Carlo campaign of N trials
 * into contiguous seed-range shards, run each shard in an independent
 * OS process, and merge the shard artifacts back into the canonical
 * AttackResult.
 *
 * The identity guarantee rests on three facts, each owned elsewhere:
 * trials are pure functions of (campaign fingerprint, trial index)
 * (PR 2), `runTrialRange` executes any contiguous range at absolute
 * indices with full checkpoint/resume support (orchestrator), and
 * `aggregateOutcomes` folds an outcome prefix in trial order (the one
 * sanctioned merge). The on-disk hand-off is the range record
 * runTrialRange writes (attack::RangeRecord, binding a range's
 * outcomes to its campaign); this layer only adds the merge that
 * validates the records tile [0, N) before concatenating them in
 * trial order. The merged result is bitwise-identical to a
 * single-process `runAttempts(N)` at any shard count x thread count,
 * including under fault plans and kill+resume of individual shards
 * (docs/distributed_sweeps.md).
 */

#ifndef HYPERHAMMER_SHARD_SHARD_H
#define HYPERHAMMER_SHARD_SHARD_H

#include <cstdint>
#include <vector>

#include "attack/orchestrator.h"
#include "base/status.h"

namespace hh::shard {

/** A contiguous, half-open range of absolute trial indices. */
struct ShardRange
{
    uint64_t begin = 0;
    uint64_t end = 0;

    uint64_t size() const { return end - begin; }
    bool empty() const { return begin == end; }
};

/**
 * Split @p total_trials into @p count contiguous near-even ranges:
 * the first (total % count) shards get one extra trial. Ranges tile
 * [0, total_trials) in order; with count > total_trials the surplus
 * shards come back empty (begin == end), which merge accepts. count
 * of 0 is treated as 1.
 */
std::vector<ShardRange> planShards(uint64_t total_trials,
                                   unsigned count);

/**
 * The sanctioned shard merge. Validates that the shards belong to one
 * campaign and tile [0, totalTrials) exactly, concatenates their
 * outcomes in trial order, and hands the prefix to
 * attack::HyperHammerAttack::aggregateOutcomes -- so the result is
 * the same pure function of the outcome sequence a single-process
 * run computes.
 *
 * Rejections, by Status:
 *  - InvalidArgument: no shards; fingerprint or totalTrials mismatch
 *    between shards; a record inconsistent with itself or the
 *    campaign.
 *  - Exists: duplicate or overlapping ranges.
 *  - NotFound: a gap in coverage (a shard artifact is missing).
 *  - Busy: a shard is incomplete or non-terminal (interrupted;
 *    resume it first).
 *
 * Input order is irrelevant: shards are sorted by range before
 * validation, so any arrival order merges identically.
 */
[[nodiscard]] base::Expected<attack::AttackResult>
mergeShards(std::vector<attack::RangeRecord> shards);

/** How the reporting merge treats holes in the tiling. */
struct MergePolicy
{
    /**
     * Fold whatever healthy subset is present instead of rejecting on
     * gaps: missing, incomplete and non-terminal ranges land in
     * SweepReport::missing rather than producing NotFound/Busy.
     * Adversarial inputs (duplicates, overlaps, foreign fingerprints,
     * inconsistent records) are still typed rejections in either mode.
     */
    bool allowPartial = false;
};

/**
 * Product of the reporting merge: the folded result plus exactly which
 * trial ranges did not contribute. `exact` says whether the result is
 * already the canonical full-campaign result -- true when nothing is
 * missing, or when the folded prefix reaches a success before the
 * first hole (aggregateOutcomes truncates there, so trials past it
 * can never influence the canonical result).
 */
struct SweepReport
{
    attack::AttackResult result;
    uint64_t campaignFingerprint = 0;
    uint64_t totalTrials = 0;
    /** Uncovered ranges, sorted and coalesced; empty when complete. */
    std::vector<ShardRange> missing;
    /** True when `result` equals the canonical full-campaign result. */
    bool exact = false;

    /** At least one range is missing (the sweep ran degraded). */
    bool partial() const { return !missing.empty(); }
};

/**
 * The reporting merge behind mergeShards(). With
 * policy.allowPartial == false it enforces the exact-tiling contract
 * (the strict overload forwards here); with allowPartial == true a
 * sweep with holes (a missing, unfinished or failed range) folds
 * degraded, and rerunning the same `hh_sweep sweep` later closes
 * SweepReport::missing and re-merges to the bitwise-identical full
 * result.
 */
[[nodiscard]] base::Expected<SweepReport>
mergeShards(std::vector<attack::RangeRecord> shards,
            const MergePolicy &policy);

} // namespace hh::shard

#endif // HYPERHAMMER_SHARD_SHARD_H
