#include "shard.h"

#include <algorithm>

namespace hh::shard {

std::vector<ShardRange>
planShards(uint64_t total_trials, unsigned count)
{
    if (count == 0)
        count = 1;
    std::vector<ShardRange> ranges;
    ranges.reserve(count);
    const uint64_t base = total_trials / count;
    const uint64_t extra = total_trials % count;
    uint64_t begin = 0;
    for (unsigned i = 0; i < count; ++i) {
        const uint64_t size = base + (i < extra ? 1 : 0);
        ranges.push_back(ShardRange{begin, begin + size});
        begin += size;
    }
    return ranges;
}

namespace {

/** Append a hole, coalescing with an adjacent predecessor. */
void
addMissing(std::vector<ShardRange> &missing, ShardRange hole)
{
    if (!missing.empty() && missing.back().end == hole.begin) {
        missing.back().end = hole.end;
        return;
    }
    missing.push_back(hole);
}

} // namespace

base::Expected<attack::AttackResult>
mergeShards(std::vector<attack::RangeRecord> shards)
{
    auto report = mergeShards(std::move(shards), MergePolicy{});
    if (!report)
        return report.error();
    return std::move(report->result);
}

base::Expected<SweepReport>
mergeShards(std::vector<attack::RangeRecord> shards,
            const MergePolicy &policy)
{
    if (shards.empty())
        return base::ErrorCode::InvalidArgument;
    for (const attack::RangeRecord &shard : shards) {
        if (!shard.consistent())
            return base::ErrorCode::InvalidArgument;
        if (shard.campaignFingerprint
                != shards.front().campaignFingerprint
            || shard.totalTrials != shards.front().totalTrials)
            return base::ErrorCode::InvalidArgument;
    }

    // Canonical order: any arrival order merges identically.
    std::sort(shards.begin(), shards.end(),
              [](const attack::RangeRecord &a,
                 const attack::RangeRecord &b) {
                  if (a.begin != b.begin)
                      return a.begin < b.begin;
                  return a.end < b.end;
              });

    const uint64_t total = shards.front().totalTrials;

    // Adversarial inputs reject identically in both modes: two
    // artifacts claiming the same trials is corruption, not a hole a
    // resumed sweep could close.
    uint64_t covered = 0;
    for (const attack::RangeRecord &shard : shards) {
        if (shard.begin < covered)
            return base::ErrorCode::Exists; // duplicate / overlap
        if (!policy.allowPartial && shard.begin > covered)
            return base::ErrorCode::NotFound; // coverage gap
        covered = std::max(covered, shard.end);
    }
    if (!policy.allowPartial && covered != total)
        return base::ErrorCode::NotFound; // missing tail shard

    if (!policy.allowPartial) {
        for (const attack::RangeRecord &shard : shards) {
            if (!shard.complete() || !shard.terminal)
                return base::ErrorCode::Busy; // interrupted; resume
        }
    }

    // Fold the usable subset in trial order and record every range it
    // does not cover. An incomplete or non-terminal shard contributes
    // nothing: its *whole* range becomes a hole, because the worker
    // that closes the hole finishes the full range into one record --
    // folding its prefix here and that record later would
    // double-count on re-merge.
    SweepReport report;
    report.campaignFingerprint = shards.front().campaignFingerprint;
    report.totalTrials = total;

    std::vector<attack::AttemptOutcome> outcomes;
    outcomes.reserve(total);
    uint64_t next = 0;          // first trial index not yet accounted
    uint64_t first_success = total;
    for (const attack::RangeRecord &shard : shards) {
        const ShardRange range{shard.begin, shard.end};
        if (range.begin > next)
            addMissing(report.missing, ShardRange{next, range.begin});
        next = std::max(next, range.end);
        if (!shard.complete() || !shard.terminal) {
            if (!range.empty())
                addMissing(report.missing, range);
            continue;
        }
        for (size_t i = 0;
             i < shard.outcomes.size() && first_success == total; ++i) {
            if (shard.outcomes[i].success)
                first_success = range.begin + i;
        }
        outcomes.insert(outcomes.end(), shard.outcomes.begin(),
                        shard.outcomes.end());
    }
    if (next < total)
        addMissing(report.missing, ShardRange{next, total});

    // aggregateOutcomes truncates at the first success in the folded
    // sequence -- the campaign's sequential stopping point. Trials a
    // sequential run never reaches (including every hole past that
    // success) cannot influence the canonical result, which is what
    // makes a degraded fold `exact` when the success precedes the
    // first hole.
    report.result = attack::HyperHammerAttack::aggregateOutcomes(
        std::move(outcomes));
    report.exact = report.missing.empty()
        || (first_success < report.missing.front().begin);
    return report;
}

} // namespace hh::shard
