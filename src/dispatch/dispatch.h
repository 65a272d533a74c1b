/**
 * @file
 * The supervised-sweep data plane: shard job states, the crash-safe
 * dispatcher ledger, deterministic retry backoff and the gap manifest
 * a degraded sweep hands to `hh_sweep heal`.
 *
 * The ledger is the supervisor's durable source of truth: one record
 * per shard range with its lifecycle state and attempt count,
 * persisted through the archive layer with the same atomic-rename +
 * `.prev` rotation the range records use -- so `kill -9` of
 * the supervisor at any instant leaves a loadable ledger and the next
 * `hh_sweep sweep --resume` reconstructs the sweep without recomputing
 * completed work.
 *
 * Backoff is deterministic by construction: the delay before retry
 * attempt a of shard s is a pure function of (campaign fingerprint,
 * s, a) via SeedSequence(mix64(fingerprint, s)).stream(a), so two
 * dispatcher runs over the same campaign make identical retry
 * decisions (DESIGN.md section 3.2 extended to the control plane).
 */

#ifndef HYPERHAMMER_DISPATCH_DISPATCH_H
#define HYPERHAMMER_DISPATCH_DISPATCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "shard/shard.h"

namespace hh::dispatch {

/**
 * Lifecycle of one shard range under the supervisor:
 *
 *            launch           exit 0 + valid artifact
 *   Pending -------> Leased ------------------------> Done
 *      ^               | crash / lease expiry / bad artifact
 *      | backoff       v
 *      +----------- Retrying --(attempt cap reached)--> Quarantined
 */
enum class ShardState : uint8_t
{
    Pending = 0,    ///< waiting for a launch slot
    Leased,         ///< a worker owns the range under a live lease
    Done,           ///< artifact collected and validated
    Retrying,       ///< failed; waiting out deterministic backoff
    Quarantined,    ///< attempt cap hit; excluded from this sweep
};

/** Human-readable state name (ledger dumps, logs). */
const char *stateName(ShardState state);

/** One shard range's ledger record. */
struct ShardJob
{
    uint32_t index = 0;
    shard::ShardRange range;
    ShardState state = ShardState::Pending;
    /** Worker launches so far (spawn failures count: they consumed
     *  an attempt's worth of the failure budget). */
    uint32_t attempts = 0;
    /** Last failure: the worker's wait status, or a negative
     *  supervisor-assigned code (see supervisor.h). */
    int64_t lastFailure = 0;

    /** No further launches will happen for this job this sweep. */
    bool
    settled() const
    {
        return state == ShardState::Done
            || state == ShardState::Quarantined;
    }
};

/** The supervisor's durable state: campaign identity + all jobs. */
struct Ledger
{
    uint64_t campaignFingerprint = 0;
    uint64_t totalTrials = 0;
    std::vector<ShardJob> jobs;

    /** Every job is Done or Quarantined. */
    bool settled() const;
    /** Jobs currently quarantined. */
    size_t quarantined() const;
};

/**
 * Persist @p ledger crash-safely: rotate an existing file to
 * path + ".prev", then write atomically (temp + fsync + rename) under
 * snapshot::kLedgerMagic at the shared format version.
 */
[[nodiscard]] base::Status saveLedger(const std::string &path,
                                      const Ledger &ledger);

/**
 * Load the newest valid ledger: @p path first, then path + ".prev"
 * when the primary is missing, truncated, corrupt or version-stale.
 * Records are validated (state enum in range, ranges inside the
 * campaign); NotFound means neither file exists.
 */
[[nodiscard]] base::Expected<Ledger>
loadLedger(const std::string &path);

/** Exponential-backoff shape; delays are milliseconds. */
struct BackoffConfig
{
    uint64_t baseMs = 200;
    uint64_t capMs = 5'000;
};

/**
 * Delay before relaunching @p shard_index after failed attempt
 * @p attempt (1-based): min(cap, base * 2^(attempt-1)) plus seeded
 * jitter in [0, delay/2] drawn from
 * SeedSequence(mix64(fingerprint, shard_index)).stream(attempt).
 * Pure function of its arguments -- replaying a sweep replays its
 * pacing decisions.
 */
uint64_t backoffDelayMs(uint64_t campaign_fingerprint,
                        uint32_t shard_index, uint32_t attempt,
                        const BackoffConfig &cfg);

/**
 * The campaign parameters a gap manifest must carry so `hh_sweep heal`
 * can rebuild the identical campaign (fingerprint-checked on load).
 */
struct CampaignParams
{
    uint64_t trials = 0;
    uint32_t threads = 1;
    uint64_t seed = 1;
    uint64_t hostGib = 0;
    uint64_t faultSeed = 0;
    double faultIntensity = 0.0;
    uint64_t checkpointEvery = 1;
};

/**
 * The machine-readable hand-off from a degraded sweep to a heal run:
 * which campaign, which artifacts are healthy, and exactly which
 * trial ranges still need computing. Serialized as JSON so operators
 * and CI can inspect it without tooling.
 */
struct GapManifest
{
    uint64_t campaignFingerprint = 0;
    uint64_t totalTrials = 0;
    CampaignParams campaign;
    /** Healthy artifacts (loadable, terminal, exact subset tiling). */
    std::vector<std::string> artifacts;
    /** Uncovered ranges, sorted; what heal must compute. */
    std::vector<shard::ShardRange> missing;
};

/** Write @p manifest as JSON (plain rewrite; small + regenerable). */
[[nodiscard]] base::Status saveGapManifest(const std::string &path,
                                           const GapManifest &manifest);

/** Parse a gap manifest written by saveGapManifest. */
[[nodiscard]] base::Expected<GapManifest>
loadGapManifest(const std::string &path);

/**
 * Read a worker heartbeat file (snapshot::touchHeartbeat). Returns
 * the raw content -- the supervisor only compares successive reads
 * for change, so torn reads are harmless. Empty when missing/empty.
 */
std::string readHeartbeat(const std::string &path);

} // namespace hh::dispatch

#endif // HYPERHAMMER_DISPATCH_DISPATCH_H
