/**
 * @file
 * The shard supervisor: drives every shard range through Pending ->
 * Leased -> Done | Retrying | Quarantined (DESIGN.md section 3.7).
 *
 * The supervisor launches workers through an injected WorkerLauncher
 * (hh_sweep forks+execs itself; tests and the soak bench fork
 * in-process lambdas), tracks liveness via lease deadlines refreshed
 * whenever a worker's range record shows a new outcome count, reclaims
 * expired leases with SIGKILL and relaunches with resume semantics so
 * completed-trial prefixes are never recomputed. The range records
 * are a sweep's only on-disk state: `kill -9` of the supervisor itself
 * resumes by rescanning them (openSweep with resume = true).
 *
 * Failure semantics are deterministic where they can be: *whether* to
 * retry and for how long comes from the attempt cap and the seeded
 * backoff (backoffDelayMs); only the pacing (polls, leases) lives on
 * wall time, and wall time never touches trial results. The four
 * dispatch.* fault sites (fault_sites.def) let chaos tests force
 * every recovery path: spawn failure, heartbeat loss, torn artifact
 * collection and a spurious merge-time Busy.
 */

#ifndef HYPERHAMMER_DISPATCH_SUPERVISOR_H
#define HYPERHAMMER_DISPATCH_SUPERVISOR_H

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "fault/fault.h"
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

/** One shard range's job. */
struct ShardJob
{
    uint32_t index = 0;
    shard::ShardRange range;
    ShardState state = ShardState::Pending;
    /** Worker launches so far (spawn failures count: they consumed
     *  an attempt's worth of the failure budget). */
    uint32_t attempts = 0;
    /** Last failure: the worker's wait status, or a negative
     *  supervisor-assigned code (see below). */
    int64_t lastFailure = 0;

    /** No further launches will happen for this job this sweep. */
    bool
    settled() const
    {
        return state == ShardState::Done
            || state == ShardState::Quarantined;
    }
};

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
 * pacing decisions (DESIGN.md section 3.2 extended to the control
 * plane).
 */
uint64_t backoffDelayMs(uint64_t campaign_fingerprint,
                        uint32_t shard_index, uint32_t attempt,
                        const BackoffConfig &cfg);

/** Everything a worker needs to run one shard range attempt. */
struct WorkerSpec
{
    uint32_t shardIndex = 0;
    shard::ShardRange range;
    /** 1-based attempt number (attempt 1 is the first launch). */
    uint32_t attempt = 1;
    /** The range record: the worker resumes from it and finishes it. */
    std::string artifactPath;
};

/**
 * Launch a worker for @p spec; return its pid, or a negative value
 * when the launch itself failed. The worker must rewrite the range
 * record (attack::RangeRecord) at spec.artifactPath at range start
 * and after every trial block, leave it terminal and exit 0 on
 * success; the supervisor owns reaping.
 */
using WorkerLauncher = std::function<long(const WorkerSpec &)>;

/** Supervisor-assigned failure codes (ShardJob::lastFailure). */
enum : int64_t
{
    kFailureSpawn = -1,         ///< launcher failed (or spawn fault)
    kFailureLeaseExpired = -2,  ///< record silent past the lease
    kFailureBadArtifact = -3,   ///< exit 0 but unusable artifact
    kFailureQuarantineHook = -4 ///< forced by config (test hook)
};

struct SupervisorConfig
{
    /** Range records live at artifactDir/shard_<index>.bin. */
    std::string artifactDir = ".";
    /** Lease length: a worker whose record shows no new outcome count
     *  for this long is declared dead and its range reclaimed. */
    double leaseSeconds = 30.0;
    /** Supervisor poll cadence. */
    double pollSeconds = 0.05;
    /** Worker launches per shard before quarantine. */
    uint32_t maxAttempts = 3;
    BackoffConfig backoff;
    /** Concurrent workers. */
    uint32_t maxParallel = 4;
    /** Shard indices to quarantine up front (test hook; mirrors the
     *  CheckpointPolicy::stopAfterTrials pattern). */
    std::vector<uint32_t> forceQuarantine;
    /** Chaos injector for the dispatch.* sites; null = no faults. */
    fault::FaultInjector *injector = nullptr;
};

/** Control-plane counters (telemetry; never part of the result). */
struct SweepStats
{
    uint64_t launches = 0;
    uint64_t spawnFailures = 0;
    uint64_t leaseExpiries = 0;
    uint64_t heartbeatLossFaults = 0;
    uint64_t tornArtifacts = 0;
    uint64_t retries = 0;
    uint64_t quarantines = 0;
    uint64_t mergeBusyRetries = 0;
};

class Supervisor
{
  public:
    Supervisor(SupervisorConfig config, WorkerLauncher launcher);

    /**
     * Set up the jobs of a campaign of @p total_trials trials tiled by
     * @p ranges, all Pending. With @p resume the range records on disk
     * are rescanned: a job whose record finishes its range is Done and
     * never relaunched. A readable record of another campaign or
     * another range at a job's path is InvalidArgument, so a resume
     * never mixes campaigns or tilings.
     */
    [[nodiscard]] base::Status
    openSweep(uint64_t campaign_fingerprint, uint64_t total_trials,
              const std::vector<shard::ShardRange> &ranges,
              bool resume);

    /**
     * Drive every job to Done or Quarantined, then merge. Every Done
     * shard contributes; Quarantined ranges become SweepReport::missing
     * via the partial merge, so a degraded sweep still returns a report
     * (the caller decides the exit status). Errors are merge-layer
     * rejections of corrupt artifacts, never mere worker failures.
     */
    [[nodiscard]] base::Expected<shard::SweepReport> runSweep();

    const std::vector<ShardJob> &jobs() const { return table; }
    const SweepStats &stats() const { return counters; }

    /** Artifact path for shard @p index under this config. */
    std::string artifactPath(uint32_t index) const;

  private:
    struct Lease
    {
        long pid = -1;
        double deadline = 0.0;
        /** Outcome count of the last observed record; none before the
         *  first observation. */
        std::optional<size_t> seenOutcomes;
    };

    /** @p job's artifact, when it finishes the job's range. */
    [[nodiscard]] base::Expected<attack::RangeRecord>
    loadArtifact(const ShardJob &job) const;
    void launch(ShardJob &job);
    void handleFailure(ShardJob &job, int64_t code);
    void collectArtifact(ShardJob &job);
    void reapAndScan();

    SupervisorConfig cfg;
    WorkerLauncher launcher;
    uint64_t fingerprint = 0;
    uint64_t totalTrials = 0;
    std::vector<ShardJob> table;
    /** shard index -> live lease (std::map: deterministic order). */
    std::map<uint32_t, Lease> leases;
    /** shard index -> monotonic instant its backoff elapses. */
    std::map<uint32_t, double> eligibleAt;
    /** shard index -> validated artifact, collected at exit time. */
    std::map<uint32_t, attack::RangeRecord> collected;
    SweepStats counters;
};

} // namespace hh::dispatch

#endif // HYPERHAMMER_DISPATCH_SUPERVISOR_H
