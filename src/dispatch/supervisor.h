/**
 * @file
 * The shard supervisor: owns the dispatcher ledger and drives every
 * shard range through Pending -> Leased -> Done | Retrying |
 * Quarantined (DESIGN.md section 3.7).
 *
 * The supervisor launches workers through an injected WorkerLauncher
 * (hh_sweep forks+execs itself; tests and the soak bench fork
 * in-process lambdas), tracks liveness via lease deadlines refreshed
 * by worker heartbeat files, reclaims expired leases with SIGKILL and
 * relaunches with resume semantics so completed-trial prefixes are
 * never recomputed. Every state transition is persisted to the ledger
 * before the next poll, so `kill -9` of the supervisor itself resumes
 * cleanly (openSweep with resume = true).
 *
 * Failure semantics are deterministic where they can be: *whether* to
 * retry and for how long comes from the attempt cap and the seeded
 * backoff (dispatch.h); only the pacing (polls, leases) lives on wall
 * time, and wall time never touches trial results. The four
 * dispatch.* fault sites (fault_sites.def) let chaos tests force
 * every recovery path: spawn failure, heartbeat loss, torn artifact
 * collection and a spurious merge-time Busy.
 */

#ifndef HYPERHAMMER_DISPATCH_SUPERVISOR_H
#define HYPERHAMMER_DISPATCH_SUPERVISOR_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "dispatch/dispatch.h"
#include "fault/fault.h"
#include "shard/shard.h"

namespace hh::dispatch {

/** Everything a worker needs to run one shard range attempt. */
struct WorkerSpec
{
    uint32_t shardIndex = 0;
    shard::ShardRange range;
    /** 1-based attempt number (attempt 1 is the first launch). */
    uint32_t attempt = 1;
    /** The range record: the worker resumes from it and finishes it. */
    std::string artifactPath;
    std::string heartbeatPath;
};

/**
 * Launch a worker for @p spec; return its pid, or a negative value
 * when the launch itself failed. The worker must leave a terminal
 * range record (attack::RangeRecord) at spec.artifactPath and exit 0
 * on success; the supervisor owns reaping.
 */
using WorkerLauncher = std::function<long(const WorkerSpec &)>;

/** Supervisor-assigned failure codes (ShardJob::lastFailure). */
enum : int64_t
{
    kFailureSpawn = -1,         ///< launcher failed (or spawn fault)
    kFailureLeaseExpired = -2,  ///< heartbeat silent past the lease
    kFailureBadArtifact = -3,   ///< exit 0 but unusable artifact
    kFailureQuarantineHook = -4 ///< forced by config (test hook)
};

struct SupervisorConfig
{
    std::string ledgerPath;
    std::string artifactDir = ".";
    /** Artifact file name is artifactPrefix + index + ".bin"; a heal
     *  run uses a distinct prefix so hole artifacts never collide
     *  with the original sweep's numbering. */
    std::string artifactPrefix = "shard_";
    /** Lease length: a worker whose heartbeat does not change for
     *  this long is declared dead and its range reclaimed. */
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
    uint64_t ledgerSaves = 0;
};

class Supervisor
{
  public:
    Supervisor(SupervisorConfig config, WorkerLauncher launcher);

    /**
     * Initialize (resume = false) or reload (resume = true) the
     * ledger for a campaign of @p total_trials trials tiled by
     * @p ranges. On resume the persisted ledger must match the
     * campaign exactly (fingerprint, total, tiling); Leased and
     * Retrying jobs are reclaimed to Pending, Done jobs are
     * revalidated against their artifacts and demoted to Pending when
     * the artifact is gone or unusable.
     */
    [[nodiscard]] base::Status
    openSweep(uint64_t campaign_fingerprint, uint64_t total_trials,
              const std::vector<shard::ShardRange> &ranges,
              bool resume);

    /**
     * Drive the sweep to a settled ledger and merge. Every Done shard
     * contributes; Quarantined ranges become SweepReport::missing via
     * the partial merge, so a degraded sweep still returns a report
     * (the caller decides exit status + gap manifest). Errors are
     * environmental (ledger unwritable, merge-layer rejection of
     * corrupt artifacts), never mere worker failures.
     */
    [[nodiscard]] base::Expected<shard::SweepReport> runSweep();

    const Ledger &ledger() const { return book; }
    const SweepStats &stats() const { return counters; }

    /** Artifact path for shard @p index under this config. */
    std::string artifactPath(uint32_t index) const;

  private:
    struct Lease
    {
        long pid = -1;
        double deadline = 0.0;
        std::string lastBeat;
    };

    [[nodiscard]] base::Status persist();
    /** @p job's artifact, when it finishes the job's range. */
    [[nodiscard]] base::Expected<attack::RangeRecord>
    loadArtifact(const ShardJob &job) const;
    void launch(ShardJob &job);
    void handleFailure(ShardJob &job, int64_t code);
    void collectArtifact(ShardJob &job);
    void reapAndScan();

    SupervisorConfig cfg;
    WorkerLauncher launcher;
    Ledger book;
    /** shard index -> live lease (std::map: deterministic order). */
    std::map<uint32_t, Lease> leases;
    /** shard index -> monotonic instant its backoff elapses. */
    std::map<uint32_t, double> eligibleAt;
    /** shard index -> validated artifact, collected at exit time. */
    std::map<uint32_t, attack::RangeRecord> collected;
    SweepStats counters;
    bool dirty = false;
};

} // namespace hh::dispatch

#endif // HYPERHAMMER_DISPATCH_SUPERVISOR_H
