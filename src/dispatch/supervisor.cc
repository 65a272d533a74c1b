#include "dispatch/supervisor.h"

#include <utility>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/log.h"
#include "dispatch/wall.h"

namespace hh::dispatch {

Supervisor::Supervisor(SupervisorConfig config, WorkerLauncher launch)
    : cfg(std::move(config)), launcher(std::move(launch))
{
    HH_ASSERT(launcher != nullptr);
    HH_ASSERT(cfg.maxAttempts >= 1);
    HH_ASSERT(cfg.maxParallel >= 1);
}

std::string
Supervisor::artifactPath(uint32_t index) const
{
    return cfg.artifactDir + "/" + cfg.artifactPrefix
        + std::to_string(index) + ".bin";
}

base::Status
Supervisor::openSweep(uint64_t campaign_fingerprint,
                      uint64_t total_trials,
                      const std::vector<shard::ShardRange> &ranges,
                      bool resume)
{
    leases.clear();
    eligibleAt.clear();
    collected.clear();

    if (resume) {
        auto loaded = loadLedger(cfg.ledgerPath);
        if (!loaded) {
            base::warn("dispatch: cannot resume: ledger '%s' "
                       "unreadable (%s)",
                       cfg.ledgerPath.c_str(),
                       base::errorName(loaded.error()));
            return loaded.error();
        }
        book = std::move(*loaded);
        if (book.campaignFingerprint != campaign_fingerprint
            || book.totalTrials != total_trials
            || book.jobs.size() != ranges.size())
            return base::ErrorCode::InvalidArgument;
        for (size_t i = 0; i < ranges.size(); ++i) {
            const ShardJob &job = book.jobs[i];
            if (job.index != i || job.range.begin != ranges[i].begin
                || job.range.end != ranges[i].end)
                return base::ErrorCode::InvalidArgument;
        }
        for (ShardJob &job : book.jobs) {
            switch (job.state) {
            case ShardState::Leased:
                // The previous supervisor died holding this lease. An
                // orphaned worker may still be running, but relaunch
                // is safe: trials are pure functions of (fingerprint,
                // index) and range-record writes are atomic renames,
                // so duplicate workers write identical bytes.
                job.state = ShardState::Pending;
                break;
            case ShardState::Retrying:
                // Backoff deadlines were wall-anchored in the dead
                // process; the failure already counted, so just make
                // the job immediately eligible again.
                job.state = ShardState::Pending;
                break;
            case ShardState::Done: {
                // Trust nothing across a crash: the artifact must
                // still load as the terminal product of this range.
                if (auto artifact = loadArtifact(job)) {
                    collected[job.index] = std::move(*artifact);
                } else {
                    base::warn("dispatch: shard %u marked done but "
                               "artifact unusable; recomputing",
                               job.index);
                    job.state = ShardState::Pending;
                }
                break;
            }
            case ShardState::Pending:
            case ShardState::Quarantined:
                break;
            }
        }
    } else {
        book = Ledger{};
        book.campaignFingerprint = campaign_fingerprint;
        book.totalTrials = total_trials;
        book.jobs.reserve(ranges.size());
        for (size_t i = 0; i < ranges.size(); ++i) {
            ShardJob job;
            job.index = static_cast<uint32_t>(i);
            job.range = ranges[i];
            book.jobs.push_back(job);
        }
    }

    for (const uint32_t index : cfg.forceQuarantine) {
        if (index >= book.jobs.size())
            return base::ErrorCode::InvalidArgument;
        ShardJob &job = book.jobs[index];
        if (job.state != ShardState::Done) {
            job.state = ShardState::Quarantined;
            job.lastFailure = kFailureQuarantineHook;
            ++counters.quarantines;
        }
    }

    dirty = true;
    return persist();
}

base::Expected<attack::RangeRecord>
Supervisor::loadArtifact(const ShardJob &job) const
{
    auto artifact = attack::loadRangeRecord(artifactPath(job.index));
    if (artifact
        && !artifact->finishes(book.campaignFingerprint, book.totalTrials,
                               job.range.begin, job.range.end))
        return base::ErrorCode::InvalidArgument;
    return artifact;
}

base::Status
Supervisor::persist()
{
    if (!dirty)
        return base::Status::success();
    dirty = false;
    ++counters.ledgerSaves;
    return saveLedger(cfg.ledgerPath, book);
}

void
Supervisor::handleFailure(ShardJob &job, int64_t code)
{
    job.lastFailure = code;
    if (job.attempts >= cfg.maxAttempts) {
        job.state = ShardState::Quarantined;
        ++counters.quarantines;
        base::warn("dispatch: shard %u quarantined after %u attempts "
                   "(last failure %lld)",
                   job.index, job.attempts,
                   static_cast<long long>(code));
    } else {
        job.state = ShardState::Retrying;
        ++counters.retries;
        const uint64_t delay_ms =
            backoffDelayMs(book.campaignFingerprint, job.index,
                           job.attempts, cfg.backoff);
        eligibleAt[job.index] =
            monotonicSeconds() + static_cast<double>(delay_ms) / 1e3;
    }
    dirty = true;
}

void
Supervisor::collectArtifact(ShardJob &job)
{
    const std::string path = artifactPath(job.index);
    if (const fault::FaultEntry *torn = HH_FAULT_POINT(
            cfg.injector, fault::FaultSite::DispatchArtifact)) {
        // Simulate a torn artifact write: clip the file's tail so the
        // archive framing (length + checksum) rejects it below and
        // the retry/resume path has to recover.
        struct stat st = {};
        if (::stat(path.c_str(), &st) == 0) {
            const off_t cut =
                static_cast<off_t>(torn->param % 32 + 1);
            (void)::truncate(path.c_str(),
                             st.st_size > cut ? st.st_size - cut : 0);
        }
        ++counters.tornArtifacts;
    }
    auto artifact = loadArtifact(job);
    if (!artifact) {
        base::warn("dispatch: shard %u exited clean but artifact "
                   "'%s' is unusable",
                   job.index, path.c_str());
        handleFailure(job, kFailureBadArtifact);
        return;
    }
    collected[job.index] = std::move(*artifact);
    job.state = ShardState::Done;
    job.lastFailure = 0;
    dirty = true;
}

void
Supervisor::launch(ShardJob &job)
{
    ++job.attempts;
    ++counters.launches;
    if (HH_FAULT_POINT(cfg.injector, fault::FaultSite::DispatchSpawn)
        != nullptr) {
        ++counters.spawnFailures;
        handleFailure(job, kFailureSpawn);
        return;
    }
    WorkerSpec spec;
    spec.shardIndex = job.index;
    spec.range = job.range;
    spec.attempt = job.attempts;
    spec.artifactPath = artifactPath(job.index);
    spec.heartbeatPath = spec.artifactPath + ".hb";
    const long pid = launcher(spec);
    if (pid < 0) {
        ++counters.spawnFailures;
        handleFailure(job, kFailureSpawn);
        return;
    }
    job.state = ShardState::Leased;
    Lease lease;
    lease.pid = pid;
    lease.deadline = monotonicSeconds() + cfg.leaseSeconds;
    leases[job.index] = lease;
    dirty = true;
}

void
Supervisor::reapAndScan()
{
    const double now = monotonicSeconds();
    for (auto it = leases.begin(); it != leases.end();) {
        ShardJob &job = book.jobs[it->first];
        Lease &lease = it->second;
        int status = 0;
        const pid_t reaped = ::waitpid(
            static_cast<pid_t>(lease.pid), &status, WNOHANG);
        if (reaped == static_cast<pid_t>(lease.pid)) {
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
                collectArtifact(job);
            else
                handleFailure(job, status);
            it = leases.erase(it);
            continue;
        }
        // Liveness: a changed heartbeat refreshes the lease -- unless
        // the heartbeat-loss fault eats the observation, in which case
        // the deadline keeps running and the lease can expire under a
        // perfectly healthy worker (exactly the failure mode a lost
        // NFS heartbeat produces).
        const std::string beat = readHeartbeat(
            artifactPath(job.index) + ".hb");
        if (!beat.empty() && beat != lease.lastBeat) {
            if (HH_FAULT_POINT(cfg.injector,
                               fault::FaultSite::DispatchHeartbeat)
                != nullptr) {
                ++counters.heartbeatLossFaults;
            } else {
                lease.lastBeat = beat;
                lease.deadline = now + cfg.leaseSeconds;
            }
        }
        if (now > lease.deadline) {
            base::warn("dispatch: shard %u lease expired; reclaiming",
                       job.index);
            (void)::kill(static_cast<pid_t>(lease.pid), SIGKILL);
            (void)::waitpid(static_cast<pid_t>(lease.pid), &status, 0);
            ++counters.leaseExpiries;
            handleFailure(job, kFailureLeaseExpired);
            it = leases.erase(it);
            continue;
        }
        ++it;
    }
}

base::Expected<shard::SweepReport>
Supervisor::runSweep()
{
    while (true) {
        reapAndScan();

        const double now = monotonicSeconds();
        for (ShardJob &job : book.jobs) {
            if (job.state != ShardState::Retrying)
                continue;
            const auto due = eligibleAt.find(job.index);
            if (due == eligibleAt.end() || now >= due->second) {
                job.state = ShardState::Pending;
                eligibleAt.erase(job.index);
                dirty = true;
            }
        }
        for (ShardJob &job : book.jobs) {
            if (leases.size() >= cfg.maxParallel)
                break;
            if (job.state == ShardState::Pending)
                launch(job);
        }

        const base::Status saved = persist();
        if (!saved.ok())
            base::warn("dispatch: ledger '%s' save failed; sweep "
                       "continues crash-unsafe",
                       cfg.ledgerPath.c_str());
        if (book.settled() && leases.empty())
            break;
        sleepSeconds(cfg.pollSeconds);
    }

    // Merge phase. A fired merge fault models a transient Busy from
    // the artifact store: drop the in-memory copies and re-collect
    // every Done artifact from disk before folding.
    if (HH_FAULT_POINT(cfg.injector, fault::FaultSite::DispatchMerge)
        != nullptr) {
        ++counters.mergeBusyRetries;
        collected.clear();
        for (const ShardJob &job : book.jobs) {
            if (job.state != ShardState::Done)
                continue;
            auto artifact = loadArtifact(job);
            if (!artifact) {
                base::warn("dispatch: merge rescan lost shard %u",
                           job.index);
                return artifact.error();
            }
            collected[job.index] = std::move(*artifact);
        }
    }

    if (collected.empty()) {
        // Nothing survived (everything quarantined): degrade to the
        // canonical empty result with the whole campaign missing.
        shard::SweepReport report;
        report.campaignFingerprint = book.campaignFingerprint;
        report.totalTrials = book.totalTrials;
        report.result = attack::HyperHammerAttack::aggregateOutcomes({});
        if (book.totalTrials > 0)
            report.missing.push_back(
                shard::ShardRange{0, book.totalTrials});
        report.exact = book.totalTrials == 0;
        return report;
    }

    std::vector<attack::RangeRecord> shards;
    shards.reserve(collected.size());
    for (auto &entry : collected)
        shards.push_back(entry.second);
    shard::MergePolicy policy;
    policy.allowPartial = true;
    return shard::mergeShards(std::move(shards), policy);
}

} // namespace hh::dispatch
