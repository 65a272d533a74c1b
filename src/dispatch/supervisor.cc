#include "dispatch/supervisor.h"

#include <algorithm>
#include <utility>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/log.h"
#include "base/rng.h"
#include "dispatch/wall.h"

namespace hh::dispatch {

uint64_t
backoffDelayMs(uint64_t campaign_fingerprint, uint32_t shard_index,
               uint32_t attempt, const BackoffConfig &cfg)
{
    if (attempt == 0)
        return 0;
    const uint32_t doublings =
        std::min<uint32_t>(attempt - 1, 40); // avoid shift overflow
    uint64_t delay = cfg.baseMs;
    for (uint32_t i = 0; i < doublings && delay < cfg.capMs; ++i)
        delay *= 2;
    delay = std::min(delay, cfg.capMs);
    base::SeedSequence seq(
        base::mix64(campaign_fingerprint, shard_index));
    base::Rng rng = seq.stream(attempt);
    return delay + rng.below(delay / 2 + 1);
}

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
    return cfg.artifactDir + "/shard_" + std::to_string(index) + ".bin";
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
    fingerprint = campaign_fingerprint;
    totalTrials = total_trials;
    table.clear();
    table.reserve(ranges.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
        ShardJob &job = table.emplace_back();
        job.index = static_cast<uint32_t>(i);
        job.range = ranges[i];
        if (!resume)
            continue;
        // A resume trusts nothing but the records: a missing,
        // unreadable or unfinished one leaves its job Pending, and the
        // worker resumes whatever prefix it (or its .prev) still holds.
        // A killed supervisor's orphaned worker may still be running,
        // but relaunch is safe: trials are pure functions of
        // (fingerprint, index) and record writes are atomic renames,
        // so duplicate workers write identical bytes.
        auto record = attack::loadRangeRecord(artifactPath(job.index));
        if (!record)
            continue;
        if (record->campaignFingerprint != fingerprint
            || record->totalTrials != totalTrials
            || record->begin != job.range.begin
            || record->end != job.range.end) {
            base::warn("dispatch: cannot resume: '%s' holds a record "
                       "of another campaign or range",
                       artifactPath(job.index).c_str());
            return base::ErrorCode::InvalidArgument;
        }
        if (record->finishes(fingerprint, totalTrials, job.range.begin,
                             job.range.end)) {
            job.state = ShardState::Done;
            collected[job.index] = std::move(*record);
        }
    }

    for (const uint32_t index : cfg.forceQuarantine) {
        if (index >= table.size())
            return base::ErrorCode::InvalidArgument;
        ShardJob &job = table[index];
        if (job.state != ShardState::Done) {
            job.state = ShardState::Quarantined;
            job.lastFailure = kFailureQuarantineHook;
            ++counters.quarantines;
        }
    }
    return base::Status::success();
}

base::Expected<attack::RangeRecord>
Supervisor::loadArtifact(const ShardJob &job) const
{
    auto artifact = attack::loadRangeRecord(artifactPath(job.index));
    if (artifact
        && !artifact->finishes(fingerprint, totalTrials, job.range.begin,
                               job.range.end))
        return base::ErrorCode::InvalidArgument;
    return artifact;
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
            backoffDelayMs(fingerprint, job.index, job.attempts,
                           cfg.backoff);
        eligibleAt[job.index] =
            monotonicSeconds() + static_cast<double>(delay_ms) / 1e3;
    }
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
}

void
Supervisor::reapAndScan()
{
    const double now = monotonicSeconds();
    for (auto it = leases.begin(); it != leases.end();) {
        ShardJob &job = table[it->first];
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
        // Liveness: the worker rewrites its record at range start and
        // after every block, so a new outcome count is its heartbeat
        // and refreshes the lease -- unless the heartbeat-loss fault
        // eats the observation, in which case the deadline keeps
        // running and the lease can expire under a perfectly healthy
        // worker (exactly the failure mode a lost NFS write produces).
        auto record = attack::loadRangeRecord(artifactPath(job.index));
        if (record && lease.seenOutcomes != record->outcomes.size()) {
            if (HH_FAULT_POINT(cfg.injector,
                               fault::FaultSite::DispatchHeartbeat)
                != nullptr) {
                ++counters.heartbeatLossFaults;
            } else {
                lease.seenOutcomes = record->outcomes.size();
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
        for (ShardJob &job : table) {
            if (job.state != ShardState::Retrying)
                continue;
            const auto due = eligibleAt.find(job.index);
            if (due == eligibleAt.end() || now >= due->second) {
                job.state = ShardState::Pending;
                eligibleAt.erase(job.index);
            }
        }
        for (ShardJob &job : table) {
            if (leases.size() >= cfg.maxParallel)
                break;
            if (job.state == ShardState::Pending)
                launch(job);
        }

        if (leases.empty()
            && std::all_of(table.begin(), table.end(),
                           [](const ShardJob &job) {
                               return job.settled();
                           }))
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
        for (const ShardJob &job : table) {
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
        report.campaignFingerprint = fingerprint;
        report.totalTrials = totalTrials;
        report.result = attack::HyperHammerAttack::aggregateOutcomes({});
        if (totalTrials > 0)
            report.missing.push_back(shard::ShardRange{0, totalTrials});
        report.exact = totalTrials == 0;
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
