/**
 * @file
 * Nightly dispatcher soak: the supervisor control plane under
 * deterministic worker misbehaviour and dispatch.* chaos faults.
 *
 * Each round supervises a synthetic sweep of fork()ed workers whose
 * artifacts are pure functions of their trial range -- no campaign is
 * simulated, so the soak measures the control plane (leases, retry
 * backoff, quarantine, ledger persistence), not the simulator. Workers
 * misbehave deterministically from the round seed: some crash on their
 * first attempt, some hang until the lease reclaims them, and a
 * FaultPlan::randomized injector fires the four dispatch.* sites on
 * top. After every round the supervisor's merged result is checked
 * against an in-process strict merge of the same tiling (or, when
 * chaos quarantined a shard, the missing ranges are checked to tile
 * exactly what the Done shards do not cover) -- any divergence is an
 * identity failure and the soak exits non-zero.
 *
 * Emits BENCH_dispatch.json (via --json-out=) for the nightly trend
 * pipeline: control-plane counters plus shards_per_second.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "bench_common.h"
#include "bench_json.h"

using namespace hh;
using namespace hh::bench;

namespace {

struct SoakOptions
{
    unsigned rounds = 6;
    unsigned shards = 8;
    uint64_t trialsPerShard = 8;
    uint64_t seedBase = 1;
    double intensity = 1.0;
    std::string workDir = "dispatch_soak_work";
    std::string jsonOut;

    static SoakOptions
    parse(int argc, char **argv)
    {
        SoakOptions soak;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&arg](const char *prefix) -> const char * {
                const size_t len = std::strlen(prefix);
                return arg.compare(0, len, prefix) == 0
                    ? arg.c_str() + len : nullptr;
            };
            if (const char *v = value("--rounds="))
                soak.rounds = static_cast<unsigned>(
                    std::strtoul(v, nullptr, 0));
            else if (const char *v2 = value("--shards="))
                soak.shards = static_cast<unsigned>(
                    std::strtoul(v2, nullptr, 0));
            else if (const char *v3 = value("--seed-base="))
                soak.seedBase = std::strtoull(v3, nullptr, 0);
            else if (const char *v4 = value("--intensity="))
                soak.intensity = std::strtod(v4, nullptr);
            else if (const char *v5 = value("--work-dir="))
                soak.workDir = v5;
            else if (const char *v6 = value("--json-out="))
                soak.jsonOut = v6;
        }
        return soak;
    }
};

attack::AttemptOutcome
syntheticOutcome(uint64_t round_seed, uint64_t trial)
{
    attack::AttemptOutcome outcome;
    outcome.success = false;
    outcome.bitsTargeted =
        static_cast<unsigned>(1 + (trial + round_seed) % 12);
    outcome.releasedSubBlocks = trial * 3 + 1;
    outcome.demotions = trial * 5 + 2;
    outcome.changedPages = trial * 7 + round_seed % 5;
    outcome.epteCandidates = trial % 4;
    outcome.duration = base::SimTime(1000 + trial * 17);
    outcome.retries = static_cast<unsigned>(trial % 3);
    outcome.backoffTime = base::SimTime(trial * 11);
    outcome.faultsFired = trial % 2;
    return outcome;
}

attack::RangeRecord
shardFor(uint64_t fingerprint, uint64_t total, uint64_t round_seed,
         const shard::ShardRange &range)
{
    attack::RangeRecord shard;
    shard.campaignFingerprint = fingerprint;
    shard.totalTrials = total;
    shard.begin = range.begin;
    shard.end = range.end;
    for (uint64_t trial = range.begin; trial < range.end; ++trial)
        shard.outcomes.push_back(syntheticOutcome(round_seed, trial));
    return shard;
}

/** Deterministic misbehaviour gate for (round, shard, attempt). */
bool
crashesOn(uint64_t round_seed, uint32_t shard, uint32_t attempt)
{
    return attempt == 1
        && base::mix64(round_seed, shard * 2 + 1) % 4 == 0;
}

bool
hangsOn(uint64_t round_seed, uint32_t shard, uint32_t attempt)
{
    return attempt == 1
        && base::mix64(round_seed, shard * 2) % 8 == 0;
}

dispatch::WorkerLauncher
soakLauncher(uint64_t fingerprint, uint64_t total,
             uint64_t round_seed)
{
    return [fingerprint, total,
            round_seed](const dispatch::WorkerSpec &spec) -> long {
        const pid_t pid = ::fork();
        if (pid != 0)
            return pid;
        if (crashesOn(round_seed, spec.shardIndex, spec.attempt))
            ::_exit(1);
        if (hangsOn(round_seed, spec.shardIndex, spec.attempt)) {
            snapshot::touchHeartbeat(spec.heartbeatPath, 0);
            for (;;)
                dispatch::sleepSeconds(0.05); // await SIGKILL
        }
        if (!attack::saveRangeRecord(
                 spec.artifactPath,
                 shardFor(fingerprint, total, round_seed, spec.range))
                 .ok())
            ::_exit(9);
        ::_exit(0);
    };
}

/** Every trial of [0, total) is either merged or reported missing. */
bool
coverageIsExact(const shard::SweepReport &report,
                const dispatch::Ledger &ledger, uint64_t total)
{
    std::vector<shard::ShardRange> covered;
    for (const dispatch::ShardJob &job : ledger.jobs) {
        if (job.state == dispatch::ShardState::Done)
            covered.push_back(job.range);
    }
    covered.insert(covered.end(), report.missing.begin(),
                   report.missing.end());
    std::sort(covered.begin(), covered.end(),
              [](const shard::ShardRange &a, const shard::ShardRange &b) {
                  return a.begin < b.begin;
              });
    uint64_t next = 0;
    for (const shard::ShardRange &range : covered) {
        if (range.begin != next)
            return false;
        next = range.end;
    }
    return next == total;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = Options::parse(argc, argv);
    SoakOptions soak = SoakOptions::parse(argc, argv);
    if (opts.quick) {
        soak.rounds = std::min(soak.rounds, 2u);
        soak.shards = std::min(soak.shards, 4u);
    }
    (void)::mkdir(soak.workDir.c_str(), 0777); // EEXIST is fine

    std::printf("== dispatch soak: %u rounds x %u shards, "
                "chaos intensity %.2f ==\n",
                soak.rounds, soak.shards, soak.intensity);

    JsonReport report("bench_dispatch_soak");
    analysis::TextTable table({"Round", "Launches", "Retries",
                               "Lease exp", "Spawn fail", "Torn",
                               "HB loss", "Quarantined", "Identity"});
    dispatch::SweepStats totals;
    unsigned identity_failures = 0;
    unsigned degraded_rounds = 0;
    const double t0 = dispatch::monotonicSeconds();
    for (unsigned round = 0; round < soak.rounds; ++round) {
        const uint64_t round_seed = soak.seedBase + round;
        const uint64_t fingerprint =
            base::mix64(0xd15ba7c000000000ull | round, round_seed);
        const uint64_t total = soak.trialsPerShard * soak.shards;
        const std::vector<shard::ShardRange> ranges =
            shard::planShards(total, soak.shards);

        fault::FaultInjector injector(
            fault::FaultPlan::randomized(round_seed, soak.intensity),
            base::mix64(fingerprint, round_seed));
        dispatch::SupervisorConfig cfg;
        cfg.ledgerPath = soak.workDir + "/ledger.bin";
        cfg.artifactDir = soak.workDir;
        cfg.leaseSeconds = 0.5; // hangs resolve fast
        cfg.pollSeconds = 0.01;
        cfg.maxAttempts = 4;
        cfg.backoff.baseMs = 1;
        cfg.backoff.capMs = 8;
        cfg.maxParallel = soak.shards;
        cfg.injector = &injector;
        dispatch::Supervisor sup(
            cfg, soakLauncher(fingerprint, total, round_seed));

        bool identity_ok = true;
        const base::Status opened =
            sup.openSweep(fingerprint, total, ranges, false);
        if (!opened.ok()) {
            std::fprintf(stderr, "round %u: openSweep failed: %s\n",
                         round, base::errorName(opened.error()));
            identity_ok = false;
        } else {
            const auto swept = sup.runSweep();
            if (!swept.ok()) {
                std::fprintf(stderr, "round %u: runSweep failed: %s\n",
                             round, base::errorName(swept.error()));
                identity_ok = false;
            } else if (swept->partial()) {
                // Chaos exhausted a shard's attempts: the merged
                // prefix plus the reported holes must still tile the
                // campaign exactly.
                ++degraded_rounds;
                identity_ok =
                    coverageIsExact(*swept, sup.ledger(), total);
            } else {
                std::vector<attack::RangeRecord> reference;
                for (const shard::ShardRange &range : ranges)
                    reference.push_back(shardFor(fingerprint, total,
                                                 round_seed, range));
                const auto merged =
                    shard::mergeShards(std::move(reference));
                identity_ok = merged.ok()
                    && snapshot::diffAttackResults(*merged,
                                                   swept->result)
                           .empty();
            }
        }

        const dispatch::SweepStats &s = sup.stats();
        totals.launches += s.launches;
        totals.retries += s.retries;
        totals.leaseExpiries += s.leaseExpiries;
        totals.spawnFailures += s.spawnFailures;
        totals.tornArtifacts += s.tornArtifacts;
        totals.heartbeatLossFaults += s.heartbeatLossFaults;
        totals.quarantines += s.quarantines;
        totals.mergeBusyRetries += s.mergeBusyRetries;
        totals.ledgerSaves += s.ledgerSaves;
        identity_failures += identity_ok ? 0 : 1;
        table.addRow({
            std::to_string(round),
            std::to_string(s.launches),
            std::to_string(s.retries),
            std::to_string(s.leaseExpiries),
            std::to_string(s.spawnFailures),
            std::to_string(s.tornArtifacts),
            std::to_string(s.heartbeatLossFaults),
            std::to_string(s.quarantines),
            identity_ok ? "ok" : "FAIL",
        });
    }
    const double elapsed =
        std::max(dispatch::monotonicSeconds() - t0, 1e-9);

    std::printf("%s\n", table.render().c_str());
    const uint64_t shard_runs =
        static_cast<uint64_t>(soak.rounds) * soak.shards;
    std::printf("soak: %llu supervised shards in %u rounds, "
                "%llu launches, %llu retries, %u degraded round(s), "
                "%u identity failure(s)\n",
                static_cast<unsigned long long>(shard_runs),
                soak.rounds,
                static_cast<unsigned long long>(totals.launches),
                static_cast<unsigned long long>(totals.retries),
                degraded_rounds, identity_failures);

    if (!soak.jsonOut.empty()) {
        report.set("rounds", static_cast<uint64_t>(soak.rounds));
        report.set("shards_total", shard_runs);
        report.set("shards_per_second", shard_runs / elapsed);
        report.set("launches", totals.launches);
        report.set("retries", totals.retries);
        report.set("lease_expiries", totals.leaseExpiries);
        report.set("spawn_failures", totals.spawnFailures);
        report.set("torn_artifacts", totals.tornArtifacts);
        report.set("heartbeat_loss", totals.heartbeatLossFaults);
        report.set("quarantines", totals.quarantines);
        report.set("merge_busy_retries", totals.mergeBusyRetries);
        report.set("ledger_saves", totals.ledgerSaves);
        report.set("degraded_rounds",
                   static_cast<uint64_t>(degraded_rounds));
        report.set("identity_failures",
                   static_cast<uint64_t>(identity_failures));
        report.set("intensity", soak.intensity);
        report.set("seed_base", soak.seedBase);
        if (!report.writeFile(soak.jsonOut))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         soak.jsonOut.c_str());
        else
            std::fprintf(stderr, "wrote %s\n", soak.jsonOut.c_str());
    }
    return identity_failures == 0 ? 0 : 1;
}
