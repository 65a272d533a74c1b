/**
 * @file
 * Supervised sharded campaign sweep driver.
 *
 * Splits a Monte-Carlo campaign of N trials into contiguous
 * seed-range shards and drives each shard as an independent OS
 * process under the hh::dispatch supervisor: leases with worker
 * heartbeats, deterministic retry backoff, a per-shard attempt cap
 * and quarantine, all recorded in a crash-safe ledger so `kill -9`
 * of the supervisor resumes with `sweep --resume`. Each process
 * profiles its own host -- the campaign is a pure function of the
 * configuration, so every process derives the identical host-physical
 * profile and fingerprint -- and the merged result is
 * bitwise-identical to a single-process runAttempts() at any shard
 * count x thread count, which `single` and the sweep/merge paths make
 * checkable by printing the same canonical dump: CI byte-diffs the
 * two (docs/distributed_sweeps.md).
 *
 * Subcommands:
 *   single                  run the campaign in-process, print dump
 *   run   --shard=I/K --out=F  run shard I of K, write artifact F
 *         --range=B:E         ... or an explicit trial range
 *   merge FILE...           merge shard artifacts, print dump
 *   sweep --shards=K        supervise K shard workers, merge, print
 *   heal  --gaps=FILE       finish a degraded sweep's missing ranges
 *
 * Campaign flags: --trials=N --threads=N --seed=N --host-gib=N
 *   --fault-seed=N --fault-intensity=X (X > 0 installs a randomized
 *   FaultPlan) --checkpoint-every=N --resume --stop-after=N
 * Worker flags (run): --heartbeat=FILE
 * Merge flags: --allow-partial --stale-seconds=S --gap-manifest=FILE
 * Supervisor flags (sweep/heal): --jobs=P --lease-seconds=X
 *   --max-attempts=M --backoff-ms=N --backoff-cap-ms=N --ledger=FILE
 *   --gap-manifest=FILE --quarantine=I[,J...]
 *   --dispatch-fault-seed=N --dispatch-fault-intensity=X
 *
 * Exit codes: 0 success (canonical dump on stdout), 1 error, 2 usage,
 * 3 stopped early (--stop-after test hook), 4 degraded -- the sweep
 * completed with missing ranges and wrote a gap manifest that
 * `hh_sweep heal` can close to the bitwise-identical full result.
 *
 * The dump deliberately excludes resumedTrials (bookkeeping of *how*
 * a result was computed, not *what* it is -- the same masking
 * snapshot::verifyResumeIdentity applies) and renders every double as
 * its IEEE-754 bit pattern: a byte-equal dump means a bitwise-equal
 * result.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <bit>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "hyperhammer/hyperhammer.h"

using namespace hh;

namespace {

struct SweepOptions
{
    unsigned trials = 8;
    unsigned threads = 1;
    uint64_t seed = 1;
    uint64_t hostBytes = 0;
    uint64_t faultSeed = 0;
    double faultIntensity = 0.0;
    uint64_t checkpointEvery = 0;
    bool resume = false;
    uint64_t stopAfter = 0;
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    bool haveRange = false;
    shard::ShardRange range;
    std::string out;
    std::string outDir = ".";
    std::string heartbeat;
    unsigned shards = 4;
    // Merge behaviour.
    bool allowPartial = false;
    double staleSeconds = 300.0;
    std::string gapManifest;
    // Supervisor knobs.
    unsigned jobs = 0; // 0 = one worker per shard
    double leaseSeconds = 30.0;
    uint32_t maxAttempts = 3;
    uint64_t backoffMs = 200;
    uint64_t backoffCapMs = 5'000;
    std::string ledger;
    std::vector<uint32_t> quarantine;
    uint64_t dispatchFaultSeed = 0;
    double dispatchFaultIntensity = 0.0;
    std::string gaps;
    std::vector<std::string> files;

    static SweepOptions
    parse(int argc, char **argv)
    {
        SweepOptions opts;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&arg](const char *prefix) -> const char * {
                const size_t len = std::strlen(prefix);
                return arg.compare(0, len, prefix) == 0
                    ? arg.c_str() + len : nullptr;
            };
            if (const char *v = value("--trials="))
                opts.trials = static_cast<unsigned>(
                    std::strtoul(v, nullptr, 0));
            else if (const char *v2 = value("--threads="))
                opts.threads = static_cast<unsigned>(
                    std::strtoul(v2, nullptr, 0));
            else if (const char *v3 = value("--seed="))
                opts.seed = std::strtoull(v3, nullptr, 0);
            else if (const char *v4 = value("--host-gib="))
                opts.hostBytes =
                    std::strtoull(v4, nullptr, 0) * 1_GiB;
            else if (const char *v5 = value("--fault-seed="))
                opts.faultSeed = std::strtoull(v5, nullptr, 0);
            else if (const char *v6 = value("--fault-intensity="))
                opts.faultIntensity = std::strtod(v6, nullptr);
            else if (const char *v7 = value("--checkpoint-every="))
                opts.checkpointEvery = std::strtoull(v7, nullptr, 0);
            else if (const char *v8 = value("--stop-after="))
                opts.stopAfter = std::strtoull(v8, nullptr, 0);
            else if (const char *v9 = value("--shard=")) {
                // I/K, e.g. --shard=2/4.
                char *slash = nullptr;
                opts.shardIndex = static_cast<unsigned>(
                    std::strtoul(v9, &slash, 0));
                if (slash == nullptr || *slash != '/') {
                    std::fprintf(stderr,
                                 "hh_sweep: bad --shard (want I/K)\n");
                    std::exit(2);
                }
                opts.shardCount = static_cast<unsigned>(
                    std::strtoul(slash + 1, nullptr, 0));
            } else if (const char *v10 = value("--range=")) {
                // B:E, a half-open absolute trial range.
                char *colon = nullptr;
                opts.range.begin = std::strtoull(v10, &colon, 0);
                if (colon == nullptr || *colon != ':') {
                    std::fprintf(stderr,
                                 "hh_sweep: bad --range (want B:E)\n");
                    std::exit(2);
                }
                opts.range.end =
                    std::strtoull(colon + 1, nullptr, 0);
                opts.haveRange = true;
            } else if (const char *v11 = value("--out="))
                opts.out = v11;
            else if (const char *v12 = value("--out-dir="))
                opts.outDir = v12;
            else if (const char *v13 = value("--heartbeat="))
                opts.heartbeat = v13;
            else if (const char *v14 = value("--shards="))
                opts.shards = static_cast<unsigned>(
                    std::strtoul(v14, nullptr, 0));
            else if (const char *v15 = value("--stale-seconds="))
                opts.staleSeconds = std::strtod(v15, nullptr);
            else if (const char *v16 = value("--gap-manifest="))
                opts.gapManifest = v16;
            else if (const char *v17 = value("--jobs="))
                opts.jobs = static_cast<unsigned>(
                    std::strtoul(v17, nullptr, 0));
            else if (const char *v18 = value("--lease-seconds="))
                opts.leaseSeconds = std::strtod(v18, nullptr);
            else if (const char *v19 = value("--max-attempts="))
                opts.maxAttempts = static_cast<uint32_t>(
                    std::strtoul(v19, nullptr, 0));
            else if (const char *v20 = value("--backoff-ms="))
                opts.backoffMs = std::strtoull(v20, nullptr, 0);
            else if (const char *v21 = value("--backoff-cap-ms="))
                opts.backoffCapMs = std::strtoull(v21, nullptr, 0);
            else if (const char *v22 = value("--ledger="))
                opts.ledger = v22;
            else if (const char *v23 = value("--quarantine=")) {
                const char *p = v23;
                while (*p != '\0') {
                    char *end = nullptr;
                    opts.quarantine.push_back(static_cast<uint32_t>(
                        std::strtoul(p, &end, 0)));
                    p = (end != nullptr && *end == ',') ? end + 1
                                                        : end;
                    if (p == nullptr)
                        break;
                }
            } else if (const char *v24 =
                           value("--dispatch-fault-seed="))
                opts.dispatchFaultSeed =
                    std::strtoull(v24, nullptr, 0);
            else if (const char *v25 =
                         value("--dispatch-fault-intensity="))
                opts.dispatchFaultIntensity = std::strtod(v25, nullptr);
            else if (const char *v26 = value("--gaps="))
                opts.gaps = v26;
            else if (arg == "--allow-partial")
                opts.allowPartial = true;
            else if (arg == "--resume")
                opts.resume = true;
            else if (arg.rfind("--", 0) == 0) {
                std::fprintf(stderr, "hh_sweep: unknown flag %s\n",
                             arg.c_str());
                std::exit(2);
            } else
                opts.files.push_back(arg);
        }
        return opts;
    }
};

sys::SystemConfig
campaignHostConfig(const SweepOptions &opts)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(opts.seed).withMemory(
        opts.hostBytes ? opts.hostBytes : 1_GiB);
    // Densify weak cells so attempts have material to work with at
    // this scale (same factor the orchestrator tests and the fault
    // soak use).
    cfg.dram.fault.weakCellsPerRow *= 4.0;
    if (opts.faultIntensity > 0.0)
        cfg = cfg.withFaults(fault::FaultPlan::randomized(
            opts.faultSeed, opts.faultIntensity));
    return cfg;
}

vm::VmConfig
campaignVmConfig()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 640_MiB;
    return cfg;
}

attack::AttackConfig
campaignAttackConfig(const SweepOptions &opts)
{
    attack::AttackConfig cfg;
    cfg.maxAttempts = opts.trials;
    cfg.steering.exhaustMappings = 2'500;
    return cfg;
}

/** One per-process campaign context: host + profiled attack. */
struct Campaign
{
    std::unique_ptr<sys::HostSystem> host;
    std::unique_ptr<attack::HyperHammerAttack> attack;
};

Campaign
buildCampaign(const SweepOptions &opts)
{
    Campaign campaign;
    campaign.host =
        std::make_unique<sys::HostSystem>(campaignHostConfig(opts));
    campaign.attack = std::make_unique<attack::HyperHammerAttack>(
        *campaign.host, campaignVmConfig(),
        campaign.host->dram().mapping(), campaignAttackConfig(opts));
    campaign.attack->profilePhase();
    if (campaign.attack->hostProfile().empty()) {
        std::fprintf(stderr,
                     "hh_sweep: profiling found no exploitable bits "
                     "at this configuration; nothing to sweep\n");
        std::exit(1);
    }
    return campaign;
}

uint64_t
bits64(double x)
{
    return std::bit_cast<uint64_t>(x);
}

void
printStats(const char *name, const base::RunningStats &stats)
{
    const base::RunningStats::Raw raw = stats.raw();
    std::printf("stat %s n=%llu mean=%016llx m2=%016llx "
                "total=%016llx min=%016llx max=%016llx\n",
                name, static_cast<unsigned long long>(raw.n),
                static_cast<unsigned long long>(bits64(raw.mean)),
                static_cast<unsigned long long>(bits64(raw.m2)),
                static_cast<unsigned long long>(bits64(raw.total)),
                static_cast<unsigned long long>(bits64(raw.min)),
                static_cast<unsigned long long>(bits64(raw.max)));
}

/** The canonical dump `single` and the merge paths all print. */
void
printResult(uint64_t fingerprint, unsigned trials,
            const attack::AttackResult &result)
{
    std::printf("campaign fingerprint=%016llx trials=%u\n",
                static_cast<unsigned long long>(fingerprint), trials);
    std::printf("result success=%d attempts=%u status=%s degraded=%d "
                "faultsInjected=%llu totalTime=%llu\n",
                result.success ? 1 : 0, result.attempts,
                base::errorName(result.status.error()),
                result.degraded ? 1 : 0,
                static_cast<unsigned long long>(result.faultsInjected),
                static_cast<unsigned long long>(result.totalTime));
    printStats("attemptSeconds", result.stats.attemptSeconds);
    printStats("bitsTargeted", result.stats.bitsTargeted);
    printStats("releasedSubBlocks", result.stats.releasedSubBlocks);
    printStats("demotions", result.stats.demotions);
    printStats("changedPages", result.stats.changedPages);
    printStats("epteCandidates", result.stats.epteCandidates);
    printStats("retries", result.stats.retries);
    for (size_t i = 0; i < result.outcomes.size(); ++i) {
        const attack::AttemptOutcome &o = result.outcomes[i];
        std::printf(
            "outcome %zu success=%d bits=%u released=%llu "
            "demotions=%llu changed=%llu epte=%llu duration=%llu "
            "retries=%u backoff=%llu faults=%llu\n",
            i, o.success ? 1 : 0, o.bitsTargeted,
            static_cast<unsigned long long>(o.releasedSubBlocks),
            static_cast<unsigned long long>(o.demotions),
            static_cast<unsigned long long>(o.changedPages),
            static_cast<unsigned long long>(o.epteCandidates),
            static_cast<unsigned long long>(o.duration), o.retries,
            static_cast<unsigned long long>(o.backoffTime),
            static_cast<unsigned long long>(o.faultsFired));
    }
}

int
cmdSingle(const SweepOptions &opts)
{
    Campaign campaign = buildCampaign(opts);
    const attack::AttackResult result =
        campaign.attack->runAttempts(opts.trials, opts.threads);
    printResult(campaign.attack->campaignFingerprint(), opts.trials,
                result);
    return 0;
}

int
cmdRun(const SweepOptions &opts)
{
    if (opts.out.empty()) {
        std::fprintf(stderr, "hh_sweep run: --out=FILE required\n");
        return 2;
    }
    shard::ShardRange range;
    if (opts.haveRange) {
        range = opts.range;
        if (range.begin > range.end || range.end > opts.trials) {
            std::fprintf(stderr, "hh_sweep run: --range outside the "
                                 "campaign\n");
            return 2;
        }
    } else {
        if (opts.shardIndex >= opts.shardCount) {
            std::fprintf(stderr, "hh_sweep run: shard %u out of range "
                                 "(%u shards)\n",
                         opts.shardIndex, opts.shardCount);
            return 2;
        }
        const std::vector<shard::ShardRange> ranges =
            shard::planShards(opts.trials, opts.shardCount);
        range = ranges[opts.shardIndex];
    }
    Campaign campaign = buildCampaign(opts);

    snapshot::CheckpointPolicy policy;
    if (opts.checkpointEvery > 0) {
        policy.path = opts.out + ".ckpt";
        policy.everyTrials = opts.checkpointEvery;
        policy.resume = opts.resume;
        policy.stopAfterTrials = opts.stopAfter;
    }
    policy.heartbeatPath = opts.heartbeat;
    std::fprintf(stderr,
                 "hh_sweep: shard trials [%llu, %llu)\n",
                 static_cast<unsigned long long>(range.begin),
                 static_cast<unsigned long long>(range.end));
    attack::TrialRangeResult ranged = campaign.attack->runTrialRange(
        range.begin, range.end, opts.threads, policy);

    shard::ShardResult result;
    result.manifest.campaignFingerprint =
        campaign.attack->campaignFingerprint();
    result.manifest.totalTrials = opts.trials;
    result.manifest.range = range;
    result.terminal = !ranged.stopped;
    result.outcomes = std::move(ranged.outcomes);
    const base::Status saved = shard::saveShard(opts.out, result);
    if (!saved.ok()) {
        std::fprintf(stderr, "hh_sweep: cannot write shard '%s': %s\n",
                     opts.out.c_str(),
                     base::errorName(saved.error()));
        return 1;
    }
    if (ranged.stopped) {
        // The artifact above is the abandoned-partial case the merge
        // staleness check and the supervisor takeover must handle: it
        // carries terminal=false and the strict merge answers Busy.
        std::fprintf(stderr,
                     "hh_sweep: shard stopped after %zu trials; "
                     "rerun with --resume to finish\n",
                     result.outcomes.size());
        return 3; // incomplete by request (--stop-after test hook)
    }
    std::fprintf(stderr, "hh_sweep: wrote %s (%zu outcomes)\n",
                 opts.out.c_str(), result.outcomes.size());
    return 0;
}

/**
 * Load merge inputs, classifying partial/abandoned artifacts: a
 * non-terminal artifact younger than --stale-seconds belongs to a
 * worker that may still be running (hard Busy in every mode); a stale
 * one is abandoned and may be taken over -- dropped to a hole under
 * --allow-partial, or rejected with resume guidance otherwise.
 */
int
loadMergeInputs(const SweepOptions &opts,
                const std::vector<std::string> &files,
                std::vector<shard::ShardResult> &shards)
{
    for (const std::string &file : files) {
        auto loaded = shard::loadShard(file);
        if (!loaded) {
            if (opts.allowPartial) {
                std::fprintf(stderr,
                             "hh_sweep: skipping unreadable '%s' "
                             "(%s); its range becomes a hole\n",
                             file.c_str(),
                             base::errorName(loaded.error()));
                continue;
            }
            std::fprintf(stderr, "hh_sweep: cannot load '%s': %s\n",
                         file.c_str(),
                         base::errorName(loaded.error()));
            return 1;
        }
        if (!loaded->terminal || !loaded->complete()) {
            const double age = dispatch::fileAgeSeconds(file);
            if (age >= 0.0 && age <= opts.staleSeconds) {
                std::fprintf(stderr,
                             "hh_sweep: '%s' is a fresh partial "
                             "artifact (age %.0fs); its worker may "
                             "still be running -- retry after it "
                             "finishes or exceeds --stale-seconds\n",
                             file.c_str(), age);
                return 1;
            }
            if (!opts.allowPartial) {
                std::fprintf(stderr,
                             "hh_sweep: '%s' is an abandoned partial "
                             "artifact; finish it with `run --resume` "
                             "or merge with --allow-partial to take "
                             "over its range as a hole\n",
                             file.c_str());
                return 1;
            }
            std::fprintf(stderr,
                         "hh_sweep: taking over abandoned '%s' "
                         "(age %.0fs); its range becomes a hole\n",
                         file.c_str(), age);
            // Keep it in the input set: the partial merge reports a
            // non-terminal shard's whole range as missing.
        }
        shards.push_back(std::move(*loaded));
    }
    return 0;
}

/** Degraded completion: write the gap manifest, report, exit 4. */
int
finishDegraded(const SweepOptions &opts, const std::string &gap_path,
               const std::vector<std::string> &healthy,
               const shard::SweepReport &report)
{
    dispatch::GapManifest manifest;
    manifest.campaignFingerprint = report.campaignFingerprint;
    manifest.totalTrials = report.totalTrials;
    // The trial count comes from the shards' own manifests; the other
    // campaign parameters are only known from the flags, so a manifest
    // written by `merge` is healable only when the campaign flags were
    // repeated on the merge command line (sweep always knows them).
    manifest.campaign.trials = report.totalTrials;
    manifest.campaign.threads = opts.threads;
    manifest.campaign.seed = opts.seed;
    manifest.campaign.hostGib =
        (opts.hostBytes ? opts.hostBytes : 1_GiB) / 1_GiB;
    manifest.campaign.faultSeed = opts.faultSeed;
    manifest.campaign.faultIntensity = opts.faultIntensity;
    manifest.campaign.checkpointEvery =
        opts.checkpointEvery ? opts.checkpointEvery : 1;
    manifest.artifacts = healthy;
    manifest.missing = report.missing;
    const base::Status saved =
        dispatch::saveGapManifest(gap_path, manifest);
    if (!saved.ok()) {
        std::fprintf(stderr,
                     "hh_sweep: cannot write gap manifest '%s'\n",
                     gap_path.c_str());
        return 1;
    }
    for (const shard::ShardRange &hole : report.missing)
        std::fprintf(stderr,
                     "hh_sweep: missing trials [%llu, %llu)\n",
                     static_cast<unsigned long long>(hole.begin),
                     static_cast<unsigned long long>(hole.end));
    std::fprintf(stderr,
                 "hh_sweep: degraded sweep; close the holes with "
                 "`hh_sweep heal --gaps=%s`\n",
                 gap_path.c_str());
    if (report.exact) {
        // The holes start past the campaign's first success: the
        // degraded fold already IS the canonical result.
        printResult(report.campaignFingerprint,
                    static_cast<unsigned>(report.totalTrials),
                    report.result);
    }
    return 4;
}

int
cmdMerge(const SweepOptions &opts)
{
    if (opts.files.empty()) {
        std::fprintf(stderr, "hh_sweep merge: no shard files given\n");
        return 2;
    }
    std::vector<shard::ShardResult> shards;
    shards.reserve(opts.files.size());
    const int rc = loadMergeInputs(opts, opts.files, shards);
    if (rc != 0)
        return rc;
    if (shards.empty()) {
        std::fprintf(stderr, "hh_sweep merge: no usable artifacts\n");
        return 1;
    }
    shard::MergePolicy policy;
    policy.allowPartial = opts.allowPartial;
    auto report =
        shard::mergeShards(std::move(shards), policy);
    if (!report) {
        std::fprintf(stderr, "hh_sweep: merge failed: %s\n",
                     base::errorName(report.error()));
        return 1;
    }
    if (!report->partial()) {
        printResult(report->campaignFingerprint,
                    static_cast<unsigned>(report->totalTrials),
                    report->result);
        return 0;
    }
    std::vector<std::string> healthy;
    for (const std::string &file : opts.files) {
        auto loaded = shard::loadShard(file);
        if (loaded && loaded->terminal && loaded->complete())
            healthy.push_back(file);
    }
    const std::string gap_path = opts.gapManifest.empty()
        ? opts.outDir + "/gaps.json"
        : opts.gapManifest;
    return finishDegraded(opts, gap_path, healthy, *report);
}

std::string
selfExe(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/**
 * The production WorkerLauncher: fork + exec this binary's `run`
 * subcommand for one shard range. Workers always resume (an absent
 * checkpoint starts at the range begin) and always checkpoint, so a
 * reclaimed lease never recomputes a completed-trial prefix.
 */
dispatch::WorkerLauncher
forkLauncher(const std::string &exe, const SweepOptions &opts)
{
    return [exe, opts](const dispatch::WorkerSpec &spec) -> long {
        std::vector<std::string> args = {
            exe,
            "run",
            "--trials=" + std::to_string(opts.trials),
            "--threads=" + std::to_string(opts.threads),
            "--seed=" + std::to_string(opts.seed),
            "--fault-seed=" + std::to_string(opts.faultSeed),
            "--fault-intensity=" + std::to_string(opts.faultIntensity),
            "--range=" + std::to_string(spec.range.begin) + ":"
                + std::to_string(spec.range.end),
            "--out=" + spec.artifactPath,
            "--checkpoint-every="
                + std::to_string(opts.checkpointEvery
                                     ? opts.checkpointEvery : 1),
            "--heartbeat=" + spec.heartbeatPath,
            "--resume",
        };
        if (opts.hostBytes)
            args.push_back("--host-gib="
                           + std::to_string(opts.hostBytes / 1_GiB));

        const pid_t pid = ::fork();
        if (pid < 0)
            return -1;
        if (pid == 0) {
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (std::string &arg : args)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            ::execv(exe.c_str(), argv.data());
            std::fprintf(stderr, "hh_sweep: execv failed\n");
            ::_exit(127);
        }
        return pid;
    };
}

dispatch::SupervisorConfig
supervisorConfig(const SweepOptions &opts, size_t shard_count,
                 const char *prefix, const char *ledger_default,
                 fault::FaultInjector *injector)
{
    dispatch::SupervisorConfig cfg;
    cfg.ledgerPath = opts.ledger.empty()
        ? opts.outDir + "/" + ledger_default : opts.ledger;
    cfg.artifactDir = opts.outDir;
    cfg.artifactPrefix = prefix;
    cfg.leaseSeconds = opts.leaseSeconds;
    cfg.maxAttempts = opts.maxAttempts;
    cfg.backoff.baseMs = opts.backoffMs;
    cfg.backoff.capMs = opts.backoffCapMs;
    cfg.maxParallel = opts.jobs != 0
        ? opts.jobs : static_cast<uint32_t>(shard_count);
    cfg.forceQuarantine = opts.quarantine;
    cfg.injector = injector;
    return cfg;
}

void
printSweepStats(const dispatch::Supervisor &sup)
{
    const dispatch::SweepStats &s = sup.stats();
    std::fprintf(stderr,
                 "hh_sweep: launches=%llu retries=%llu "
                 "leaseExpiries=%llu spawnFailures=%llu "
                 "tornArtifacts=%llu heartbeatLoss=%llu "
                 "quarantines=%llu mergeBusyRetries=%llu "
                 "ledgerSaves=%llu\n",
                 static_cast<unsigned long long>(s.launches),
                 static_cast<unsigned long long>(s.retries),
                 static_cast<unsigned long long>(s.leaseExpiries),
                 static_cast<unsigned long long>(s.spawnFailures),
                 static_cast<unsigned long long>(s.tornArtifacts),
                 static_cast<unsigned long long>(
                     s.heartbeatLossFaults),
                 static_cast<unsigned long long>(s.quarantines),
                 static_cast<unsigned long long>(s.mergeBusyRetries),
                 static_cast<unsigned long long>(s.ledgerSaves));
}

int
cmdSweep(const SweepOptions &opts, const char *argv0)
{
    if (opts.shards == 0) {
        std::fprintf(stderr, "hh_sweep sweep: --shards must be > 0\n");
        return 2;
    }
    (void)::mkdir(opts.outDir.c_str(), 0777); // EEXIST is fine
    Campaign campaign = buildCampaign(opts);
    const uint64_t fingerprint =
        campaign.attack->campaignFingerprint();
    const std::vector<shard::ShardRange> ranges =
        shard::planShards(opts.trials, opts.shards);

    // Chaos plan for the dispatch.* sites. Host sites in the plan are
    // irrelevant here: the supervisor only consults dispatch sites.
    std::unique_ptr<fault::FaultInjector> injector;
    if (opts.dispatchFaultIntensity > 0.0)
        injector = std::make_unique<fault::FaultInjector>(
            fault::FaultPlan::randomized(opts.dispatchFaultSeed,
                                         opts.dispatchFaultIntensity),
            base::mix64(fingerprint, opts.dispatchFaultSeed));

    dispatch::Supervisor sup(
        supervisorConfig(opts, ranges.size(), "shard_", "ledger.bin",
                         injector.get()),
        forkLauncher(selfExe(argv0), opts));
    const base::Status opened =
        sup.openSweep(fingerprint, opts.trials, ranges, opts.resume);
    if (!opened.ok()) {
        std::fprintf(stderr, "hh_sweep: cannot open sweep: %s%s\n",
                     base::errorName(opened.error()),
                     opts.resume ? " (ledger mismatch or unreadable)"
                                 : "");
        return 1;
    }
    auto report = sup.runSweep();
    printSweepStats(sup);
    if (!report) {
        std::fprintf(stderr, "hh_sweep: sweep failed: %s\n",
                     base::errorName(report.error()));
        return 1;
    }
    if (!report->partial()) {
        printResult(fingerprint, opts.trials, report->result);
        return 0;
    }
    std::vector<std::string> healthy;
    for (const dispatch::ShardJob &job : sup.ledger().jobs) {
        if (job.state == dispatch::ShardState::Done)
            healthy.push_back(sup.artifactPath(job.index));
    }
    const std::string gap_path = opts.gapManifest.empty()
        ? opts.outDir + "/gaps.json"
        : opts.gapManifest;
    return finishDegraded(opts, gap_path, healthy, *report);
}

int
cmdHeal(const SweepOptions &opts, const char *argv0)
{
    if (opts.gaps.empty()) {
        std::fprintf(stderr, "hh_sweep heal: --gaps=FILE required\n");
        return 2;
    }
    auto manifest = dispatch::loadGapManifest(opts.gaps);
    if (!manifest) {
        std::fprintf(stderr,
                     "hh_sweep heal: cannot load '%s': %s\n",
                     opts.gaps.c_str(),
                     base::errorName(manifest.error()));
        return 1;
    }

    // Rebuild the campaign the manifest describes; supervisor knobs
    // stay CLI-controlled.
    SweepOptions copts = opts;
    copts.trials = static_cast<unsigned>(manifest->campaign.trials);
    copts.threads = manifest->campaign.threads;
    copts.seed = manifest->campaign.seed;
    copts.hostBytes = manifest->campaign.hostGib * 1_GiB;
    copts.faultSeed = manifest->campaign.faultSeed;
    copts.faultIntensity = manifest->campaign.faultIntensity;
    copts.checkpointEvery = manifest->campaign.checkpointEvery;
    Campaign campaign = buildCampaign(copts);
    const uint64_t fingerprint =
        campaign.attack->campaignFingerprint();
    if (fingerprint != manifest->campaignFingerprint) {
        std::fprintf(stderr,
                     "hh_sweep heal: rebuilt campaign fingerprint "
                     "%016llx does not match the manifest's %016llx\n",
                     static_cast<unsigned long long>(fingerprint),
                     static_cast<unsigned long long>(
                         manifest->campaignFingerprint));
        return 1;
    }

    // The healthy artifacts must still be exactly what the manifest
    // promised: terminal, complete and of this campaign.
    std::vector<shard::ShardResult> shards;
    shards.reserve(manifest->artifacts.size()
                   + manifest->missing.size());
    for (const std::string &file : manifest->artifacts) {
        auto loaded = shard::loadShard(file);
        if (!loaded || !loaded->terminal || !loaded->complete()
            || loaded->manifest.campaignFingerprint != fingerprint) {
            std::fprintf(stderr,
                         "hh_sweep heal: healthy artifact '%s' is no "
                         "longer usable\n",
                         file.c_str());
            return 1;
        }
        shards.push_back(std::move(*loaded));
    }

    if (!manifest->missing.empty()) {
        (void)::mkdir(opts.outDir.c_str(), 0777); // EEXIST is fine
        std::unique_ptr<fault::FaultInjector> injector;
        if (opts.dispatchFaultIntensity > 0.0)
            injector = std::make_unique<fault::FaultInjector>(
                fault::FaultPlan::randomized(
                    opts.dispatchFaultSeed,
                    opts.dispatchFaultIntensity),
                base::mix64(fingerprint, opts.dispatchFaultSeed));
        dispatch::Supervisor sup(
            supervisorConfig(opts, manifest->missing.size(), "heal_",
                             "heal_ledger.bin", injector.get()),
            forkLauncher(selfExe(argv0), copts));
        const base::Status opened = sup.openSweep(
            fingerprint, copts.trials, manifest->missing, opts.resume);
        if (!opened.ok()) {
            std::fprintf(stderr,
                         "hh_sweep heal: cannot open: %s\n",
                         base::errorName(opened.error()));
            return 1;
        }
        auto healed = sup.runSweep();
        printSweepStats(sup);
        if (!healed) {
            std::fprintf(stderr, "hh_sweep heal: failed: %s\n",
                         base::errorName(healed.error()));
            return 1;
        }
        for (const dispatch::ShardJob &job : sup.ledger().jobs) {
            if (job.state != dispatch::ShardState::Done)
                continue;
            auto loaded =
                shard::loadShard(sup.artifactPath(job.index));
            if (!loaded) {
                std::fprintf(stderr,
                             "hh_sweep heal: lost heal artifact "
                             "'%s'\n",
                             sup.artifactPath(job.index).c_str());
                return 1;
            }
            shards.push_back(std::move(*loaded));
        }
        if (sup.ledger().quarantined() > 0) {
            // Still degraded: leave an updated manifest behind so a
            // later heal run only chases what remains.
            shard::MergePolicy policy;
            policy.allowPartial = true;
            auto report =
                shard::mergeShards(std::move(shards), policy);
            if (!report) {
                std::fprintf(stderr,
                             "hh_sweep heal: merge failed: %s\n",
                             base::errorName(report.error()));
                return 1;
            }
            std::vector<std::string> healthy = manifest->artifacts;
            for (const dispatch::ShardJob &job : sup.ledger().jobs) {
                if (job.state == dispatch::ShardState::Done)
                    healthy.push_back(sup.artifactPath(job.index));
            }
            return finishDegraded(copts, opts.gaps, healthy, *report);
        }
    }

    auto merged = shard::mergeShards(std::move(shards));
    if (!merged) {
        std::fprintf(stderr, "hh_sweep heal: merge failed: %s\n",
                     base::errorName(merged.error()));
        return 1;
    }
    printResult(fingerprint, copts.trials, *merged);
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: hh_sweep <single|run|merge|sweep|heal> [flags]\n"
        "  single  run the whole campaign in-process, print dump\n"
        "  run     run one shard: --shard=I/K | --range=B:E, "
        "--out=FILE\n"
        "  merge   merge shard artifacts: FILE... "
        "[--allow-partial --stale-seconds=S --gap-manifest=FILE]\n"
        "  sweep   supervise --shards=K workers, merge, print\n"
        "  heal    finish a degraded sweep: --gaps=FILE\n"
        "campaign flags: --trials=N --threads=N --seed=N "
        "--host-gib=N\n"
        "       --fault-seed=N --fault-intensity=X\n"
        "       --checkpoint-every=N --resume --stop-after=N\n"
        "       --heartbeat=FILE (run) --out-dir=DIR (sweep/heal)\n"
        "supervisor flags: --jobs=P --lease-seconds=X "
        "--max-attempts=M\n"
        "       --backoff-ms=N --backoff-cap-ms=N --ledger=FILE\n"
        "       --gap-manifest=FILE --quarantine=I[,J...]\n"
        "       --dispatch-fault-seed=N "
        "--dispatch-fault-intensity=X\n"
        "exit: 0 ok, 1 error, 2 usage, 3 stopped, 4 degraded "
        "(gap manifest written)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const SweepOptions opts = SweepOptions::parse(argc, argv);
    if (cmd == "single")
        return cmdSingle(opts);
    if (cmd == "run")
        return cmdRun(opts);
    if (cmd == "merge")
        return cmdMerge(opts);
    if (cmd == "sweep")
        return cmdSweep(opts, argv[0]);
    if (cmd == "heal")
        return cmdHeal(opts, argv[0]);
    usage();
    return 2;
}
