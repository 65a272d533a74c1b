/**
 * @file
 * Supervised sharded campaign sweep driver.
 *
 * Splits a Monte-Carlo campaign of N trials into contiguous
 * seed-range shards and drives each shard as an independent OS
 * process under the hh::dispatch supervisor: leases refreshed by the
 * workers' range records, deterministic retry backoff, a per-shard
 * attempt cap and quarantine. The range records are the sweep's only
 * on-disk state, so `kill -9` of the supervisor, or a degraded sweep,
 * is finished by `sweep --resume`, which rescans them and relaunches
 * only the ranges without a finishing record. Each process profiles
 * its own host -- the campaign is a pure function of the
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
 *
 * Campaign flags: --trials=N --threads=N --seed=N --host-gib=N
 *   --fault-seed=N --fault-intensity=X (X > 0 installs a randomized
 *   FaultPlan) --checkpoint-every=N --resume --stop-after=N
 * Merge flags: --allow-partial --stale-seconds=S
 * Supervisor flags (sweep): --out-dir=DIR --jobs=P --lease-seconds=X
 *   --max-attempts=M --backoff-ms=N --backoff-cap-ms=N
 *   --quarantine=I[,J...] --dispatch-fault-seed=N
 *   --dispatch-fault-intensity=X
 * A numeric flag's value must parse whole, or the run is a usage
 * error.
 *
 * Exit codes: 0 success (canonical dump on stdout), 1 error, 2 usage,
 * 3 stopped early (--stop-after test hook), 4 degraded -- the sweep
 * or merge completed with missing ranges, each named on stderr;
 * `sweep --resume` (for a merge: `run --range=B:E --out=FILE
 * --resume` per hole) closes them to the bitwise-identical full
 * result.
 *
 * The dump deliberately excludes resumedTrials (bookkeeping of *how*
 * a result was computed, not *what* it is -- the same masking
 * snapshot::verifyResumeIdentity applies). Everything else is an
 * integer -- the campaign totals and every outcome record -- so a
 * byte-equal dump means a bitwise-equal result.
 */

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "hyperhammer/hyperhammer.h"

using namespace hh;

namespace {

/**
 * Parse @p text whole into @p out: an unsigned integer (any C base)
 * or a double. An empty, partly parsed or out-of-range value is a
 * usage error naming --@p flag.
 */
template <typename T>
void
parseNumber(const std::string &flag, const std::string &text, T &out)
{
    char *end = nullptr;
    errno = 0;
    bool ok = !text.empty();
    if constexpr (std::is_floating_point_v<T>) {
        out = std::strtod(text.c_str(), &end);
    } else {
        const unsigned long long wide =
            std::strtoull(text.c_str(), &end, 0);
        ok = ok && std::isdigit(static_cast<unsigned char>(text[0]))
            && wide <= std::numeric_limits<T>::max();
        out = static_cast<T>(wide);
    }
    if (!ok || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "hh_sweep: bad --%s\n", flag.c_str());
        std::exit(2);
    }
}

struct SweepOptions
{
    unsigned trials = 8;
    unsigned threads = 1;
    uint64_t seed = 1;
    uint64_t hostGib = 0; // 0 = 1 GiB
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
    unsigned shards = 4;
    // Merge behaviour.
    bool allowPartial = false;
    double staleSeconds = 300.0;
    // Supervisor knobs.
    unsigned jobs = 0; // 0 = one worker per shard
    double leaseSeconds = 30.0;
    uint32_t maxAttempts = 3;
    uint64_t backoffMs = 200;
    uint64_t backoffCapMs = 5'000;
    std::vector<uint32_t> quarantine;
    uint64_t dispatchFaultSeed = 0;
    double dispatchFaultIntensity = 0.0;
    std::vector<std::string> files;

    static SweepOptions
    parse(int argc, char **argv)
    {
        SweepOptions opts;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            // "--name=v"; any other "--" argument matches no name.
            const size_t eq = arg.find('=');
            const bool valued =
                eq != std::string::npos && arg.rfind("--", 0) == 0;
            const std::string name = valued ? arg.substr(2, eq - 2) : "";
            const std::string v = valued ? arg.substr(eq + 1) : "";
            // The two halves of "A<sep>B", each parsed whole; a
            // missing separator leaves B empty, a usage error.
            const auto halves = [&v](char sep, const char *want,
                                     auto &first, auto &second) {
                const size_t at = v.find(sep);
                parseNumber(want, v.substr(0, at), first);
                parseNumber(want,
                            at == std::string::npos ? "" : v.substr(at + 1),
                            second);
            };
            if (arg == "--allow-partial")
                opts.allowPartial = true;
            else if (arg == "--resume")
                opts.resume = true;
            else if (arg.rfind("--", 0) != 0)
                opts.files.push_back(arg);
            else if (name == "trials")
                parseNumber(name, v, opts.trials);
            else if (name == "threads")
                parseNumber(name, v, opts.threads);
            else if (name == "seed")
                parseNumber(name, v, opts.seed);
            else if (name == "host-gib")
                parseNumber(name, v, opts.hostGib);
            else if (name == "fault-seed")
                parseNumber(name, v, opts.faultSeed);
            else if (name == "fault-intensity")
                parseNumber(name, v, opts.faultIntensity);
            else if (name == "checkpoint-every")
                parseNumber(name, v, opts.checkpointEvery);
            else if (name == "stop-after")
                parseNumber(name, v, opts.stopAfter);
            else if (name == "shard")
                halves('/', "shard (want I/K)", opts.shardIndex,
                       opts.shardCount);
            else if (name == "range") {
                halves(':', "range (want B:E)", opts.range.begin,
                       opts.range.end);
                opts.haveRange = true;
            } else if (name == "out")
                opts.out = v;
            else if (name == "out-dir")
                opts.outDir = v;
            else if (name == "shards")
                parseNumber(name, v, opts.shards);
            else if (name == "stale-seconds")
                parseNumber(name, v, opts.staleSeconds);
            else if (name == "jobs")
                parseNumber(name, v, opts.jobs);
            else if (name == "lease-seconds")
                parseNumber(name, v, opts.leaseSeconds);
            else if (name == "max-attempts")
                parseNumber(name, v, opts.maxAttempts);
            else if (name == "backoff-ms")
                parseNumber(name, v, opts.backoffMs);
            else if (name == "backoff-cap-ms")
                parseNumber(name, v, opts.backoffCapMs);
            else if (name == "quarantine") {
                // I[,J...]: every comma-separated entry is a number.
                for (size_t at = 0;;) {
                    const size_t comma = v.find(',', at);
                    uint32_t index = 0;
                    parseNumber("quarantine (want I[,J...])",
                                v.substr(at, comma - at), index);
                    opts.quarantine.push_back(index);
                    if (comma == std::string::npos)
                        break;
                    at = comma + 1;
                }
            } else if (name == "dispatch-fault-seed")
                parseNumber(name, v, opts.dispatchFaultSeed);
            else if (name == "dispatch-fault-intensity")
                parseNumber(name, v, opts.dispatchFaultIntensity);
            else {
                std::fprintf(stderr, "hh_sweep: unknown flag %s\n",
                             arg.c_str());
                std::exit(2);
            }
        }
        return opts;
    }
};

sys::SystemConfig
campaignHostConfig(const SweepOptions &opts)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(opts.seed).withMemory(
        (opts.hostGib ? opts.hostGib : 1) * 1_GiB);
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
    if (opts.stopAfter > 0 && opts.checkpointEvery == 0) {
        // A range stops only at a block end, and without a cadence the
        // whole range is one block.
        std::fprintf(stderr, "hh_sweep run: --stop-after needs "
                             "--checkpoint-every\n");
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

    // The range record at --out is both the checkpoint a resume
    // reads and the artifact merge reads.
    snapshot::CheckpointPolicy policy;
    policy.path = opts.out;
    policy.everyTrials = opts.checkpointEvery;
    policy.resume = opts.resume;
    policy.stopAfterTrials = opts.stopAfter;
    std::fprintf(stderr,
                 "hh_sweep: shard trials [%llu, %llu)\n",
                 static_cast<unsigned long long>(range.begin),
                 static_cast<unsigned long long>(range.end));
    const attack::TrialRangeResult ranged = campaign.attack->runTrialRange(
        range.begin, range.end, opts.threads, policy);
    if (!ranged.saved.ok()) {
        std::fprintf(stderr, "hh_sweep: cannot write shard '%s': %s\n",
                     opts.out.c_str(),
                     base::errorName(ranged.saved.error()));
        return 1;
    }
    if (ranged.stopped) {
        // The record left behind is the abandoned-partial case the
        // merge staleness check and the supervisor takeover must
        // handle: it is non-terminal and the strict merge answers Busy.
        std::fprintf(stderr,
                     "hh_sweep: shard stopped after %zu trials; "
                     "rerun with --resume to finish\n",
                     ranged.outcomes.size());
        return 3; // incomplete by request (--stop-after test hook)
    }
    std::fprintf(stderr, "hh_sweep: wrote %s (%zu outcomes)\n",
                 opts.out.c_str(), ranged.outcomes.size());
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
                std::vector<attack::RangeRecord> &shards)
{
    for (const std::string &file : opts.files) {
        auto loaded = attack::loadRangeRecord(file);
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

/**
 * Degraded completion: name every missing range on stderr with
 * @p hint (how to close the holes), print the dump when it is exact
 * anyway, exit 4.
 */
int
finishDegraded(const shard::SweepReport &report, const char *hint)
{
    for (const shard::ShardRange &hole : report.missing)
        std::fprintf(stderr,
                     "hh_sweep: missing trials [%llu, %llu)\n",
                     static_cast<unsigned long long>(hole.begin),
                     static_cast<unsigned long long>(hole.end));
    std::fprintf(stderr, "hh_sweep: %s\n", hint);
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
    std::vector<attack::RangeRecord> shards;
    const int rc = loadMergeInputs(opts, shards);
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
    return finishDegraded(*report,
                          "degraded merge; finish each missing range "
                          "with `hh_sweep run --range=B:E --out=FILE "
                          "--resume` and merge again");
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
 * subcommand for one shard range. Workers always resume from the
 * range record at their artifact path (an absent record starts at the
 * range begin) and rewrite it every block, so a reclaimed lease never
 * recomputes a completed-trial prefix.
 */
dispatch::WorkerLauncher
forkLauncher(const std::string &exe, const SweepOptions &opts)
{
    return [exe, opts](const dispatch::WorkerSpec &spec) -> long {
        // %.17g round-trips the double (std::to_string keeps six
        // decimals), so the worker rebuilds the exact campaign.
        char intensity[32];
        std::snprintf(intensity, sizeof(intensity), "%.17g",
                      opts.faultIntensity);
        std::vector<std::string> args = {
            exe,
            "run",
            "--trials=" + std::to_string(opts.trials),
            "--threads=" + std::to_string(opts.threads),
            "--seed=" + std::to_string(opts.seed),
            "--fault-seed=" + std::to_string(opts.faultSeed),
            "--fault-intensity=" + std::string(intensity),
            "--range=" + std::to_string(spec.range.begin) + ":"
                + std::to_string(spec.range.end),
            "--out=" + spec.artifactPath,
            "--checkpoint-every="
                + std::to_string(opts.checkpointEvery
                                     ? opts.checkpointEvery : 1),
            "--host-gib=" + std::to_string(opts.hostGib),
            "--resume",
        };

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

    dispatch::SupervisorConfig cfg;
    cfg.artifactDir = opts.outDir;
    cfg.leaseSeconds = opts.leaseSeconds;
    cfg.maxAttempts = opts.maxAttempts;
    cfg.backoff.baseMs = opts.backoffMs;
    cfg.backoff.capMs = opts.backoffCapMs;
    cfg.maxParallel = opts.jobs != 0 ? opts.jobs : opts.shards;
    cfg.forceQuarantine = opts.quarantine;
    cfg.injector = injector.get();
    dispatch::Supervisor sup(cfg, forkLauncher(selfExe(argv0), opts));
    const base::Status opened =
        sup.openSweep(fingerprint, opts.trials, ranges, opts.resume);
    if (!opened.ok()) {
        std::fprintf(stderr, "hh_sweep: cannot open sweep: %s%s\n",
                     base::errorName(opened.error()),
                     opts.resume ? " (a record of another campaign or "
                                   "range is in --out-dir)"
                                 : "");
        return 1;
    }
    auto report = sup.runSweep();
    const dispatch::SweepStats &s = sup.stats();
    std::fprintf(stderr,
                 "hh_sweep: launches=%llu retries=%llu "
                 "leaseExpiries=%llu spawnFailures=%llu "
                 "tornArtifacts=%llu heartbeatLoss=%llu "
                 "quarantines=%llu mergeBusyRetries=%llu\n",
                 static_cast<unsigned long long>(s.launches),
                 static_cast<unsigned long long>(s.retries),
                 static_cast<unsigned long long>(s.leaseExpiries),
                 static_cast<unsigned long long>(s.spawnFailures),
                 static_cast<unsigned long long>(s.tornArtifacts),
                 static_cast<unsigned long long>(s.heartbeatLossFaults),
                 static_cast<unsigned long long>(s.quarantines),
                 static_cast<unsigned long long>(s.mergeBusyRetries));
    if (!report) {
        std::fprintf(stderr, "hh_sweep: sweep failed: %s\n",
                     base::errorName(report.error()));
        return 1;
    }
    if (!report->partial()) {
        printResult(fingerprint, opts.trials, report->result);
        return 0;
    }
    return finishDegraded(*report,
                          "degraded sweep; close the holes with "
                          "`hh_sweep sweep <the same campaign flags> "
                          "--resume`");
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: hh_sweep <single|run|merge|sweep> [flags]\n"
        "  single  run the whole campaign in-process, print dump\n"
        "  run     run one shard: --shard=I/K | --range=B:E, "
        "--out=FILE\n"
        "  merge   merge shard artifacts: FILE... "
        "[--allow-partial --stale-seconds=S]\n"
        "  sweep   supervise --shards=K workers, merge, print;\n"
        "          --resume relaunches only the ranges whose record "
        "in --out-dir is unfinished\n"
        "campaign flags: --trials=N --threads=N --seed=N "
        "--host-gib=N\n"
        "       --fault-seed=N --fault-intensity=X\n"
        "       --checkpoint-every=N --resume --stop-after=N\n"
        "       --out-dir=DIR (sweep)\n"
        "supervisor flags: --jobs=P --lease-seconds=X "
        "--max-attempts=M\n"
        "       --backoff-ms=N --backoff-cap-ms=N "
        "--quarantine=I[,J...]\n"
        "       --dispatch-fault-seed=N "
        "--dispatch-fault-intensity=X\n"
        "exit: 0 ok, 1 error, 2 usage, 3 stopped, 4 degraded "
        "(missing ranges named on stderr)\n");
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
    usage();
    return 2;
}
