/**
 * @file
 * Sharded campaign sweep driver.
 *
 * Splits a Monte-Carlo campaign of N trials into contiguous
 * seed-range shards, runs each shard as an independent OS process
 * and merges their range records. `sweep` is a plain launcher over
 * `run` and `merge`: it rescans <out-dir>/shard_I.bin, forks up to
 * --jobs `run --resume` workers, one for each range without a
 * finishing record, waits for all of them and merges the finishing
 * records as `merge --allow-partial` does. The records are a sweep's
 * only state, so rerunning the same sweep launches only its holes.
 * There are no leases or retries: a hung worker hangs the sweep, and
 * the caller's timeout bounds it. Each process profiles its own host
 * -- the campaign is a pure function of the configuration, so every
 * process derives the identical host-physical profile and fingerprint
 * -- and the merged result is bitwise-identical to a single-process
 * runAttempts() at any shard count x thread count, which `single` and
 * the sweep/merge paths make checkable by printing the same canonical
 * dump: the hh_sweep_resume_cycle ctest byte-diffs them
 * (docs/distributed_sweeps.md).
 *
 * Subcommands:
 *   single                  run the campaign in-process, print dump
 *   run   --shard=I/K --out=F  run shard I of K, write record F
 *         --range=B:E         ... or an explicit trial range
 *   merge FILE...           merge range records, print dump
 *   sweep --shards=K        run K shard workers, merge, print
 *
 * Campaign flags: --trials=N --threads=N --seed=N --host-gib=N
 *   --fault-seed=N --fault-intensity=X (X > 0 installs a randomized
 *   FaultPlan) --checkpoint-every=N
 * Run flags: --resume (refuses a record of another campaign or range
 *   at --out) --stop-after=N
 * Merge flags: --allow-partial
 * Sweep flags: --out-dir=DIR --jobs=P (0: one worker per range)
 * A numeric flag's value must parse whole, or the run is a usage
 * error.
 *
 * Exit codes: 0 success (canonical dump on stdout), 1 error, 2 usage,
 * 3 stopped early (--stop-after test hook), 4 degraded -- the sweep
 * or merge completed with missing ranges, each named on stderr;
 * rerunning the sweep (for a merge: `run --range=B:E --out=FILE
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
#include <map>
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
    unsigned jobs = 0; // 0 = one worker per range
    bool allowPartial = false;
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
            else if (name == "jobs")
                parseNumber(name, v, opts.jobs);
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

/**
 * True, after naming @p path on stderr, when @p record (loaded from
 * @p path) is a readable record of another campaign or range than
 * @p range of campaign (@p fingerprint, @p trials). `run --resume` and
 * `sweep` refuse such a record before they write anything; a missing
 * or unreadable one only means the range starts over.
 */
bool
isForeign(const base::Expected<attack::RangeRecord> &record,
          const std::string &path, uint64_t fingerprint, unsigned trials,
          const shard::ShardRange &range)
{
    if (!record
        || record->belongsTo(fingerprint, trials, range.begin, range.end))
        return false;
    std::fprintf(stderr,
                 "hh_sweep: '%s' holds a record of another campaign or "
                 "range; refusing to write over it\n",
                 path.c_str());
    return true;
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
    if (opts.resume
        && isForeign(attack::loadRangeRecord(opts.out), opts.out,
                     campaign.attack->campaignFingerprint(), opts.trials,
                     range))
        return 1;

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
        // The record left behind is non-terminal: the strict merge
        // answers Busy for it and a partial merge names it a hole.
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
 * Merge @p shards and print the outcome: the dump and 0 when they
 * finish the campaign. Under @p allow_partial an unfinished or absent
 * range is a hole: each is named on stderr with @p hint (how to close
 * them), the dump follows when it is exact anyway, and the exit is 4.
 * Any other merge failure (strictly: an unfinished record is Busy) is
 * an error (1).
 */
int
printMerge(std::vector<attack::RangeRecord> shards, bool allow_partial,
           const char *hint)
{
    shard::MergePolicy policy;
    policy.allowPartial = allow_partial;
    auto report = shard::mergeShards(std::move(shards), policy);
    if (!report) {
        std::fprintf(stderr, "hh_sweep: merge failed: %s\n",
                     base::errorName(report.error()));
        return 1;
    }
    for (const shard::ShardRange &hole : report->missing)
        std::fprintf(stderr,
                     "hh_sweep: missing trials [%llu, %llu)\n",
                     static_cast<unsigned long long>(hole.begin),
                     static_cast<unsigned long long>(hole.end));
    if (report->partial())
        std::fprintf(stderr, "hh_sweep: %s\n", hint);
    // A degraded fold whose holes all start past the campaign's first
    // success already IS the canonical result.
    if (report->exact)
        printResult(report->campaignFingerprint,
                    static_cast<unsigned>(report->totalTrials),
                    report->result);
    return report->partial() ? 4 : 0;
}

int
cmdMerge(const SweepOptions &opts)
{
    if (opts.files.empty()) {
        std::fprintf(stderr, "hh_sweep merge: no shard files given\n");
        return 2;
    }
    // An unreadable record is skipped under --allow-partial, so the
    // merge names its range a hole, and is an error otherwise.
    std::vector<attack::RangeRecord> shards;
    for (const std::string &file : opts.files) {
        auto loaded = attack::loadRangeRecord(file);
        if (loaded) {
            shards.push_back(std::move(*loaded));
            continue;
        }
        std::fprintf(stderr, "hh_sweep: cannot load '%s': %s%s\n",
                     file.c_str(), base::errorName(loaded.error()),
                     opts.allowPartial ? "; its range becomes a hole" : "");
        if (!opts.allowPartial)
            return 1;
    }
    if (shards.empty()) {
        std::fprintf(stderr, "hh_sweep merge: no usable records\n");
        return 1;
    }
    return printMerge(std::move(shards), opts.allowPartial,
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
 * Fork + exec @p exe's `run --resume` for @p range with its record at
 * @p out; the worker's pid, or -1 when the fork fails. The worker
 * resumes whatever prefix the record holds (an absent one starts at
 * the range begin) and rewrites it every block.
 */
pid_t
launchWorker(const std::string &exe, const SweepOptions &opts,
             const shard::ShardRange &range, const std::string &out)
{
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
        "--range=" + std::to_string(range.begin) + ":"
            + std::to_string(range.end),
        "--out=" + out,
        "--checkpoint-every="
            + std::to_string(opts.checkpointEvery ? opts.checkpointEvery
                                                  : 1),
        "--host-gib=" + std::to_string(opts.hostGib),
        "--resume",
    };
    const pid_t pid = ::fork();
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
    std::vector<std::string> paths;
    for (size_t i = 0; i < ranges.size(); ++i)
        paths.push_back(opts.outDir + "/shard_" + std::to_string(i)
                        + ".bin");

    // Rescan before anything is written: a foreign record refuses the
    // sweep, and every range without a finishing record is launched.
    std::vector<size_t> todo;
    for (size_t i = 0; i < ranges.size(); ++i) {
        const auto record = attack::loadRangeRecord(paths[i]);
        if (isForeign(record, paths[i], fingerprint, opts.trials,
                      ranges[i]))
            return 1;
        if (!record
            || !record->finishes(fingerprint, opts.trials,
                                 ranges[i].begin, ranges[i].end))
            todo.push_back(i);
    }

    // Keep up to --jobs workers running until every one has exited.
    const std::string exe = selfExe(argv0);
    const size_t jobs = opts.jobs != 0 ? opts.jobs : todo.size();
    std::map<pid_t, size_t> running; // worker pid -> range index
    std::vector<bool> failed(ranges.size(), false);
    const auto fail = [&](size_t i) {
        failed[i] = true;
        std::fprintf(stderr,
                     "hh_sweep: the worker of trials [%llu, %llu) failed\n",
                     static_cast<unsigned long long>(ranges[i].begin),
                     static_cast<unsigned long long>(ranges[i].end));
    };
    for (size_t next = 0; next < todo.size() || !running.empty();) {
        if (next < todo.size() && running.size() < jobs) {
            const size_t i = todo[next++];
            std::fprintf(stderr,
                         "hh_sweep: launching trials [%llu, %llu)\n",
                         static_cast<unsigned long long>(ranges[i].begin),
                         static_cast<unsigned long long>(ranges[i].end));
            const pid_t pid =
                launchWorker(exe, opts, ranges[i], paths[i]);
            if (pid < 0)
                fail(i);
            else
                running[pid] = i;
            continue;
        }
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, 0);
        if (pid < 0 && errno != EINTR)
            break; // no worker left to wait for
        const auto worker = running.find(pid);
        if (worker == running.end())
            continue;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            fail(worker->second);
        running.erase(worker);
    }

    // Merge every finishing record. A range without one, or whose
    // worker failed even though its record finishes, is a hole.
    std::vector<attack::RangeRecord> shards;
    for (size_t i = 0; i < ranges.size(); ++i) {
        auto record = attack::loadRangeRecord(paths[i]);
        if (!failed[i] && record
            && record->finishes(fingerprint, opts.trials, ranges[i].begin,
                                ranges[i].end))
            shards.push_back(std::move(*record));
    }
    // With no finishing record at all, one empty unfinished record
    // stands for the campaign, so the merge names all of it a hole.
    if (shards.empty())
        shards.push_back(attack::RangeRecord{fingerprint, opts.trials, 0,
                                             opts.trials, false, {}});
    return printMerge(std::move(shards), true,
                      "degraded sweep; rerun the same sweep to launch "
                      "only the missing ranges");
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
        "          [--resume --stop-after=N]\n"
        "  merge   merge range records: FILE... [--allow-partial]\n"
        "  sweep   run --shards=K workers, --jobs=P at a time, with "
        "records in\n"
        "          --out-dir=DIR, then merge and print; a rerun "
        "launches only\n"
        "          the ranges without a finishing record\n"
        "campaign flags: --trials=N --threads=N --seed=N "
        "--host-gib=N\n"
        "       --fault-seed=N --fault-intensity=X "
        "--checkpoint-every=N\n"
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
