/**
 * @file
 * Sharded campaign sweep driver.
 *
 * Splits a Monte-Carlo campaign of N trials into contiguous
 * seed-range shards, runs each shard as an independent OS process
 * and merges their range records. `sweep` is a plain launcher over
 * `run` and `merge`: it rescans <out-dir>/shard_I.bin, forks up to
 * --jobs `run` workers, one for each range without a finishing
 * record, waits for all of them and merges the finishing records as
 * `merge` does. The records are a sweep's only state, so rerunning
 * the same sweep launches only its holes.
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
 *   run   --shard=I/K --out=F  run shard I of K, write record F,
 *         --range=B:E         ... or an explicit trial range; a
 *                             record of that range at F is resumed
 *                             and one of another campaign or range
 *                             is refused
 *   merge FILE...           merge range records, print dump
 *   sweep --shards=K        run K shard workers, merge, print
 *
 * Campaign flags: --trials=N --threads=N --seed=N --host-gib=N
 *   --fault-seed=N --fault-intensity=X (X > 0 installs a randomized
 *   FaultPlan) --checkpoint-every=N
 * Sweep flags: --out-dir=DIR --jobs=P (0: one worker per range)
 * A numeric flag's value must parse whole, or the run is a usage
 * error.
 *
 * Exit codes: 0 success (canonical dump on stdout), 1 error, 2 usage,
 * 4 degraded -- the sweep or merge completed with missing ranges,
 * each named on stderr; rerunning the sweep (for a merge: `run
 * --range=B:E --out=FILE` per hole) closes them to the
 * bitwise-identical full result. A `run` killed mid-range leaves an
 * unfinished record that rerunning it resumes. To start a range over,
 * delete its record (and the record's .prev).
 *
 * The dump deliberately excludes resumedTrials (bookkeeping of *how*
 * a result was computed, not *what* it is). Everything else is an
 * integer -- the campaign totals and every outcome record -- so a
 * byte-equal dump means a bitwise-equal result.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/parse_number.h"
#include "hyperhammer/hyperhammer.h"

using namespace hh;

namespace {

struct SweepOptions
{
    unsigned trials = 8;
    unsigned threads = 1;
    uint64_t seed = 1;
    uint64_t hostGib = 0; // 0 = 1 GiB
    uint64_t faultSeed = 0;
    double faultIntensity = 0.0;
    uint64_t checkpointEvery = 0;
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    bool haveRange = false;
    attack::ShardRange range;
    std::string out;
    std::string outDir = ".";
    unsigned shards = 4;
    unsigned jobs = 0; // 0 = one worker per range
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
            const auto halves = [&v, argv](char sep, const char *want,
                                           auto &first, auto &second) {
                const size_t at = v.find(sep);
                base::parseNumber(argv[0], want, v.substr(0, at), first);
                base::parseNumber(
                    argv[0], want,
                    at == std::string::npos ? "" : v.substr(at + 1),
                    second);
            };
            if (arg.rfind("--", 0) != 0)
                opts.files.push_back(arg);
            else if (name == "trials")
                base::parseNumber(argv[0], name, v, opts.trials);
            else if (name == "threads")
                base::parseNumber(argv[0], name, v, opts.threads);
            else if (name == "seed")
                base::parseNumber(argv[0], name, v, opts.seed);
            else if (name == "host-gib")
                base::parseNumber(argv[0], name, v, opts.hostGib);
            else if (name == "fault-seed")
                base::parseNumber(argv[0], name, v, opts.faultSeed);
            else if (name == "fault-intensity")
                base::parseNumber(argv[0], name, v, opts.faultIntensity);
            else if (name == "checkpoint-every")
                base::parseNumber(argv[0], name, v, opts.checkpointEvery);
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
                base::parseNumber(argv[0], name, v, opts.shards);
            else if (name == "jobs")
                base::parseNumber(argv[0], name, v, opts.jobs);
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
        campaign.attack->runAttempts(opts.threads);
    printResult(campaign.attack->campaignFingerprint(), opts.trials,
                result);
    return 0;
}

/**
 * True, after naming @p path on stderr, when @p record (loaded from
 * @p path) is a readable record of another campaign or range than
 * @p range of campaign (@p fingerprint, @p trials). `run` and `sweep`
 * refuse such a record before they write anything; a missing or
 * unreadable one only means the range starts over.
 */
bool
isForeign(const base::Expected<attack::RangeRecord> &record,
          const std::string &path, uint64_t fingerprint, unsigned trials,
          const attack::ShardRange &range)
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
    attack::ShardRange range;
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
        range = attack::planShards(opts.trials,
                                   opts.shardCount)[opts.shardIndex];
    }
    Campaign campaign = buildCampaign(opts);
    if (isForeign(attack::loadRangeRecord(opts.out), opts.out,
                  campaign.attack->campaignFingerprint(), opts.trials,
                  range))
        return 1;

    // The range record at --out is both the checkpoint this run
    // resumes and the artifact merge reads.
    attack::CheckpointPolicy policy;
    policy.path = opts.out;
    policy.everyTrials = opts.checkpointEvery;
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
    std::fprintf(stderr, "hh_sweep: wrote %s (%zu outcomes)\n",
                 opts.out.c_str(), ranged.outcomes.size());
    return 0;
}

/**
 * Merge @p shards and print the outcome: the dump and 0 when they
 * finish the campaign. An unfinished or absent range is a hole: each
 * is named on stderr with @p hint (how to close them), the dump
 * follows when it is exact anyway, and the exit is 4. A merge error
 * (records that do not form one campaign) is an error (1).
 */
int
printMerge(std::vector<attack::RangeRecord> shards, const char *hint)
{
    auto report = attack::mergeShards(std::move(shards));
    if (!report) {
        std::fprintf(stderr, "hh_sweep: merge failed: %s\n",
                     base::errorName(report.error()));
        return 1;
    }
    for (const attack::ShardRange &hole : report->missing)
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
    // An unreadable record is skipped, so the merge names its range
    // a hole.
    std::vector<attack::RangeRecord> shards;
    for (const std::string &file : opts.files) {
        auto loaded = attack::loadRangeRecord(file);
        if (loaded)
            shards.push_back(std::move(*loaded));
        else
            std::fprintf(stderr,
                         "hh_sweep: cannot load '%s': %s; its range "
                         "becomes a hole\n",
                         file.c_str(), base::errorName(loaded.error()));
    }
    if (shards.empty()) {
        std::fprintf(stderr, "hh_sweep merge: no usable records\n");
        return 1;
    }
    return printMerge(std::move(shards),
                      "degraded merge; finish each missing range "
                      "with `hh_sweep run --range=B:E --out=FILE` and "
                      "merge again");
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
 * Fork + exec @p exe's `run` for @p range with its record at @p out;
 * the worker's pid, or -1 when the fork fails. The worker resumes
 * whatever prefix the record holds (an absent one starts at the range
 * begin) and rewrites it every block.
 */
pid_t
launchWorker(const std::string &exe, const SweepOptions &opts,
             const attack::ShardRange &range, const std::string &out)
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
    const std::vector<attack::ShardRange> ranges =
        attack::planShards(opts.trials, opts.shards);
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
    return printMerge(std::move(shards),
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
        "--out=FILE;\n"
        "          resumes a record of its range at FILE\n"
        "          (delete FILE and FILE.prev to start over)\n"
        "  merge   merge range records: FILE...\n"
        "  sweep   run --shards=K workers, --jobs=P at a time, with "
        "records in\n"
        "          --out-dir=DIR, then merge and print; a rerun "
        "launches only\n"
        "          the ranges without a finishing record\n"
        "campaign flags: --trials=N --threads=N --seed=N "
        "--host-gib=N\n"
        "       --fault-seed=N --fault-intensity=X "
        "--checkpoint-every=N\n"
        "exit: 0 ok, 1 error, 2 usage, 4 degraded "
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
