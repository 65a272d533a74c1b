/**
 * @file
 * Nightly fault-soak driver: end-to-end attacks under randomized
 * FaultPlans.
 *
 * Each trial installs FaultPlan::randomized(seed_base + trial,
 * intensity) on a small S1 host, profiles, runs the campaign through
 * runAttempts() (every attempt a forked trial world, checkpointed
 * when --checkpoint-every is set), and prints one line with the
 * campaign's status, retry/degradation counters and the number of
 * faults the trial injectors fired. Every line is fully reproducible
 * from its plan seed, so a failing nightly run can be replayed locally
 * with --seed-base=<seed> --trials=1.
 *
 * A checkpointed soak killed at any moment (the nightly kill/resume
 * leg sends a real kill -9) and rerun with the same flags resumes
 * each campaign's record and prints the straight run's table byte for
 * byte.
 *
 * The exit code is non-zero only when a trial violates the degradation
 * contract (aborts instead of returning a partial-result Status); a
 * degraded or failed attack is an expected soak outcome, not an error.
 */

#include "bench_common.h"
#include "bench_json.h"

using namespace hh;
using namespace hh::bench;

namespace {

struct SoakOptions
{
    unsigned trials = 8;
    uint64_t seedBase = 1;
    /** Scales every entry's firing probability, (0, 1]. */
    double intensity = 1.0;
    /** Checkpoint each campaign every N attempts (0 = off). */
    uint64_t checkpointEvery = 0;
    /**
     * Base path; campaign files get a "_s<plan seed>" suffix. A
     * campaign resumes the record at its file.
     */
    std::string checkpointPath = "fault_soak.ckpt";
    /**
     * Telemetry report (BENCH_soak.json shape) for the nightly trend
     * pipeline; empty = off. Status messages go to stderr because the
     * nightly kill/resume leg byte-diffs this binary's stdout.
     */
    std::string jsonOut;

    static SoakOptions
    parse(int argc, char **argv)
    {
        SoakOptions soak;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (const char *v = flagValue(arg, "--trials="))
                base::parseNumber(argv[0], "trials", v, soak.trials);
            else if (const char *v2 = flagValue(arg, "--seed-base="))
                base::parseNumber(argv[0], "seed-base", v2,
                                  soak.seedBase);
            else if (const char *v3 = flagValue(arg, "--intensity="))
                base::parseNumber(argv[0], "intensity", v3,
                                  soak.intensity);
            else if (const char *v4 =
                         flagValue(arg, "--checkpoint-every="))
                base::parseNumber(argv[0], "checkpoint-every", v4,
                                  soak.checkpointEvery);
            else if (const char *v5 =
                         flagValue(arg, "--checkpoint-path="))
                soak.checkpointPath = v5;
            else if (const char *v6 = flagValue(arg, "--json-out="))
                soak.jsonOut = v6;
        }
        return soak;
    }
};

sys::SystemConfig
soakHostConfig(const Options &opts)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(opts.seed).withMemory(
        opts.hostBytes ? opts.hostBytes : 1_GiB);
    // Densify weak cells so attempts have material to work with at
    // this scale (same factor the orchestrator tests use).
    cfg.dram.fault.weakCellsPerRow *= 4.0;
    return cfg;
}

vm::VmConfig
soakVmConfig()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 640_MiB;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = Options::parse(argc, argv);
    const SoakOptions soak = SoakOptions::parse(argc, argv);

    std::printf("== fault soak: %u trials, plan seeds [%llu, %llu], "
                "intensity %.2f ==\n",
                soak.trials,
                static_cast<unsigned long long>(soak.seedBase),
                static_cast<unsigned long long>(
                    soak.seedBase + soak.trials - 1),
                soak.intensity);

    // Constructed before the trials so env_wall_seconds covers the
    // whole soak, not just the report assembly.
    JsonReport report("bench_fault_soak");
    analysis::TextTable table({"Plan seed", "Status", "Degraded",
                               "Attempts", "Retries", "Faults fired"});
    unsigned successes = 0;
    unsigned degraded = 0;
    uint64_t faults_total = 0;
    for (unsigned trial = 0; trial < soak.trials; ++trial) {
        const uint64_t plan_seed = soak.seedBase + trial;
        sys::SystemConfig cfg = soakHostConfig(opts).withFaults(
            fault::FaultPlan::randomized(plan_seed, soak.intensity));
        sys::HostSystem host(cfg);

        attack::AttackConfig acfg;
        acfg.maxAttempts = opts.quick ? 2 : 4;
        acfg.steering.exhaustMappings = 2'500;
        attack::HyperHammerAttack attack(host, soakVmConfig(),
                                         host.dram().mapping(), acfg);
        attack.profilePhase();
        // Attempts are pure per-index trials, so a checkpointed run
        // killed here and rerun with the same flags reproduces the
        // straight run's table bit for bit.
        attack::CheckpointPolicy policy;
        if (soak.checkpointEvery > 0) {
            policy.path = soak.checkpointPath + "_s" +
                std::to_string(plan_seed);
            policy.everyTrials = soak.checkpointEvery;
        }
        const attack::AttackResult result =
            attack.runAttempts(opts.threads, policy);

        uint64_t retries = 0;
        for (const attack::AttemptOutcome &outcome : result.outcomes)
            retries += outcome.retries;
        successes += result.success;
        degraded += result.degraded;
        faults_total += result.faultsInjected;
        table.addRow({
            std::to_string(plan_seed),
            base::errorName(result.status.error()),
            result.degraded ? "yes" : "no",
            std::to_string(result.attempts),
            std::to_string(retries),
            std::to_string(result.faultsInjected),
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("soak: %u/%u attacks escalated, %u degraded, "
                "%llu faults fired\n",
                successes, soak.trials, degraded,
                static_cast<unsigned long long>(faults_total));

    if (!soak.jsonOut.empty()) {
        const double trials = soak.trials ? soak.trials : 1;
        report.set("trials", static_cast<uint64_t>(soak.trials));
        report.set("successes", static_cast<uint64_t>(successes));
        report.set("success_rate", successes / trials);
        report.set("degraded", static_cast<uint64_t>(degraded));
        report.set("degraded_rate", degraded / trials);
        report.set("faults_fired", faults_total);
        report.set("intensity", soak.intensity);
        report.set("seed_base", soak.seedBase);
        if (!report.writeFile(soak.jsonOut))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         soak.jsonOut.c_str());
        else
            std::fprintf(stderr, "wrote %s\n", soak.jsonOut.c_str());
    }
    return 0;
}
