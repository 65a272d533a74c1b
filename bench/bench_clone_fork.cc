/**
 * @file
 * Clone-cost bench: deep world construction vs. CoW fork.
 *
 * The Monte-Carlo engine (orchestrator runAttempts) used to pay a full
 * world rebuild per trial; it now forks a pristine template in
 * O(pages the boot touches). This bench quantifies that win at the
 * Table 3 world size and gates it in CI:
 *
 *   deep  -- construct HostSystem(cfg) from scratch, per trial seed;
 *   fork  -- HostSystem::forkTrial(template, cfg), per trial seed.
 *
 * --verify additionally proves the identity the speedup rests on:
 * forkTrial() reproduces a freshly constructed world bit for bit
 * (saveState byte streams compared), and two forks of one template
 * are isolated from each other although they share its memory and
 * frame database copy-on-write. Run as a tier-2 ctest.
 *
 * Emits BENCH_clone.json (see bench_json.h); tools/check_bench.py
 * fails CI when fork_speedup regresses >20% against the checked-in
 * baseline in bench/baselines/.
 */

#include <cstring>

#include "bench_common.h"
#include "bench_json.h"

using namespace hh;
using namespace hh::bench;

namespace {

std::vector<uint8_t>
worldBytes(const sys::HostSystem &host)
{
    base::ArchiveWriter w;
    host.saveState(w);
    return w.buffer();
}

sys::SystemConfig
worldConfig(const Options &opts)
{
    sys::SystemConfig cfg = presetByName("s1", opts);
    // Table 3 runs the full 16 GiB world; --quick shrinks it so the
    // tier-2 ctest and CI smoke stay fast.
    if (opts.hostBytes == 0 && opts.quick)
        cfg.withMemory(2_GiB);
    return cfg;
}

sys::SystemConfig
trialConfig(const sys::SystemConfig &cfg, uint64_t trial)
{
    // Exactly the orchestrator's per-trial derivation: only the host
    // seed changes; DRAM geometry and fault seed stay the template's.
    sys::SystemConfig trial_cfg = cfg;
    trial_cfg.seed = base::SeedSequence(cfg.seed).seed(trial);
    return trial_cfg;
}

/** 0 on success, 1 on any identity violation. */
int
verifyIdentity(const sys::SystemConfig &cfg)
{
    int failures = 0;
    const std::unique_ptr<const sys::HostSystem> tmpl =
        sys::HostSystem::makeForkTemplate(cfg);

    // forkTrial == fresh construction, for several trial seeds.
    for (uint64_t trial = 0; trial < 3; ++trial) {
        const sys::SystemConfig trial_cfg = trialConfig(cfg, trial);
        sys::HostSystem fresh(trial_cfg);
        const std::unique_ptr<sys::HostSystem> forked =
            sys::HostSystem::forkTrial(*tmpl, trial_cfg);
        if (worldBytes(fresh) != worldBytes(*forked)) {
            std::printf("FAIL trial %llu: forkTrial state differs "
                        "from fresh construction\n",
                        static_cast<unsigned long long>(trial));
            ++failures;
        }
    }

    // Two sibling forks of one template: mutating one must change its
    // own state and leave the other's untouched.
    const sys::SystemConfig trial_cfg = trialConfig(cfg, 0);
    const std::unique_ptr<sys::HostSystem> mutated =
        sys::HostSystem::forkTrial(*tmpl, trial_cfg);
    const std::unique_ptr<sys::HostSystem> sibling =
        sys::HostSystem::forkTrial(*tmpl, trial_cfg);
    const std::vector<uint8_t> before = worldBytes(*sibling);
    mutated->pageCacheChurn(8);
    mutated->dram().write64(HostPhysAddr(kPageSize), 0x5eed);
    if (worldBytes(*mutated) == before) {
        std::printf("FAIL mutating a fork did not change the fork\n");
        ++failures;
    }
    if (worldBytes(*sibling) != before) {
        std::printf("FAIL mutating a fork changed its sibling\n");
        ++failures;
    }

    std::printf("verify: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = Options::parse(argc, argv);
    bool verify = false;
    std::string out_path = "BENCH_clone.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--verify") == 0)
            verify = true;
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_path = argv[i] + 6;
    }

    const sys::SystemConfig cfg = worldConfig(opts);
    const double world_gib =
        static_cast<double>(cfg.dram.totalBytes) / (1_GiB);
    std::printf("== clone vs fork (%.1f GiB world) ==\n", world_gib);

    if (verify)
        return verifyIdentity(cfg);

    const unsigned deep_reps = opts.quick ? 2 : 3;
    const unsigned fork_reps = opts.quick ? 8 : 20;

    WallTimer template_timer;
    const std::unique_ptr<const sys::HostSystem> tmpl =
        sys::HostSystem::makeForkTemplate(cfg);
    const double template_seconds = template_timer.seconds();

    WallTimer deep_timer;
    for (uint64_t trial = 0; trial < deep_reps; ++trial)
        sys::HostSystem deep(trialConfig(cfg, trial));
    const double deep_per_world = deep_timer.seconds() / deep_reps;

    WallTimer fork_timer;
    for (uint64_t trial = 0; trial < fork_reps; ++trial) {
        const std::unique_ptr<sys::HostSystem> forked =
            sys::HostSystem::forkTrial(*tmpl, trialConfig(cfg, trial));
    }
    const double fork_per_world = fork_timer.seconds() / fork_reps;

    const double speedup =
        fork_per_world > 0 ? deep_per_world / fork_per_world : 0;
    std::printf("template build      %8.3f s\n", template_seconds);
    std::printf("deep construction   %8.3f s/world (%u reps)\n",
                deep_per_world, deep_reps);
    std::printf("CoW forkTrial       %8.3f s/world (%u reps)\n",
                fork_per_world, fork_reps);
    std::printf("fork speedup        %8.1fx\n", speedup);

    JsonReport report("bench_clone_fork");
    report.set("world_gib", world_gib);
    report.set("template_build_seconds", template_seconds);
    report.set("deep_seconds_per_world", deep_per_world);
    report.set("fork_seconds_per_world", fork_per_world);
    report.set("fork_speedup", speedup);
    report.set("deep_worlds_per_second",
               deep_per_world > 0 ? 1.0 / deep_per_world : 0.0);
    report.set("fork_worlds_per_second",
               fork_per_world > 0 ? 1.0 / fork_per_world : 0.0);
    report.set("peak_rss_bytes", peakRssBytes());
    report.set("deep_reps", static_cast<uint64_t>(deep_reps));
    report.set("fork_reps", static_cast<uint64_t>(fork_reps));
    if (!report.writeFile(out_path)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
