/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries: flag
 * parsing (scale, seed, quick mode) and common setup helpers. A
 * numeric flag's value must parse whole: "--trials=x" exits 2 with
 * "bad --trials" (base::parseNumber).
 *
 * Every bench prints the paper's reference numbers next to the
 * measured ones; EXPERIMENTS.md records a snapshot of both.
 */

#ifndef HYPERHAMMER_BENCH_BENCH_COMMON_H
#define HYPERHAMMER_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/parse_number.h"
#include "hyperhammer/hyperhammer.h"

namespace hh::bench {

/**
 * The value of @p arg when it is "<prefix><value>", else null. Bench
 * parsers share one argv and skip each other's flags.
 */
inline const char *
flagValue(const std::string &arg, const char *prefix)
{
    const size_t len = std::strlen(prefix);
    return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
}

/** Command-line options shared by the bench binaries. */
struct Options
{
    /** Host memory (0 = each bench's default). */
    uint64_t hostBytes = 0;
    uint64_t seed = 1;
    /** Reduced workloads for smoke runs. */
    bool quick = false;
    /** Worker threads for Monte-Carlo batches (0 = all cores). */
    unsigned threads = 1;
    /** Restrict to one system preset ("", "s1", "s2", "s3"). */
    std::string system;

    static Options
    parse(int argc, char **argv)
    {
        Options opts;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (const char *v = flagValue(arg, "--host-gib=")) {
                uint64_t gib = 0;
                base::parseNumber(argv[0], "host-gib", v, gib);
                opts.hostBytes = gib * 1_GiB;
            } else if (const char *v2 = flagValue(arg, "--seed=")) {
                base::parseNumber(argv[0], "seed", v2, opts.seed);
            } else if (const char *v3 = flagValue(arg, "--system=")) {
                opts.system = v3;
            } else if (const char *v4 = flagValue(arg, "--threads=")) {
                base::parseNumber(argv[0], "threads", v4, opts.threads);
            } else if (arg == "--quick") {
                opts.quick = true;
            } else if (arg == "--help" || arg == "-h") {
                std::printf(
                    "options: [--host-gib=N] [--seed=N] [--quick] "
                    "[--threads=N] [--system=s1|s2|s3]\n");
                std::exit(0);
            }
        }
        return opts;
    }

    /** True when @p name is selected (empty selection = all). */
    bool
    wants(const std::string &name) const
    {
        return system.empty() || system == name;
    }
};

/** Preset by lowercase name, with optional memory override. */
inline sys::SystemConfig
presetByName(const std::string &name, const Options &opts)
{
    sys::SystemConfig cfg = name == "s2" ? sys::SystemConfig::s2(opts.seed)
        : name == "s3" ? sys::SystemConfig::s3(opts.seed)
                       : sys::SystemConfig::s1(opts.seed);
    if (opts.hostBytes)
        cfg.withMemory(opts.hostBytes);
    return cfg;
}

/**
 * The paper's attacker VM shape, scaled with host memory: boot 1/16 of
 * host, virtio-mem plugged 12/16 (total 13/16, like 13 GB of 16 GB).
 */
inline vm::VmConfig
paperVmConfig(const sys::SystemConfig &host_cfg)
{
    const uint64_t total = host_cfg.dram.totalBytes;
    vm::VmConfig cfg;
    cfg.bootMemBytes = total / 16;
    cfg.virtioMemRegionSize = total;
    cfg.virtioMemPlugged = total * 12 / 16;
    return cfg;
}

/** The profilable region: the VM's plugged virtio-mem hugepages. */
inline std::vector<GuestPhysAddr>
profilableRegion(vm::VirtualMachine &machine)
{
    std::vector<GuestPhysAddr> region;
    for (GuestPhysAddr hp : machine.hugePageGpas()) {
        if (machine.memDevice_().contains(hp))
            region.push_back(hp);
    }
    return region;
}

/** "60,000 mappings" scaled with host size (the paper's 16 GB value). */
inline uint32_t
scaledMappings(const sys::SystemConfig &cfg)
{
    return static_cast<uint32_t>(
        60'000ull * cfg.dram.totalBytes / (16_GiB));
}

} // namespace hh::bench

#endif // HYPERHAMMER_BENCH_BENCH_COMMON_H
