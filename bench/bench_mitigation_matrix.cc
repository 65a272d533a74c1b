/**
 * @file
 * Experiment E11 -- the mitigation-evaluation matrix (Section 6).
 *
 * Sweeps attacks x defenses x host configurations; every cell is one
 * deterministic Monte-Carlo campaign against a defended world, so the
 * whole table is a pure function of (configuration, seed) and
 * bitwise-identical at any --threads count (the printed matrix
 * fingerprint makes that checkable from the shell).
 *
 * Attacks: "pairwise" is the paper's per-target double-sided
 * re-trigger; "combined" batches every target's aggressors into one
 * interleaved TRRespass-style burst, the variant that stresses
 * capacity-bounded TRR trackers.
 *
 * Defenses: none (baseline), the Section 6 virtio-mem quarantine,
 * Siloz-style guard-row domains, CATT kernel/user partitioning, the
 * CATTmew double-ownership hole (expected to re-enable the attack),
 * and a TRR+ECC DRAM sweep.
 *
 * --smoke pins the 2x2 golden-trace configuration (none/quarantine x
 * pairwise/combined) used by tools/check_golden.py.
 */

#include "bench_common.h"
#include "bench_json.h"

using namespace hh;
using namespace hh::bench;

namespace {

struct MatrixOptions
{
    bool smoke = false;
    uint64_t trials = 0; // 0 = mode default
    std::string defenses; // comma-separated; empty = mode default
    std::string attacks;  // comma-separated; empty = mode default
    std::string jsonOut = "BENCH_mitigation.json";

    static MatrixOptions
    parse(int argc, char **argv)
    {
        MatrixOptions opts;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&arg](const char *prefix) -> const char * {
                const size_t len = std::strlen(prefix);
                return arg.compare(0, len, prefix) == 0
                    ? arg.c_str() + len : nullptr;
            };
            if (arg == "--smoke")
                opts.smoke = true;
            else if (const char *v = value("--trials="))
                opts.trials = std::strtoull(v, nullptr, 0);
            else if (const char *v2 = value("--defenses="))
                opts.defenses = v2;
            else if (const char *v3 = value("--attacks="))
                opts.attacks = v3;
            else if (const char *v4 = value("--json-out="))
                opts.jsonOut = v4;
        }
        return opts;
    }
};

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> parts;
    size_t begin = 0;
    while (begin <= csv.size()) {
        const size_t comma = csv.find(',', begin);
        const std::string part = csv.substr(
            begin, comma == std::string::npos ? std::string::npos
                                              : comma - begin);
        if (!part.empty())
            parts.push_back(part);
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return parts;
}

/** Sanitize a cell label into a JSON metric key component. */
std::string
keyOf(const std::string &label)
{
    std::string key = label;
    for (char &c : key) {
        if (c == '-' || c == '+' || c == ' ')
            c = '_';
    }
    return key;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const MatrixOptions mopts = MatrixOptions::parse(argc, argv);

    mitigate::MatrixSpec spec;
    spec.threads = opts.threads;
    // Full profile (as in E4): the reusable host-physical record is
    // built once per cell, and a deeper profile gives every campaign
    // more relocatable targets per attempt.
    spec.attack.profiler.stopAfterExploitable = 0;

    if (mopts.smoke) {
        // The golden 2x2: small host, boosted flip density (so the
        // baseline profile is non-trivial at 1 GiB), short campaigns.
        Options local = opts;
        if (local.hostBytes == 0)
            local.hostBytes = 1_GiB;
        sys::SystemConfig cfg = presetByName("s1", local);
        cfg.dram.fault.weakCellsPerRow *= 8;
        spec.hosts = {cfg};
        spec.vm.bootMemBytes = 64_MiB;
        spec.vm.virtioMemRegionSize = 1_GiB;
        spec.vm.virtioMemPlugged = 640_MiB;
        spec.attack.steering.exhaustMappings = 2'500;
        spec.defenses = {"none", "quarantine"};
        spec.attacks = {"pairwise", "combined"};
        spec.trials = 4;
    } else {
        Options local = opts;
        if (local.hostBytes == 0)
            local.hostBytes = opts.quick ? 1_GiB : 2_GiB;
        for (const char *name : {"s1", "s3"}) {
            if (!opts.wants(name))
                continue;
            // s3 only in explicit selections: the default sweep is
            // one host so the nightly matrix stays bounded.
            if (std::string(name) == "s3" && opts.system.empty())
                continue;
            sys::SystemConfig cfg = presetByName(name, local);
            if (local.hostBytes <= 1_GiB)
                cfg.dram.fault.weakCellsPerRow *= 8;
            spec.hosts.push_back(cfg);
        }
        if (!spec.hosts.empty()) {
            const sys::SystemConfig &first = spec.hosts.front();
            if (local.hostBytes <= 1_GiB) {
                // The calibrated small-scale configuration (shared
                // with the tier-2 property tests): a leaner VM and a
                // gentler vIOMMU exhaustion keep the EPT spray
                // concentrated enough that the graded progress
                // signals stay measurable in tens of trials.
                spec.vm.bootMemBytes = 64_MiB;
                spec.vm.virtioMemRegionSize = 1_GiB;
                spec.vm.virtioMemPlugged = 640_MiB;
                spec.attack.steering.exhaustMappings = 2'500;
            } else {
                spec.vm = paperVmConfig(first);
                spec.attack.steering.exhaustMappings =
                    scaledMappings(first);
            }
        }
        spec.defenses = {"none",  "quarantine", "siloz",
                         "catt",  "catt-hole",  "trr-ecc"};
        spec.attacks = {"pairwise", "combined"};
        spec.trials = opts.quick ? 8 : 24;
    }
    if (mopts.trials != 0)
        spec.trials = mopts.trials;
    if (!mopts.defenses.empty())
        spec.defenses = splitCsv(mopts.defenses);
    if (!mopts.attacks.empty())
        spec.attacks = splitCsv(mopts.attacks);

    std::printf("== E11: mitigation-evaluation matrix ==\n");
    std::printf("(%llu trial(s) per cell; success rate is per "
                "attempt, stopping at the first escalation)\n",
                static_cast<unsigned long long>(spec.trials));

    WallTimer sweep_timer;
    auto matrix = mitigate::runMatrix(spec);
    if (!matrix) {
        std::fprintf(stderr, "matrix sweep failed (error %d)\n",
                     static_cast<int>(matrix.error()));
        return 1;
    }
    const double sweep_seconds = sweep_timer.seconds();

    analysis::TextTable table({"Host", "Defense", "Attack", "Bits",
                               "Attempts", "Released", "Flips",
                               "Cands", "Success", "Avg att (virt)",
                               "Reserved", "Slowdown"});
    JsonReport report("bench_mitigation_matrix");
    for (const mitigate::MatrixCell &cell : matrix->cells) {
        table.addRow({
            cell.host,
            cell.defense,
            cell.attackName,
            std::to_string(cell.profiledBits),
            std::to_string(cell.attempts),
            std::to_string(cell.releasedSubBlocks),
            std::to_string(cell.flippedMappings),
            std::to_string(cell.epteCandidates),
            cell.success ? "yes" : "no",
            analysis::formatDouble(cell.avgAttemptSeconds, 2) + " s",
            std::to_string(cell.overhead.reservedBytes >> 20)
                + " MiB",
            analysis::formatDouble(cell.overhead.slowdownFactor, 3)
                + "x",
        });
        const std::string key = keyOf(cell.host) + "_"
            + keyOf(cell.defense) + "_" + keyOf(cell.attackName);
        report.set(key + "_success_rate", cell.successRate);
        report.set(key + "_attempts",
                   static_cast<uint64_t>(cell.attempts));
        report.set(key + "_profiled_bits", cell.profiledBits);
        report.set(key + "_flipped_mappings", cell.flippedMappings);
        report.set(key + "_epte_candidates", cell.epteCandidates);
        report.set(key + "_reserved_bytes",
                   cell.overhead.reservedBytes);
    }
    std::printf("%s", table.render().c_str());

    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(
                      matrix->fingerprint()));
    // The E11 golden trace pins this line, suffix included.
    std::printf("matrix fingerprint: %s (identical for any "
                "--threads x --shards)\n", fp);

    report.set("matrix_fingerprint", std::string(fp));
    report.set("cells", static_cast<uint64_t>(matrix->cells.size()));
    report.set("sweep_wall_seconds", sweep_seconds);
    report.set("cells_per_second",
               sweep_seconds > 0
                   ? static_cast<double>(matrix->cells.size())
                       / sweep_seconds
                   : 0.0);
    if (!matrix->cells.empty())
        report.setConfigFingerprint(matrix->fingerprint());
    if (!report.writeFile(mopts.jsonOut))
        std::fprintf(stderr, "warning: cannot write %s\n",
                     mopts.jsonOut.c_str());
    else
        std::printf("wrote %s\n", mopts.jsonOut.c_str());
    return 0;
}
