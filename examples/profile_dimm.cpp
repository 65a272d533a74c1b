/**
 * @file
 * Example: the attacker's offline preparation workflow (Section 5.1).
 *
 * On a machine identical to the target, a researcher would:
 *   1. reverse engineer the DRAM bank function with DRAMDig,
 *   2. verify the THP bit-preservation property the attack needs,
 *   3. find an effective hammer pattern with TRRespass,
 *   4. profile memory for exploitable bits.
 *
 * This example runs all four steps against a simulated S1-class
 * machine and prints a census of what an attacker would learn.
 *
 * Usage: profile_dimm [seed] [host-gib]
 * An argument that does not parse whole as a number exits 2.
 */

#include <cstdio>

#include "base/parse_number.h"
#include "hyperhammer/hyperhammer.h"

using namespace hh;

int
main(int argc, char **argv)
{
    uint64_t seed = 7;
    uint64_t gib = 2;
    if (argc > 1)
        base::parseNumber(argv[0], "seed", argv[1], seed);
    if (argc > 2)
        base::parseNumber(argv[0], "host-gib", argv[2], gib);

    sys::SystemConfig config =
        sys::SystemConfig::s1(seed).withMemory(gib * 1_GiB);
    sys::HostSystem host(config);

    std::printf("== DIMM preparation workflow (%s, %llu GiB) ==\n\n",
                config.name.c_str(),
                static_cast<unsigned long long>(gib));

    // 1. DRAMDig.
    std::printf("[1/4] DRAMDig: timing-based bank-function "
                "recovery...\n");
    analysis::DramDig dig(host.dram(), analysis::DramDigConfig{});
    const analysis::DramDigResult recovered = dig.run();
    if (!recovered.recovered()) {
        std::printf("      recovery failed\n");
        return 1;
    }
    const dram::AddressMapping mapping(recovered.bankMasks, 18, 33);
    std::printf("      recovered: %s (%llu timed accesses)\n",
                mapping.describe().c_str(),
                static_cast<unsigned long long>(
                    recovered.timedAccesses));

    // 2. THP property.
    std::printf("[2/4] THP check: bank bits preserved by 2 MB "
                "translation? %s\n",
                mapping.bankBitsPreservedBy(21) ? "yes" : "NO");

    // 3. TRRespass.
    std::printf("[3/4] TRRespass: minimal effective pattern...\n");
    analysis::TrrespassConfig trr_cfg;
    trr_cfg.maxAggressorRows = 6;
    // Realistic weak-cell densities are sparse (a few hundred cells
    // per 12 GB); each pattern size needs many placements to see one.
    trr_cfg.trialsPerSize = 1'500;
    analysis::Trrespass finder(host.dram(), trr_cfg);
    const analysis::TrrespassResult pattern = finder.run();
    if (pattern.foundPattern()) {
        std::printf("      %u same-bank aggressor rows suffice "
                    "(single-sided works: %s)\n",
                    pattern.effectiveAggressorRows,
                    pattern.effectiveAggressorRows <= 2 ? "yes" : "no");
    } else {
        std::printf("      no flips up to %u rows (TRR-protected "
                    "DIMM?)\n", trr_cfg.maxAggressorRows);
        return 1;
    }

    // 4. Profile from inside a VM.
    std::printf("[4/4] profiling a guest VM's memory...\n");
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = gib * 1_GiB / 16;
    vm_cfg.virtioMemRegionSize = gib * 1_GiB;
    vm_cfg.virtioMemPlugged = gib * 1_GiB * 12 / 16;
    auto machine = host.createVm(vm_cfg);

    attack::MemoryProfiler profiler(*machine, host.clock(), mapping,
                                    attack::ProfilerConfig{});
    std::vector<GuestPhysAddr> region;
    for (GuestPhysAddr hp : machine->hugePageGpas()) {
        if (machine->memDevice_().contains(hp))
            region.push_back(hp);
    }
    const attack::ProfileResult profile = profiler.profile(region);

    analysis::TextTable table({"Metric", "Value"});
    table.addRow({"profiled region",
                  std::to_string(region.size() * 2) + " MiB"});
    table.addRow({"combinations hammered",
                  analysis::formatCount(profile.combinations)});
    table.addRow({"virtual time",
                  base::SimClock::format(profile.elapsed)});
    table.addRow({"total flips",
                  analysis::formatCount(profile.totalFlips())});
    table.addRow({"1->0 / 0->1",
                  analysis::formatCount(profile.countOneToZero()) + " / "
                      + analysis::formatCount(profile.countZeroToOne())});
    table.addRow({"stable",
                  analysis::formatCount(profile.countStable())});
    table.addRow({"exploitable (EPTE PFN bits)",
                  analysis::formatCount(profile.countExploitable())});
    table.addRow({"usable for steering",
                  analysis::formatCount(
                      profile.exploitableBits().size())});
    std::printf("\n%s", table.render().c_str());

    // Show a few concrete bits.
    std::printf("\nFirst usable bits (guest-physical view):\n");
    unsigned shown = 0;
    for (const attack::VulnerableBit &bit : profile.exploitableBits()) {
        if (++shown > 5)
            break;
        std::printf("  GPA %#llx bit %u (%s, %s): hammer %#llx + "
                    "%#llx\n",
                    static_cast<unsigned long long>(bit.wordGpa.value()),
                    bit.bitInWord,
                    bit.direction == dram::FlipDirection::OneToZero
                        ? "1->0" : "0->1",
                    bit.stable ? "stable" : "unstable",
                    static_cast<unsigned long long>(
                        bit.aggressors[0].value()),
                    static_cast<unsigned long long>(
                        bit.aggressors[1].value()));
    }
    return 0;
}
