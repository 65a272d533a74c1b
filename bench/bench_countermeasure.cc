/**
 * @file
 * Experiment E8 -- Section 6 countermeasures:
 *
 *  1. the authors' QEMU quarantine patch: malicious unplug requests
 *     are NACKed (steering dies), legitimate resizes pass, and the
 *     stock driver's plug-failure retry trips the filter (the
 *     maintainer's objection that sank the patch);
 *  2. hardware mitigations (TRR, ECC) on otherwise identical DIMMs;
 *  3. disabling the NX-hugepage countermeasure (no iTLB-Multihit
 *     erratum): no demotions, nothing to steer -- but the machine
 *     check DoS returns.
 */

#include "bench_common.h"

using namespace hh;
using namespace hh::bench;

namespace {

sys::SystemConfig
hostConfig(const Options &opts)
{
    sys::SystemConfig cfg = presetByName("s1", opts);
    if (opts.hostBytes == 0)
        cfg.withMemory(2_GiB);
    cfg.dram.fault.weakCellsPerRow *= 4.0; // denser: faster signal
    return cfg;
}

void
quarantineRows(const Options &opts, analysis::TextTable &table)
{
    for (const bool quarantine : {false, true}) {
        sys::HostSystem host(hostConfig(opts));
        vm::VmConfig vm_cfg = paperVmConfig(host.config());
        vm_cfg.quarantine.enabled = quarantine;
        auto machine = host.createVm(vm_cfg);

        // Malicious voluntary unplugs (the steering step).
        machine->memDriver().setSuppressAutoPlug(true);
        unsigned released = 0;
        for (virtio::SubBlockId sb = 0; sb < 16; ++sb) {
            if (machine->memDriver()
                    .unplugSpecific(
                        machine->memDevice_().subBlockGpa(sb * 3))
                    .ok()) {
                ++released;
            }
        }

        // A legitimate hypervisor-initiated shrink.
        machine->memDriver().setSuppressAutoPlug(false);
        auto &device = machine->memDevice_();
        device.setRequestedSize(device.pluggedSize()
                                - 8 * kHugePageSize);
        const uint64_t converged = machine->memDriver().converge();

        // The stock driver's plug-failure recovery pattern, seen at
        // the device as an unplug while plugged < requested.
        device.setRequestedSize(device.pluggedSize()
                                + 8 * kHugePageSize);
        const virtio::SubBlockId spare = device.subBlockCount() - 1;
        // hh-lint: allow(status-discard) -- the plug is expected to fail; the recovery unplug below is what is measured
        (void)device.requestPlug(spare);
        const base::Status retry_unplug = device.requestUnplug(spare);

        table.addRow({
            quarantine ? "quarantine ON" : "quarantine OFF",
            std::to_string(released) + "/16",
            converged >= 8 ? "yes" : "NO",
            retry_unplug.ok() ? "accepted"
                              : "NACKed (false positive)",
        });
    }
}

void
mitigationRows(const Options &opts, analysis::TextTable &table)
{
    struct Variant
    {
        const char *name;
        bool trr, ecc, nx;
    };
    const Variant variants[] = {
        {"baseline (paper DIMMs)", false, false, true},
        {"TRR sampler (capacity 4)", true, false, true},
        {"ECC DIMM (SEC-DED)", false, true, true},
        {"no NX-hugepage countermeasure", false, false, false},
    };
    for (const Variant &variant : variants) {
        sys::SystemConfig cfg = hostConfig(opts);
        cfg.dram.trr.enabled = variant.trr;
        cfg.dram.ecc.enabled = variant.ecc;
        sys::HostSystem host(cfg);
        vm::VmConfig vm_cfg = paperVmConfig(cfg);
        vm_cfg.mmu.nxHugePages = variant.nx;
        auto machine = host.createVm(vm_cfg);

        // Profiling yield under this mitigation.
        attack::ProfilerConfig pcfg;
        pcfg.stopAfterExploitable = 4;
        attack::MemoryProfiler profiler(*machine, host.clock(),
                                        host.dram().mapping(), pcfg);
        const attack::ProfileResult profile =
            profiler.profile(profilableRegion(*machine));

        // EPT harvest under this mitigation.
        attack::PageSteering steering(*machine, host.clock(),
                                      attack::SteeringConfig{});
        const uint64_t demotions =
            steering.sprayEptes(64_MiB, {});

        // The DoS the NX countermeasure trades against.
        const base::Status mce = machine->mmu().execDuringPageSizeChange(
            GuestPhysAddr(2 * kHugePageSize));

        table.addRow({
            variant.name,
            analysis::formatCount(profile.totalFlips()),
            analysis::formatCount(demotions),
            mce.error() == base::ErrorCode::Fault
                ? "machine check (DoS)" : "safe",
        });
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = Options::parse(argc, argv);
    std::printf("== E8 / Section 6: countermeasures ==\n");

    std::printf("\n-- The authors' QEMU quarantine patch --\n");
    analysis::TextTable quarantine({"Config", "Malicious unplugs",
                                    "Legit resize works",
                                    "Plug-retry recovery"});
    quarantineRows(opts, quarantine);
    std::printf("%s", quarantine.render().c_str());
    std::printf("(the NACKed recovery row reproduces the maintainer "
                "objection that the patch breaks the stock driver's "
                "plug-failure handling)\n");

    std::printf("\n-- Hardware / hypervisor mitigation matrix --\n");
    analysis::TextTable mitigations(
        {"Variant", "Profiled flips", "EPT pages from 64 MiB spray",
         "Exec during page-size change"});
    mitigationRows(opts, mitigations);
    std::printf("%s", mitigations.render().c_str());
    std::printf("(no flips -> no profile; no demotions -> nothing to "
                "steer; but dropping the NX countermeasure revives "
                "the iTLB-Multihit DoS)\n");
    return 0;
}
