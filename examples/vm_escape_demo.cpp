/**
 * @file
 * Example: the exploitation machinery end to end, deterministically
 * (Section 4.3).
 *
 * A real attack waits hundreds of attempts for a flipped EPTE to land
 * on an EPT page (see bench_table3). This demo removes that lottery:
 * after steering, it *induces* the lucky flip host-side -- rewriting
 * one sprayed EPTE exactly as Rowhammer would -- and then drives the
 * attacker's detection, identification, validation, escalation and
 * arbitrary host read/write, all through guest-legal operations.
 *
 * With --attempts=N the demo follows up with the real lottery: N
 * Monte-Carlo attack attempts on the parallel trial engine
 * (--threads=T workers, bitwise-identical results for any T).
 *
 * Usage: vm_escape_demo [seed] [--attempts=N] [--threads=T]
 * A numeric argument that does not parse whole exits 2.
 */

#include <cstdio>
#include <cstring>

#include "base/parse_number.h"
#include "hyperhammer/hyperhammer.h"

using namespace hh;

int
main(int argc, char **argv)
{
    uint64_t seed = 5;
    unsigned attempts = 0;
    unsigned threads = 0; // all cores
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--attempts=", 11) == 0)
            base::parseNumber(argv[0], "attempts", argv[i] + 11,
                              attempts);
        else if (std::strncmp(argv[i], "--threads=", 10) == 0)
            base::parseNumber(argv[0], "threads", argv[i] + 10, threads);
        else
            base::parseNumber(argv[0], "seed", argv[i], seed);
    }
    sys::SystemConfig config =
        sys::SystemConfig::s1(seed).withMemory(2_GiB);
    sys::HostSystem host(config);

    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 128_MiB;
    vm_cfg.virtioMemRegionSize = 2_GiB;
    vm_cfg.virtioMemPlugged = 1_GiB;
    auto machine = host.createVm(vm_cfg);

    std::printf("== VM escape demo (deterministic flip) ==\n\n");

    // The hypervisor secret the guest must not be able to read.
    auto secret_frame = host.buddy().allocPages(
        0, mm::MigrateType::Unmovable, mm::PageUse::KernelData);
    const HostPhysAddr secret_addr(*secret_frame * kPageSize + 0x7c0);
    const uint64_t secret = 0x48595045'52564953ull; // "HYPERVIS"
    host.dram().write64(secret_addr, secret);
    std::printf("[setup] hypervisor secret planted at host PA %#llx\n",
                static_cast<unsigned long long>(secret_addr.value()));

    // Steer: spray EPT pages over the whole guest.
    attack::PageSteering steering(*machine, host.clock(),
                                  attack::SteeringConfig{});
    const uint64_t demotions =
        steering.sprayEptes(machine->memorySize(), {});
    std::printf("[steer] %llu hugepage demotions -> %llu EPT pages\n",
                static_cast<unsigned long long>(demotions),
                static_cast<unsigned long long>(
                    machine->mmu().eptPageCount()));

    // Mark all pages with magic values.
    attack::Exploiter exploiter(*machine, host.clock(),
                                attack::ExploitConfig{});
    exploiter.markPages(machine->hugePageGpas());
    std::printf("[mark]  per-page magic values written\n");

    // Induce the lucky flip: point one sprayed page's EPTE at another
    // EPT page (this is the step Rowhammer performs probabilistically
    // in the real attack).
    const auto &tables = machine->mmu().eptPageFrames();
    const Pfn own_pt = tables[tables.size() - 2];
    const Pfn target_pt = tables[tables.size() - 1];
    const HostPhysAddr entry_addr(own_pt * kPageSize + 9 * 8);
    host.dram().backend().write64(
        entry_addr, kvm::EptEntry::leaf4k(target_pt, false).raw());
    std::printf("[flip]  induced: EPTE at host PA %#llx now points "
                "to EPT page PFN %llu\n",
                static_cast<unsigned long long>(entry_addr.value()),
                static_cast<unsigned long long>(target_pt));

    // Detection: whose magic value broke?
    const std::vector<GuestPhysAddr> changed =
        exploiter.detectMappingChanges();
    if (changed.empty()) {
        std::printf("[scan]  no mapping change detected?!\n");
        return 1;
    }
    std::printf("[scan]  mapping change detected at GPA %#llx\n",
                static_cast<unsigned long long>(changed[0].value()));

    // Identification + validation + escalation.
    if (!exploiter.looksLikeEptPage(changed[0])) {
        std::printf("[ident] page does not look like an EPT page\n");
        return 1;
    }
    std::printf("[ident] exposed page matches the EPTE format\n");
    auto escalation = exploiter.validateAndEscalate(changed[0]);
    if (!escalation.ok()) {
        std::printf("[valid] not this VM's EPT page\n");
        return 1;
    }
    std::printf("[valid] confirmed own EPT page: entry %u controls "
                "GPA %#llx\n",
                escalation->entryIndex,
                static_cast<unsigned long long>(
                    escalation->victimWindow.value()));

    // Arbitrary host memory access.
    auto leaked = exploiter.readHost(*escalation, secret_addr);
    std::printf("[read]  host PA %#llx through the guest window: "
                "%#llx (%s)\n",
                static_cast<unsigned long long>(secret_addr.value()),
                static_cast<unsigned long long>(leaked.valueOr(0)),
                leaked.ok() && *leaked == secret
                    ? "the hypervisor secret -- escape complete"
                    : "mismatch");
    if (!leaked.ok() || *leaked != secret)
        return 1;

    const hh::base::Status wiped =
        exploiter.writeHost(*escalation, secret_addr, 0);
    if (!wiped.ok()) {
        std::printf("[write] overwrite failed: %s\n",
                    hh::base::errorName(wiped.error()));
        return 1;
    }
    std::printf("[write] secret overwritten from inside the VM\n");
    std::printf("\nThe guest now has arbitrary read/write over host "
                "physical memory (Section 4.3).\n");
    host.buddy().freePages(*secret_frame, 0);

    if (attempts == 0)
        return 0;

    // Optional coda: the real lottery, on the Monte-Carlo engine.
    // Each attempt is an independent trial on its own cloned host;
    // --threads only changes the wall clock, never the outcome.
    std::printf("\n== Monte-Carlo batch: %u attempt(s), %u thread(s) "
                "==\n",
                attempts,
                threads ? threads : base::ThreadPool::defaultThreads());
    machine.reset();
    sys::SystemConfig mc_config =
        sys::SystemConfig::s1(seed).withMemory(1_GiB);
    mc_config.dram.fault.weakCellsPerRow *= 8; // keep the demo short
    sys::HostSystem mc_host(mc_config);
    vm::VmConfig mc_vm;
    mc_vm.bootMemBytes = 64_MiB;
    mc_vm.virtioMemRegionSize = 1_GiB;
    mc_vm.virtioMemPlugged = 640_MiB;
    attack::AttackConfig mc_cfg;
    mc_cfg.maxAttempts = attempts;
    mc_cfg.steering.exhaustMappings = 2'500;
    attack::HyperHammerAttack batch(mc_host, mc_vm,
                                    mc_host.dram().mapping(), mc_cfg);
    (void)batch.profilePhase();
    if (batch.hostProfile().empty()) {
        std::printf("[mc]    no usable bits at this seed; try another\n");
        return 0;
    }
    const attack::AttackResult mc = batch.runAttempts(threads);
    uint64_t flips = 0;
    uint64_t bits = 0;
    for (const attack::AttemptOutcome &outcome : mc.outcomes) {
        flips += outcome.changedPages;
        bits += outcome.bitsTargeted;
    }
    std::printf("[mc]    %u attempt(s), %s; avg %.1f s/attempt "
                "(virtual), %.1f flips and %.1f bits targeted per "
                "attempt\n",
                mc.attempts,
                mc.success ? "escaped" : "no escape yet",
                mc.avgAttemptSeconds(),
                static_cast<double>(flips) / mc.attempts,
                static_cast<double>(bits) / mc.attempts);
    return 0;
}
