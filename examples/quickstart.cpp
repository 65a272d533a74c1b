/**
 * @file
 * Quickstart: run a complete (scaled-down) HyperHammer attack.
 *
 * Builds an S1-style host at 2 GB, spawns a 1.625 GB attacker VM,
 * profiles its memory for exploitable Rowhammer bits, and runs the
 * steer-hammer-escalate loop until the VM reads a secret planted in
 * host kernel memory. Each attempt is a trial in its own forked copy
 * of the host, with a freshly spawned VM and its own planted secret.
 * All reported times are virtual (simulated).
 *
 * Like the real attack, each attempt succeeds only with small
 * probability (Section 5.3.1); the default attempt budget usually
 * ends without an escape and prints the measured rates plus the
 * expected cost instead -- exactly the paper's own story. Pass a
 * larger budget to hunt for the escape, or see vm_escape_demo for a
 * deterministic walkthrough of the final stage.
 *
 * Usage: quickstart [seed] [max-attempts]
 * An argument that does not parse whole as a number exits 2.
 */

#include <cstdio>

#include "base/parse_number.h"
#include "hyperhammer/hyperhammer.h"

using namespace hh;

int
main(int argc, char **argv)
{
    uint64_t seed = 42;
    unsigned max_attempts = 150;
    if (argc > 1)
        base::parseNumber(argv[0], "seed", argv[1], seed);
    if (argc > 2)
        base::parseNumber(argv[0], "max-attempts", argv[2], max_attempts);

    // A scaled-down S1: same DRAM geometry behaviour, 2 GB host.
    sys::SystemConfig config = sys::SystemConfig::s1(seed)
        .withMemory(2_GiB);
    sys::HostSystem host(config);

    // The attacker VM owns most of the host's memory, like the
    // paper's 13-of-16 GB setup (the success probability scales with
    // this ratio, Section 5.3.1).
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 128_MiB;
    vm_cfg.virtioMemRegionSize = 2_GiB;
    vm_cfg.virtioMemPlugged = 1_GiB + 512_MiB;

    attack::AttackConfig attack_cfg;
    attack_cfg.bitsPerAttempt = 12;
    attack_cfg.maxAttempts = max_attempts;
    attack_cfg.steering.exhaustMappings = 10'000;

    attack::HyperHammerAttack attack(
        host, vm_cfg, host.dram().mapping(), attack_cfg);

    std::printf("== HyperHammer quickstart (host %s, %.1f GB) ==\n",
                config.name.c_str(),
                static_cast<double>(config.dram.totalBytes) / 1_GiB);

    std::printf("[1/3] profiling guest memory...\n");
    const attack::ProfileResult profile = attack.profilePhase();
    std::printf("      %llu flips (%llu 1->0, %llu 0->1), "
                "%llu stable, %llu exploitable, took %s (virtual)\n",
                (unsigned long long)profile.totalFlips(),
                (unsigned long long)profile.countOneToZero(),
                (unsigned long long)profile.countZeroToOne(),
                (unsigned long long)profile.countStable(),
                (unsigned long long)profile.countExploitable(),
                base::SimClock::format(profile.elapsed).c_str());
    if (profile.countExploitable() == 0) {
        std::printf("no exploitable bits with this seed; try another\n");
        return 1;
    }

    std::printf("[2/3] attack loop (steer, hammer, escalate)...\n");
    const attack::AttackResult result = attack.runAttempts(0);

    std::printf("[3/3] result: %s after %u attempts, %s (virtual), "
                "avg %.1f s/attempt\n",
                result.success ? "SUCCESS" : "no escalation",
                result.attempts,
                base::SimClock::format(result.totalTime).c_str(),
                result.avgAttemptSeconds());
    if (result.success) {
        std::printf("      attempt %u read the hypervisor secret of "
                    "its host through the VM's own page tables\n",
                    result.attempts);
    } else {
        uint64_t flips = 0;
        for (const attack::AttemptOutcome &o : result.outcomes)
            flips += o.changedPages;
        const double per_attempt = static_cast<double>(flips)
            / static_cast<double>(result.attempts);
        // P(success/attempt) ~ flips/attempt x VM/(512 x host)
        // (Section 5.3.1's lottery applied to each observed flip).
        const double vm_ratio =
            static_cast<double>(vm_cfg.bootMemBytes
                                + vm_cfg.virtioMemPlugged)
            / static_cast<double>(config.dram.totalBytes);
        const double p = per_attempt * vm_ratio / 512.0;
        std::printf("      %.2f EPTE flips per attempt observed; as "
                    "in the paper, a full escape needs hundreds of "
                    "attempts (estimated P ~ %.1e per attempt). Rerun "
                    "with a bigger budget, or see vm_escape_demo.\n",
                    per_attempt, p);
    }
    return 0;
}
