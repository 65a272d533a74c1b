#include "resume_identity.h"

#include <cstdio>

#include "base/log.h"
#include "snapshot/checkpoint_policy.h"

namespace hh::snapshot {

std::vector<std::string>
diffAttackResults(const attack::AttackResult &a,
                  const attack::AttackResult &b)
{
    std::vector<std::string> out;
    if (a.success != b.success)
        out.push_back("success");
    if (a.attempts != b.attempts)
        out.push_back("attempts");
    if (a.totalTime != b.totalTime)
        out.push_back("totalTime");
    if (a.status != b.status)
        out.push_back("status");
    if (a.degraded != b.degraded)
        out.push_back("degraded");
    if (a.faultsInjected != b.faultsInjected)
        out.push_back("faultsInjected");
    if (a.outcomes.size() != b.outcomes.size()) {
        out.push_back("outcomes.size");
    } else {
        for (size_t i = 0; i < a.outcomes.size(); ++i) {
            if (a.outcomes[i] != b.outcomes[i])
                out.push_back("outcomes[" + std::to_string(i) + "]");
        }
    }
    return out;
}

ResumeIdentityReport
verifyResumeIdentity(const sys::SystemConfig &host_cfg,
                     const vm::VmConfig &vm_cfg,
                     const dram::AddressMapping &mapping,
                     const attack::AttackConfig &attack_cfg,
                     const ResumeIdentityOptions &options)
{
    ResumeIdentityReport report;

    // Start from a clean slate: stale checkpoints from an earlier
    // experiment would otherwise be resumed (by design).
    const std::string prev =
        options.checkpointPath + kCheckpointPrevSuffix;
    (void)std::remove(options.checkpointPath.c_str());
    (void)std::remove(prev.c_str());

    // Control: one straight, uncheckpointed campaign.
    attack::AttackResult straight;
    {
        sys::HostSystem host(host_cfg);
        attack::HyperHammerAttack attack(host, vm_cfg, mapping,
                                         attack_cfg);
        (void)attack.profilePhase();
        straight = attack.runAttempts(options.attempts,
                                      options.threads);
    }

    // Experiment, phase 1: checkpoint and die mid-campaign.
    {
        sys::HostSystem host(host_cfg);
        attack::HyperHammerAttack attack(host, vm_cfg, mapping,
                                         attack_cfg);
        (void)attack.profilePhase();
        CheckpointPolicy policy;
        policy.path = options.checkpointPath;
        policy.everyTrials = options.checkpointEvery;
        policy.stopAfterTrials = options.killAfterTrials;
        const attack::AttackResult partial = attack.runAttempts(
            options.attempts, options.threads, policy);
        report.killedMidway =
            partial.status == base::Status(base::ErrorCode::Busy);
    }

    // Experiment, phase 2: a new process-equivalent (fresh host,
    // fresh attack object) resumes from the checkpoint.
    attack::AttackResult resumed;
    {
        sys::HostSystem host(host_cfg);
        attack::HyperHammerAttack attack(host, vm_cfg, mapping,
                                         attack_cfg);
        (void)attack.profilePhase();
        CheckpointPolicy policy;
        policy.path = options.checkpointPath;
        policy.everyTrials = options.checkpointEvery;
        policy.resume = true;
        resumed = attack.runAttempts(options.attempts, options.threads,
                                     policy);
    }
    report.resumedTrials = resumed.resumedTrials;

    // The straight run never resumes; mask the one field that is
    // *about* the resume mechanism rather than the campaign results.
    attack::AttackResult straight_masked = straight;
    straight_masked.resumedTrials = resumed.resumedTrials;
    report.mismatches = diffAttackResults(straight_masked, resumed);
    report.identical = report.mismatches.empty();

    (void)std::remove(options.checkpointPath.c_str());
    (void)std::remove(prev.c_str());
    return report;
}

} // namespace hh::snapshot
