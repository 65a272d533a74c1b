#include "resume_identity.h"

#include <cstdio>

#include "base/log.h"
#include "snapshot/checkpoint_policy.h"

namespace hh::snapshot {

namespace {

void
diffStats(std::vector<std::string> &out, const std::string &name,
          const base::RunningStats &a, const base::RunningStats &b)
{
    if (!a.bitwiseEqual(b))
        out.push_back("stats." + name);
}

void
diffOutcome(std::vector<std::string> &out, size_t index,
            const attack::AttemptOutcome &a,
            const attack::AttemptOutcome &b)
{
    const std::string prefix =
        "outcomes[" + std::to_string(index) + "].";
    if (a.success != b.success)
        out.push_back(prefix + "success");
    if (a.bitsTargeted != b.bitsTargeted)
        out.push_back(prefix + "bitsTargeted");
    if (a.releasedSubBlocks != b.releasedSubBlocks)
        out.push_back(prefix + "releasedSubBlocks");
    if (a.demotions != b.demotions)
        out.push_back(prefix + "demotions");
    if (a.changedPages != b.changedPages)
        out.push_back(prefix + "changedPages");
    if (a.epteCandidates != b.epteCandidates)
        out.push_back(prefix + "epteCandidates");
    if (a.duration != b.duration)
        out.push_back(prefix + "duration");
    if (a.retries != b.retries)
        out.push_back(prefix + "retries");
    if (a.backoffTime != b.backoffTime)
        out.push_back(prefix + "backoffTime");
    if (a.faultsFired != b.faultsFired)
        out.push_back(prefix + "faultsFired");
}

} // namespace

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
        for (size_t i = 0; i < a.outcomes.size(); ++i)
            diffOutcome(out, i, a.outcomes[i], b.outcomes[i]);
    }
    diffStats(out, "attemptSeconds", a.stats.attemptSeconds,
              b.stats.attemptSeconds);
    diffStats(out, "bitsTargeted", a.stats.bitsTargeted,
              b.stats.bitsTargeted);
    diffStats(out, "releasedSubBlocks", a.stats.releasedSubBlocks,
              b.stats.releasedSubBlocks);
    diffStats(out, "demotions", a.stats.demotions, b.stats.demotions);
    diffStats(out, "changedPages", a.stats.changedPages,
              b.stats.changedPages);
    diffStats(out, "epteCandidates", a.stats.epteCandidates,
              b.stats.epteCandidates);
    diffStats(out, "retries", a.stats.retries, b.stats.retries);
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
