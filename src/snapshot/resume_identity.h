/**
 * @file
 * Resume-identity verification: proof that checkpoint/kill/resume is
 * invisible in the results.
 *
 * The checkpoint contract (DESIGN.md section 3.4) promises that a
 * campaign killed at an arbitrary trial and resumed from its newest
 * checkpoint produces a result bitwise-identical to a straight run.
 * This verifier enforces the promise: it runs the same campaign twice
 * -- once straight, once checkpointed + killed + resumed -- and diffs
 * the two AttackResults: every campaign total and every attempt
 * record. Any difference is reported by name, so a regression points
 * directly at the field or attempt that diverged.
 */

#ifndef HYPERHAMMER_SNAPSHOT_RESUME_IDENTITY_H
#define HYPERHAMMER_SNAPSHOT_RESUME_IDENTITY_H

#include <cstdint>
#include <string>
#include <vector>

#include "attack/orchestrator.h"
#include "sys/host_system.h"

namespace hh::snapshot {

/** One resume-identity experiment. */
struct ResumeIdentityOptions
{
    /** Trials in the campaign. */
    unsigned attempts = 8;
    /** Worker threads for both runs. */
    unsigned threads = 1;
    /** Checkpoint cadence of the killed run. */
    uint64_t checkpointEvery = 2;
    /** Simulated SIGKILL once this many trials completed. */
    uint64_t killAfterTrials = 3;
    /** Checkpoint file (and its ".prev" rotation target). */
    std::string checkpointPath;
};

/** Field-by-field comparison outcome. */
struct ResumeIdentityReport
{
    /** True when every field matched bitwise. */
    bool identical = false;
    /** The kill actually interrupted the campaign mid-way. */
    bool killedMidway = false;
    /** Trials the resumed run restored instead of re-running. */
    unsigned resumedTrials = 0;
    /** Named mismatches, e.g. "outcomes[2]" (empty if none). */
    std::vector<std::string> mismatches;
};

/**
 * Run the campaign defined by (@p host_cfg, @p vm_cfg, @p mapping,
 * @p attack_cfg) straight and as checkpoint-kill-resume, then diff.
 * Both runs build their own hosts from @p host_cfg, so the two are
 * fully independent; determinism of the simulation does the rest.
 */
ResumeIdentityReport
verifyResumeIdentity(const sys::SystemConfig &host_cfg,
                     const vm::VmConfig &vm_cfg,
                     const dram::AddressMapping &mapping,
                     const attack::AttackConfig &attack_cfg,
                     const ResumeIdentityOptions &options);

/**
 * Diff two AttackResults: each total by name, each attempt record as
 * "outcomes[i]". Returns the named mismatches; empty means identical.
 * Exposed separately so the CI kill/resume soak can compare results
 * recomputed in different processes.
 */
std::vector<std::string>
diffAttackResults(const attack::AttackResult &a,
                  const attack::AttackResult &b);

} // namespace hh::snapshot

#endif // HYPERHAMMER_SNAPSHOT_RESUME_IDENTITY_H
