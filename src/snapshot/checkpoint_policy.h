/**
 * @file
 * Checkpoint policy for long-running trial campaigns.
 *
 * Header-only and base-free so the attack layer can accept a policy
 * without linking the snapshot library. The policy only says *when and
 * where* to checkpoint; the campaign owner (HyperHammerAttack::
 * runTrialRange) writes its range record with the atomic write /
 * rotate / resume protocol described in DESIGN.md section 3.4.
 */

#ifndef HYPERHAMMER_SNAPSHOT_CHECKPOINT_POLICY_H
#define HYPERHAMMER_SNAPSHOT_CHECKPOINT_POLICY_H

#include <cstdint>
#include <string>

namespace hh::snapshot {

/** Suffix of the rotated previous checkpoint (the fallback file). */
inline const char *const kCheckpointPrevSuffix = ".prev";

/** When/where a trial campaign checkpoints and whether it resumes. */
struct CheckpointPolicy
{
    /**
     * Range-record file (attack::RangeRecord), the range's checkpoint
     * and its shard artifact; empty disables checkpointing entirely.
     */
    std::string path;

    /**
     * Write the record at range start and after every block of N
     * trials; 0 runs the whole range as one block. Each write doubles
     * as the heartbeat a supervising dispatcher watches.
     */
    uint64_t everyTrials = 0;

    /**
     * Resume from the newest valid record before running: @ref path
     * first, then path + ".prev" when the primary file is missing,
     * truncated, corrupt or version-stale. A record whose campaign
     * fingerprint or range start does not match is rejected the same
     * way. When nothing valid exists the range starts from its first
     * trial.
     */
    bool resume = false;

    /**
     * Test hook simulating a crash: stop (with a Busy status and the
     * record freshly written) at the first block end where at least
     * this many trials have completed. 0 runs to completion. Lets
     * resume-identity tests exercise the kill/resume path
     * deterministically in-process; the CI soak job uses a real
     * SIGKILL instead.
     */
    uint64_t stopAfterTrials = 0;
};

} // namespace hh::snapshot

#endif // HYPERHAMMER_SNAPSHOT_CHECKPOINT_POLICY_H
