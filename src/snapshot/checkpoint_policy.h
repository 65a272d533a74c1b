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
#include <cstdio>
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
     * Write the record after every N completed trials (and once more
     * when a trial succeeds). 0 runs the whole range as one block and
     * writes the record once, at its end.
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

    /**
     * Liveness file for a supervising dispatcher: the campaign rewrites
     * it with the completed-trial count at range start and after every
     * finished trial block, independent of checkpoint cadence. Empty
     * disables it. Purely observational -- the file never feeds back
     * into trial results, so the determinism contract is untouched.
     */
    std::string heartbeatPath;
};

/**
 * Rewrite @p path with @p completed_trials. A plain in-place rewrite,
 * not an atomic rename: the reader (the dispatch supervisor) only
 * compares successive contents for change, so a torn read at worst
 * looks like one extra change -- which refreshes the lease, the safe
 * direction. Failures are deliberately swallowed: liveness reporting
 * must never kill a healthy campaign.
 */
inline void
touchHeartbeat(const std::string &path, uint64_t completed_trials)
{
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return;
    std::fprintf(f, "%llu\n",
                 static_cast<unsigned long long>(completed_trials));
    std::fclose(f);
}

} // namespace hh::snapshot

#endif // HYPERHAMMER_SNAPSHOT_CHECKPOINT_POLICY_H
