/**
 * @file
 * End-to-end HyperHammer attack orchestration (Sections 4 and 5.3).
 *
 * The attack is probabilistic: the attacker profiles once, then each
 * attempt relocates that reusable profile, steers, hammers, and checks
 * for escalation; on failure the hugepage demotions are irreversible,
 * so the VM must be torn down and respawned for the next attempt. The
 * orchestrator runs every attempt as an independent trial in a world
 * forked from a shared template (runTrialRange, folded by
 * aggregateOutcomes), reproduces the paper's profiling-reuse oracle (a
 * debug hypercall translating GPA to HPA, Section 5.3.2) and records
 * the Table 3 statistics.
 */

#ifndef HYPERHAMMER_ATTACK_ORCHESTRATOR_H
#define HYPERHAMMER_ATTACK_ORCHESTRATOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "attack/exploit.h"
#include "attack/page_steering.h"
#include "attack/profiler.h"
#include "attack/types.h"
#include "base/archive.h"
#include "base/stats.h"
#include "snapshot/checkpoint_policy.h"
#include "sys/host_system.h"

namespace hh::mitigate {
class DefenseSet;
} // namespace hh::mitigate

namespace hh::attack {

/** Whole-attack tunables (defaults follow Section 5.3.2). */
struct AttackConfig
{
    /** Vulnerable bits targeted per attempt (paper: 12). */
    unsigned bitsPerAttempt = 12;
    /**
     * Bytes of hugepages sprayed per attempt; 0 = every remaining
     * hugepage (the paper uses all memory not released).
     */
    uint64_t sprayBytes = 0;
    /**
     * Attempt budget of a campaign, the @c attempts callers pass to
     * runAttempts(); it is part of the campaign fingerprint.
     */
    unsigned maxAttempts = 1'000;
    /**
     * Per-phase retries when injected faults are detected (lost flips
     * after hammering, steering misses / refused unplugs after the
     * release step). Retries never trigger on the fault-free path, so
     * a null FaultPlan keeps pre-fault behaviour bit for bit.
     */
    unsigned maxPhaseRetries = 3;
    /** Initial retry backoff (virtual time); doubles per retry. */
    base::SimTime retryBackoff = 10 * base::kMillisecond;
    ProfilerConfig profiler;
    SteeringConfig steering;
    ExploitConfig exploit;
};

/** A profiled bit in host-physical terms (the reusable profile). */
struct HostVulnBit
{
    HostPhysAddr wordHpa{0};
    unsigned bitInWord = 0;
    dram::FlipDirection direction = dram::FlipDirection::OneToZero;
    bool stable = false;
    std::vector<HostPhysAddr> aggressorHpas;
};

/** What happened in one attempt. */
struct AttemptOutcome
{
    bool success = false;
    unsigned bitsTargeted = 0;
    uint64_t releasedSubBlocks = 0;
    uint64_t demotions = 0;
    uint64_t changedPages = 0;
    uint64_t epteCandidates = 0;
    base::SimTime duration = 0;
    /** Phase retries taken after detected faults. */
    unsigned retries = 0;
    /** Virtual time spent in retry backoff. */
    base::SimTime backoffTime = 0;
    /** Faults the host injector fired during this attempt. */
    uint64_t faultsFired = 0;
};

/**
 * Mergeable per-attempt aggregates (the Table 3 columns). Each trial
 * produces its own instance; the engine folds them together in trial
 * order, so the merged numbers are bitwise-identical for any thread
 * count.
 */
struct BatchAggregates
{
    base::RunningStats attemptSeconds;
    base::RunningStats bitsTargeted;
    base::RunningStats releasedSubBlocks;
    base::RunningStats demotions;
    base::RunningStats changedPages;
    base::RunningStats epteCandidates;
    base::RunningStats retries;

    /** Fold one attempt in. */
    void add(const AttemptOutcome &outcome);
    /** Fold another aggregate in (RunningStats::merge per metric). */
    void merge(const BatchAggregates &other);
};

/**
 * Serialized size of one AttemptOutcome (count() validation):
 * success, bitsTargeted, five u64 counters + duration, retries,
 * backoffTime, faultsFired -- keep in sync with writeOutcome().
 */
constexpr uint64_t kOutcomeBytes = 1 + 4 + 5 * 8 + 4 + 8 + 8;

/** Append one outcome's canonical wire form to @p w. */
void writeOutcome(base::ArchiveWriter &w, const AttemptOutcome &outcome);

/** Read one outcome in writeOutcome() order. */
AttemptOutcome readOutcome(base::ArchiveReader &r);

/** Aggregate result of an attack run (the Table 3 row). */
struct AttackResult
{
    bool success = false;
    unsigned attempts = 0;
    base::SimTime totalTime = 0;
    std::vector<AttemptOutcome> outcomes;
    /** Merged per-attempt statistics over @ref outcomes. */
    BatchAggregates stats;
    /**
     * How the run ended: Ok on escalation, LimitExceeded when the
     * attempt budget ran out, NotFound when the profile held no
     * exploitable bits (no trial runs then), Busy when a
     * stopAfterTrials stop interrupted it. A non-Ok status still
     * carries the partial outcomes -- the attack degrades, it does not
     * abort.
     */
    base::Status status = base::Status::success();
    /** True when the run ended early on a degraded path. */
    bool degraded = false;
    /** Total faults the trial injectors fired across the run. */
    uint64_t faultsInjected = 0;
    /** Trials restored from a checkpoint rather than re-run. */
    unsigned resumedTrials = 0;

    /** Mean virtual duration of one attempt, seconds. */
    double avgAttemptSeconds() const;
};

/**
 * Raw product of a contiguous trial range [begin, end): the completed
 * outcome prefix (relative to @c begin, truncated at the range's first
 * success), how many of those trials were restored from a checkpoint,
 * and whether a stopAfterTrials stop cut the range short. This is the
 * shard hand-off unit: hh::shard wraps it in a manifest and
 * mergeShards() recombines ranges into the canonical AttackResult.
 */
struct TrialRangeResult
{
    std::vector<AttemptOutcome> outcomes;
    /** Trials restored from a checkpoint rather than re-run. */
    unsigned resumedTrials = 0;
    /** True when policy.stopAfterTrials ended the range early. */
    bool stopped = false;
};

/**
 * Expected end-to-end time (Section 5.3.3): profiling each attempt
 * until @p bits_needed bits are found, for an expected
 * @p expected_attempts attempts.
 *
 * @param full_profile_time    time of a full profiling pass
 * @param exploitable_found    exploitable bits that pass finds
 */
base::SimTime expectedEndToEndTime(base::SimTime full_profile_time,
                                   uint64_t exploitable_found,
                                   unsigned bits_needed,
                                   unsigned expected_attempts);

/**
 * Runs the full attack against one host: profilePhase() on the host
 * itself, then every attempt as a trial in its own forked world.
 */
class HyperHammerAttack
{
  public:
    /**
     * @param host             the victim host
     * @param vm_config        how the attacker's VM is provisioned
     * @param attacker_mapping the DRAM mapping the attacker assumes
     *                         (recovered offline with DRAMDig)
     * @param config           tunables
     */
    HyperHammerAttack(sys::HostSystem &host, vm::VmConfig vm_config,
                      dram::AddressMapping attacker_mapping,
                      AttackConfig config);

    ~HyperHammerAttack();

    /**
     * Profile a freshly spawned VM on the host and store the result in
     * host-physical terms for reuse by every trial. The VM is torn
     * down before returning: trials spawn their own. Must run before
     * runAttempts()/runTrialRange(). Returns the attacker-visible
     * profile.
     */
    ProfileResult profilePhase();

    /**
     * The whole-campaign driver: up to @p attempts independent trials
     * [0, attempts) via runTrialRange() on up to @p threads worker
     * threads (0 = hardware concurrency), folded by
     * aggregateOutcomes(). An empty host profile ends the campaign
     * with NotFound before any trial runs. Requires profilePhase()
     * first.
     *
     * Every trial runs against its own forked host -- same DRAM
     * geometry and fault seed (so the reusable host-physical profile
     * stays valid) but a per-trial boot-noise stream derived with
     * base::SeedSequence, which makes respawns independent samples.
     * Outcomes and aggregates are merged in trial order and truncated
     * at the first success, exactly where a sequential loop would have
     * stopped, so the result is bitwise-identical for any thread
     * count.
     *
     * @p policy adds crash-safe checkpointing: trials run in blocks of
     * policy.everyTrials; after each block the completed outcome
     * prefix is written atomically (temp + fsync + rename, previous
     * checkpoint rotated to "<path>.prev"). With policy.resume the
     * campaign first restores the newest valid checkpoint -- falling
     * back to the rotated file when the primary is corrupt -- and
     * re-runs nothing it already completed. Trials are pure functions
     * of (configuration, trial index), so the merged result is
     * bitwise-identical to an uncheckpointed run for any block size,
     * thread count or kill/resume history; a checkpoint from a
     * different configuration is rejected by fingerprint. A
     * stopAfterTrials stop returns a Busy status with the partial
     * outcomes.
     */
    AttackResult runAttempts(unsigned attempts, unsigned threads,
                             const snapshot::CheckpointPolicy &policy = {});

    /**
     * Run the contiguous trial range [begin, end) of a campaign:
     * every trial executes at its absolute index, so outcome
     * i of the returned prefix is the same pure function of
     * (configuration, begin + i) a single-process runAttempts(end)
     * computes for that trial. The range stops early at its first
     * success (later trials in the range are never observable in a
     * sequential run) and honours @p policy exactly like
     * runAttempts(): block-sized checkpoints carry @p begin so a
     * resumed shard rejects artifacts from a different range, and
     * policy.stopAfterTrials counts range-relative completions.
     *
     * This is the shard entry point -- callers other than
     * runAttempts() and hh::shard must merge the returned outcomes
     * through aggregateOutcomes()/shard::mergeShards(), never by
     * folding BatchAggregates directly (enforced by the
     * shard-merge-only lint rule). Requires profilePhase() first.
     */
    TrialRangeResult
    runTrialRange(uint64_t begin, uint64_t end, unsigned threads,
                  const snapshot::CheckpointPolicy &policy);

    /**
     * The sanctioned outcome -> AttackResult merge: truncates
     * @p outcomes at the first success (idempotent on already
     * truncated prefixes), folds BatchAggregates in trial order and
     * derives success/attempts/status/degraded exactly like a
     * sequential run. runAttempts() and shard::mergeShards() funnel
     * through here, which is what makes "bitwise-identical at any
     * shard count x thread count" a single code path rather than a
     * test-enforced coincidence.
     * resumedTrials is left 0 -- range/shard bookkeeping belongs to
     * the caller.
     */
    static AttackResult
    aggregateOutcomes(std::vector<AttemptOutcome> outcomes);

    /**
     * Identity of a checkpointable campaign: host configuration, VM
     * provisioning, attack tunables and the host-physical profile.
     * Trials are pure functions of this plus the trial index, so a
     * matching fingerprint means stored outcomes are reusable --
     * across processes too; shard manifests embed it.
     */
    uint64_t campaignFingerprint() const;

    /**
     * The hypervisor secret planted in the primary host's kernel
     * memory at construction (a page holding a magic value). Trials
     * never read this one: each plants its own secret in its forked
     * host, at an address of its own, and succeeds when the attacker
     * reads that secret through its own address space.
     */
    HostPhysAddr secretAddress() const { return secretAddr; }
    uint64_t secretValue() const { return secret; }

    /** The reusable host-physical profile (after profilePhase()). */
    const std::vector<HostVulnBit> &hostProfile() const { return bits; }

    /**
     * Attach the defense stack this campaign runs against (null
     * detaches). The orchestrator does not apply defenses -- their
     * config transforms act before host construction -- but an
     * attached stack becomes part of the campaign identity: the
     * fingerprint covers its knobs, and checkpoints carry its state,
     * so outcomes recorded under one defense configuration can never
     * resume into another. The caller keeps ownership; the stack must
     * outlive the campaign.
     */
    void
    attachDefenses(mitigate::DefenseSet *defense_set)
    {
        defenses = defense_set;
    }

    /** The attached defense stack; null when undefended. */
    mitigate::DefenseSet *attachedDefenses() const { return defenses; }

  private:
    sys::HostSystem &host;
    vm::VmConfig vmCfg;
    dram::AddressMapping mapping;
    AttackConfig cfg;
    /** Borrowed defense stack; travels via fingerprint + checkpoint. */
    mitigate::DefenseSet *defenses = nullptr;

    std::vector<HostVulnBit> bits;
    Pfn secretFrame = kInvalidPfn;
    HostPhysAddr secretAddr{0};
    uint64_t secret = 0;

    /**
     * Pristine un-booted world every trial forks from, built lazily
     * on the first runTrialRange() call and shared (read-only) by all
     * worker threads. mutable because runTrial() is const and must be
     * able to rely on it.
     */
    mutable std::unique_ptr<const sys::HostSystem> trialTemplate;

    /** A hypervisor secret planted in a host's kernel memory. */
    struct PlantedSecret
    {
        Pfn frame = kInvalidPfn;
        HostPhysAddr addr{0};
        uint64_t value = 0;
    };

    /** Allocate a kernel page on @p on_host and hide a secret in it. */
    static PlantedSecret plantSecret(sys::HostSystem &on_host);

    /**
     * The paper's oracle: relocate the host-physical profile into the
     * current VM's guest address space via the debug hypercall.
     */
    std::vector<VulnerableBit>
    relocateTargets(vm::VirtualMachine &machine) const;

    /**
     * One steering + hammer + detect + escalate attempt of @p machine
     * against its host @p on_host, a trial's forked world. The caller
     * sets the outcome's duration, which includes the VM spawn.
     */
    AttemptOutcome attemptIn(sys::HostSystem &on_host,
                             vm::VirtualMachine &machine,
                             HostPhysAddr secret_addr,
                             uint64_t secret_value) const;

    /** One self-contained trial: fork host, spawn VM, attempt. */
    AttemptOutcome runTrial(uint64_t trial) const;

    /**
     * Rotate the old checkpoint and atomically write the new one.
     * @p begin is the absolute index of outcomes[0] (0 for a whole
     * campaign, the range start for a shard).
     */
    [[nodiscard]] base::Status
    saveCheckpoint(const std::string &path, uint64_t begin,
                   const std::vector<AttemptOutcome> &outcomes) const;

    /**
     * Restore outcomes from @p path, else from "<path>.prev". A
     * checkpoint whose stored range start differs from @p begin is
     * rejected like a fingerprint mismatch.
     */
    [[nodiscard]] base::Expected<std::vector<AttemptOutcome>>
    loadCheckpoint(const std::string &path, uint64_t begin) const;
};

} // namespace hh::attack

#endif // HYPERHAMMER_ATTACK_ORCHESTRATOR_H
