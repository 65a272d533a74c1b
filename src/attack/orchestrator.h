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
 * the Table 3 statistics. It also owns the campaign's only persisted
 * state, the range record: when a range writes one, which one it
 * resumes, and how records of a sharded campaign merge.
 */

#ifndef HYPERHAMMER_ATTACK_ORCHESTRATOR_H
#define HYPERHAMMER_ATTACK_ORCHESTRATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/exploit.h"
#include "attack/page_steering.h"
#include "attack/profiler.h"
#include "attack/types.h"
#include "base/archive.h"
#include "base/status.h"
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
     * Campaign size: runAttempts() runs trials [0, maxAttempts). It is
     * part of the campaign fingerprint and of every range record.
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
    /**
     * Faults the trial world's injector fired from its fork to the end
     * of the attempt: boot, secret and VM spawn included.
     */
    uint64_t faultsFired = 0;

    bool operator==(const AttemptOutcome &) const = default;
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

/**
 * Result of an attack run (the Table 3 row). @ref outcomes is the
 * campaign's only per-attempt record; readers derive means and rates
 * from it.
 */
struct AttackResult
{
    bool success = false;
    unsigned attempts = 0;
    base::SimTime totalTime = 0;
    std::vector<AttemptOutcome> outcomes;
    /**
     * How the run ended: Ok on escalation, LimitExceeded when the
     * attempt budget ran out, NotFound when the profile held no
     * exploitable bits (no trial runs then). A non-Ok status still
     * carries the outcomes -- the attack degrades, it does not abort.
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

/** Suffix of a range record's rotated previous file, its fallback. */
inline const char *const kCheckpointPrevSuffix = ".prev";

/**
 * Where and how often a trial range keeps its range record. A path is
 * the only switch: a range with one always resumes the record there
 * (DESIGN.md section 3.4).
 */
struct CheckpointPolicy
{
    /**
     * The range's record (RangeRecord), its checkpoint and its shard
     * artifact; empty disables checkpointing entirely.
     */
    std::string path;

    /**
     * Write the record at range start and after every block of N
     * trials; 0 runs the whole range as one block.
     */
    uint64_t everyTrials = 0;
};

/**
 * Raw product of a contiguous trial range [begin, end): the completed
 * outcome prefix (relative to @c begin, truncated at the range's first
 * success) and how many of those trials were restored from a
 * checkpoint.
 */
struct TrialRangeResult
{
    std::vector<AttemptOutcome> outcomes;
    /** Trials restored from a checkpoint rather than re-run. */
    unsigned resumedTrials = 0;
    /** Outcome of the last range-record write (success when none). */
    base::Status saved = base::Status::success();
};

/**
 * The one persisted record of a trial range [begin, end): the range's
 * checkpoint while it runs and its shard artifact once terminal.
 * runTrialRange() writes it; resume, mergeShards() and `hh_sweep`
 * read it back through loadRangeRecord(). Two records merge only when
 * fingerprint and totalTrials agree and their ranges do not overlap.
 */
struct RangeRecord
{
    /** HyperHammerAttack::campaignFingerprint() of the campaign. */
    uint64_t campaignFingerprint = 0;
    /** Campaign size: the campaign's AttackConfig::maxAttempts. */
    uint64_t totalTrials = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
    /**
     * The writer's final word on the range: true once it is complete.
     * A record left by a kill or a still-running worker is
     * non-terminal, and mergeShards() makes its whole range a hole.
     */
    bool terminal = true;
    /** Completed prefix of the range, cut at its own first success. */
    std::vector<AttemptOutcome> outcomes;

    /** All trials ran, or the range stopped at its own success. */
    bool complete() const;

    /** The range lies in the campaign and holds every outcome. */
    bool consistent() const;

    /**
     * This record, finished or not, is of range [range_begin,
     * range_end) of campaign (fingerprint, total_trials). A range
     * resumes only a record that is; `hh_sweep` refuses to write over
     * a readable record that is not.
     */
    bool belongsTo(uint64_t fingerprint, uint64_t total_trials,
                   uint64_t range_begin, uint64_t range_end) const;

    /**
     * This record finishes range [range_begin, range_end) of campaign
     * (fingerprint, total_trials): it is terminal, complete, and
     * belongsTo() that campaign and range.
     */
    bool finishes(uint64_t fingerprint, uint64_t total_trials,
                  uint64_t range_begin, uint64_t range_end) const;

    void saveState(base::ArchiveWriter &w) const;

    /** InvalidArgument on a short or inconsistent payload. */
    [[nodiscard]] base::Status loadState(base::ArchiveReader &r);
};

/**
 * Rotate the record at @p path to path + ".prev", then write
 * @p record atomically (temp + fsync + rename).
 */
[[nodiscard]] base::Status saveRangeRecord(const std::string &path,
                                           const RangeRecord &record);

/**
 * Read the record at @p path, that file only: NotFound when it is
 * missing, InvalidArgument when its framing, version, outcome count
 * or range is wrong.
 */
[[nodiscard]] base::Expected<RangeRecord>
loadRangeRecord(const std::string &path);

/** A contiguous, half-open range of absolute trial indices. */
struct ShardRange
{
    uint64_t begin = 0;
    uint64_t end = 0;

    uint64_t size() const { return end - begin; }
    bool empty() const { return begin == end; }
};

/**
 * Split @p total_trials into @p count contiguous near-even ranges:
 * the first (total % count) shards get one extra trial. Ranges tile
 * [0, total_trials) in order; with count > total_trials the surplus
 * shards come back empty (begin == end), which merge accepts. count
 * of 0 is treated as 1.
 */
std::vector<ShardRange> planShards(uint64_t total_trials,
                                   unsigned count);

/**
 * Product of mergeShards(): the folded result plus exactly which
 * trial ranges did not contribute. `exact` says whether the result is
 * already the canonical full-campaign result -- true when nothing is
 * missing, or when the folded prefix reaches a success before the
 * first hole (aggregateOutcomes truncates there, so trials past it
 * can never influence the canonical result).
 */
struct SweepReport
{
    AttackResult result;
    uint64_t campaignFingerprint = 0;
    uint64_t totalTrials = 0;
    /** Uncovered ranges, sorted and coalesced; empty when complete. */
    std::vector<ShardRange> missing;
    /** True when `result` equals the canonical full-campaign result. */
    bool exact = false;

    /** At least one range is missing (the sweep ran degraded). */
    bool partial() const { return !missing.empty(); }
};

/**
 * The one merge of range records. It folds every finishing record's
 * outcomes in trial order through
 * HyperHammerAttack::aggregateOutcomes -- the same pure function of
 * the outcome sequence a single-process run computes -- and names
 * every range without one in SweepReport::missing: a gap between
 * records, or the whole range of an incomplete or non-terminal
 * record. Rerunning those ranges and merging again gives the
 * bitwise-identical full result.
 *
 * Only adversarial input is an error: InvalidArgument for no records,
 * records of different campaigns (fingerprint or totalTrials) or a
 * record inconsistent with itself; Exists for duplicate or
 * overlapping ranges. Input order is irrelevant: records are sorted
 * by range first.
 */
[[nodiscard]] base::Expected<SweepReport>
mergeShards(std::vector<RangeRecord> records);

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
     * The whole-campaign driver: up to AttackConfig::maxAttempts
     * independent trials [0, maxAttempts) via runTrialRange() on up to
     * @p threads worker threads (0 = hardware concurrency), folded by
     * aggregateOutcomes(). An empty host profile ends the campaign
     * with NotFound before any trial runs. Requires profilePhase()
     * first.
     *
     * Every trial runs against its own forked host -- same DRAM
     * geometry and fault seed (so the reusable host-physical profile
     * stays valid) but a per-trial boot-noise stream derived with
     * base::SeedSequence, which makes respawns independent samples.
     * Outcomes are merged in trial order and truncated at the first
     * success, exactly where a sequential loop would have stopped, so
     * the result is bitwise-identical for any thread count.
     *
     * @p policy adds crash-safe checkpointing exactly as
     * runTrialRange() does for the range [0, maxAttempts). Trials are
     * pure functions of (configuration, trial index), so the merged
     * result is bitwise-identical to an uncheckpointed run for any
     * block size, thread count or kill/resume history.
     */
    AttackResult runAttempts(unsigned threads,
                             const CheckpointPolicy &policy = {});

    /**
     * Run the contiguous trial range [begin, end) of a campaign:
     * every trial executes at its absolute index, so outcome
     * i of the returned prefix is the same pure function of
     * (configuration, begin + i) a single-process runAttempts()
     * computes for that trial. The range stops early at its first
     * success (later trials in the range are never observable in a
     * sequential run).
     *
     * With a policy.path, trials run in blocks of policy.everyTrials
     * (0: the whole range is one block), and at range start and after
     * each block the range's RangeRecord -- campaign fingerprint,
     * campaign size (maxAttempts), range, completed prefix -- is saved
     * at the path by saveRangeRecord(). It turns terminal when the
     * range is complete. Before any of that the range restores the
     * record at the path, else at path + ".prev", that
     * RangeRecord::belongsTo() this campaign and range, and re-runs
     * nothing it holds; any other record is ignored. When the call
     * returns, the path holds the record of the whole completed
     * prefix. A process killed mid-range leaves the record of its
     * last finished block at the path and the one before it in
     * path + ".prev" (only that one when the kill lands between the
     * rotation and the rename); rerunning the range resumes it.
     *
     * This is the shard entry point -- callers merge the returned
     * outcomes through aggregateOutcomes(), or the records through
     * mergeShards(). Requires profilePhase() first.
     */
    TrialRangeResult
    runTrialRange(uint64_t begin, uint64_t end, unsigned threads,
                  const CheckpointPolicy &policy);

    /**
     * The sanctioned outcome -> AttackResult merge: truncates
     * @p outcomes at the first success (idempotent on already
     * truncated prefixes), sums the integer totals and derives
     * success/attempts/status/degraded exactly like a sequential run.
     * runAttempts() and mergeShards() funnel through here,
     * which is what makes "bitwise-identical at any shard count x
     * thread count" a single code path rather than a test-enforced
     * coincidence.
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
     * across processes too; range records embed it.
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
     * fingerprint covers each defense's name and saved state, so
     * outcomes recorded under one defense configuration can never
     * resume into another. The caller keeps ownership; the stack must
     * outlive the campaign.
     */
    void
    attachDefenses(mitigate::DefenseSet *defense_set)
    {
        defenses = defense_set;
    }

  private:
    sys::HostSystem &host;
    vm::VmConfig vmCfg;
    dram::AddressMapping mapping;
    AttackConfig cfg;
    /** Borrowed defense stack; travels via the fingerprint. */
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
     * sets the outcome's duration, which includes the VM spawn, and
     * its faultsFired, which include the world's boot.
     */
    AttemptOutcome attemptIn(sys::HostSystem &on_host,
                             vm::VirtualMachine &machine,
                             HostPhysAddr secret_addr,
                             uint64_t secret_value) const;

    /** One self-contained trial: fork host, spawn VM, attempt. */
    AttemptOutcome runTrial(uint64_t trial) const;
};

} // namespace hh::attack

#endif // HYPERHAMMER_ATTACK_ORCHESTRATOR_H
