#include "orchestrator.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "base/archive.h"
#include "base/log.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "mitigate/defense.h"

namespace hh::attack {

namespace {

/**
 * Per-phase retries when injected faults are detected (lost flips
 * after hammering, steering misses / refused unplugs after the
 * release step). Retries never trigger on the fault-free path, so
 * a null FaultPlan keeps pre-fault behaviour bit for bit.
 */
constexpr unsigned kMaxPhaseRetries = 3;
/** Initial retry backoff (virtual time); doubles per retry. */
constexpr base::SimTime kRetryBackoff = 10 * base::kMillisecond;

} // namespace

double
AttackResult::avgAttemptSeconds() const
{
    if (outcomes.empty())
        return 0.0;
    // Durations are integer SimTime ticks: sum them exactly as
    // integers and convert once, so the mean is order-independent.
    base::SimTime total = 0;
    for (const AttemptOutcome &outcome : outcomes)
        total += outcome.duration;
    return base::SimClock::toSeconds(total)
        / static_cast<double>(outcomes.size());
}

base::SimTime
expectedEndToEndTime(base::SimTime full_profile_time,
                     uint64_t exploitable_found, unsigned bits_needed,
                     unsigned expected_attempts)
{
    if (exploitable_found == 0)
        return 0;
    // Profiling can stop once bits_needed bits are found, i.e. after
    // bits_needed / exploitable_found of a full pass (Section 5.3.3).
    const double per_attempt_profile =
        static_cast<double>(full_profile_time)
        * static_cast<double>(bits_needed)
        / static_cast<double>(exploitable_found);
    return static_cast<base::SimTime>(per_attempt_profile
                                      * expected_attempts);
}

HyperHammerAttack::HyperHammerAttack(sys::HostSystem &host,
                                     vm::VmConfig vm_config,
                                     dram::AddressMapping attacker_mapping,
                                     AttackConfig config)
    : host(host),
      vmCfg(vm_config),
      mapping(std::move(attacker_mapping)),
      cfg(config)
{
    const PlantedSecret planted = plantSecret(host);
    secretFrame = planted.frame;
    secretAddr = planted.addr;
    secret = planted.value;
}

HyperHammerAttack::PlantedSecret
HyperHammerAttack::plantSecret(sys::HostSystem &on_host)
{
    // Plant the hypervisor secret the attacker will try to reach:
    // a host kernel page holding a magic value.
    auto frame = on_host.buddy().allocPages(
        0, mm::MigrateType::Unmovable, mm::PageUse::KernelData);
    // Under fault injection an AllocFail can land on this very
    // allocation; retry across a few occurrences instead of dying.
    // The fault-free path keeps the original single-shot fatal.
    for (unsigned r = 0; !frame && on_host.faults() != nullptr && r < 16;
         ++r)
        frame = on_host.buddy().allocPages(
            0, mm::MigrateType::Unmovable, mm::PageUse::KernelData);
    if (!frame)
        base::fatal("cannot allocate the host secret page");
    PlantedSecret planted;
    planted.frame = *frame;
    planted.addr = HostPhysAddr(planted.frame * kPageSize + 0x5e8);
    planted.value = base::mix64(0x5ec7e7, on_host.config().seed) | 1;
    on_host.dram().write64(planted.addr, planted.value);
    return planted;
}

HyperHammerAttack::~HyperHammerAttack()
{
    if (secretFrame != kInvalidPfn) {
        host.dram().backend().clearPage(secretFrame);
        host.buddy().freePages(secretFrame, 0);
    }
}

ProfileResult
HyperHammerAttack::profilePhase()
{
    // The profiling VM dies with this call: every trial spawns its own
    // VM in its own forked world, so nothing could reuse it.
    const std::unique_ptr<vm::VirtualMachine> machine =
        host.createVm(vmCfg);

    MemoryProfiler profiler(*machine, host.clock(), mapping,
                            cfg.profiler);
    // Profile the virtio-mem region only: boot RAM cannot be released.
    std::vector<GuestPhysAddr> region;
    for (GuestPhysAddr hp : machine->hugePageGpas()) {
        if (machine->memDevice_().contains(hp))
            region.push_back(hp);
    }
    const ProfileResult result = profiler.profile(region);

    // Convert to host-physical records for reuse across respawns.
    bits.clear();
    for (const VulnerableBit &bit : result.bits) {
        // Only bits that are both in the exploitable range and
        // releasable (victim and aggressors in different host
        // hugepages -- a host-physical property that survives
        // respawns) are worth keeping.
        if (!bit.exploitable || !bit.releasable)
            continue;
        HostVulnBit record;
        auto word_hpa = machine->debugTranslate(bit.wordGpa);
        if (!word_hpa)
            continue;
        record.wordHpa = *word_hpa;
        record.bitInWord = bit.bitInWord;
        record.direction = bit.direction;
        record.stable = bit.stable;
        bool ok = true;
        for (GuestPhysAddr aggressor : bit.aggressors) {
            auto hpa = machine->debugTranslate(aggressor);
            if (!hpa) {
                ok = false;
                break;
            }
            record.aggressorHpas.push_back(*hpa);
        }
        if (ok)
            bits.push_back(std::move(record));
    }
    // Prefer stable bits when an attempt can only use twelve.
    std::stable_sort(bits.begin(), bits.end(),
                     [](const HostVulnBit &a, const HostVulnBit &b) {
                         return a.stable > b.stable;
                     });
    return result;
}

std::vector<VulnerableBit>
HyperHammerAttack::relocateTargets(vm::VirtualMachine &current) const
{
    // Build host-hugepage -> guest-hugepage index via the hypercall.
    std::unordered_map<uint64_t, GuestPhysAddr> host_to_guest;
    for (GuestPhysAddr hp : current.hugePageGpas()) {
        auto hpa = current.debugTranslate(hp);
        if (hpa)
            host_to_guest[hpa->hugePageBase().value()] = hp;
    }

    auto locate = [&](HostPhysAddr hpa) -> base::Expected<GuestPhysAddr> {
        const auto it =
            host_to_guest.find(hpa.hugePageBase().value());
        if (it == host_to_guest.end())
            return base::ErrorCode::NotFound;
        return it->second + hpa.hugePageOffset();
    };

    // Each released bit needs ~512 EPT pages sprayed over it, plus
    // one block's worth of margin for the small-order leftovers, so
    // cap the batch at H/512 - 1 for H usable hugepages (the paper's
    // "1 GB of guest memory per vulnerable bit", Section 4.3: 12 bits
    // from a 13 GB guest).
    const uint64_t hugepages = current.memorySize() / kHugePageSize;
    const uint64_t groups = hugepages / kEntriesPerTable;
    const unsigned spray_cap = static_cast<unsigned>(
        std::max<uint64_t>(1, groups > 1 ? groups - 1 : 1));
    const unsigned batch = std::min(cfg.bitsPerAttempt, spray_cap);

    std::vector<VulnerableBit> targets;
    for (const HostVulnBit &record : bits) {
        if (targets.size() >= batch)
            break;
        auto word_gpa = locate(record.wordHpa);
        if (!word_gpa)
            continue;
        // The victim hugepage must be releasable (virtio-mem region).
        const GuestPhysAddr victim_hp = word_gpa->hugePageBase();
        if (!current.memDevice_().contains(victim_hp))
            continue;
        VulnerableBit bit;
        bit.wordGpa = *word_gpa;
        bit.bitInWord = record.bitInWord;
        bit.direction = record.direction;
        bit.stable = record.stable;
        bit.victimHugePage = victim_hp;
        bool ok = true;
        for (HostPhysAddr aggressor : record.aggressorHpas) {
            auto gpa = locate(aggressor);
            if (!gpa || gpa->hugePageBase() == victim_hp) {
                ok = false;
                break;
            }
            bit.aggressors.push_back(*gpa);
        }
        if (!ok || bit.aggressors.empty())
            continue;
        bit.aggressorHugePage = bit.aggressors.front().hugePageBase();
        bit.exploitable = true;
        targets.push_back(std::move(bit));
    }
    return targets;
}

AttemptOutcome
HyperHammerAttack::attemptIn(sys::HostSystem &on_host,
                             vm::VirtualMachine &current,
                             HostPhysAddr secret_addr,
                             uint64_t secret_value) const
{
    AttemptOutcome outcome;
    fault::FaultInjector *injector = on_host.faults();

    const std::vector<VulnerableBit> targets = relocateTargets(current);
    outcome.bitsTargeted = static_cast<unsigned>(targets.size());
    if (targets.empty())
        return outcome;

    // Redo a phase while it reports newly detected faults, with
    // exponential backoff in virtual time. Retries are keyed on
    // *detected* faults (misses, refused unplugs, lost flips), never on
    // probabilistic outcomes, so with a null injector this is the exact
    // pre-fault call sequence.
    const auto retry_phase = [&](const auto &detected, const auto &redo) {
        if (injector == nullptr)
            return;
        base::SimTime backoff = kRetryBackoff;
        uint64_t new_faults = detected();
        for (unsigned r = 0; r < kMaxPhaseRetries && new_faults > 0; ++r) {
            on_host.clock().advance(backoff);
            outcome.backoffTime += backoff;
            backoff *= 2;
            ++outcome.retries;
            const uint64_t before = detected();
            redo();
            new_faults = detected() - before;
        }
    };

    PageSteering steering(current, on_host.clock(), cfg.steering,
                          injector);
    const uint64_t spray = cfg.sprayBytes
        ? cfg.sprayBytes
        : current.memorySize(); // everything that remains

    // Steering's three steps, with a retry on the release step.
    SteeringResult steered;
    steering.exhaustNoisePages();
    steering.releaseVulnerable(targets, steered);
    retry_phase(
        [&] { return steered.steerMisses + steered.failedUnplugs; },
        [&] { steering.releaseVulnerable(targets, steered); });
    std::unordered_set<uint64_t> excluded;
    for (const GuestPhysAddr &hp : steered.releasedHugePages)
        excluded.insert(hp.value());
    outcome.demotions = steering.sprayEptes(spray, excluded);
    outcome.releasedSubBlocks = steered.releasedSubBlocks;

    Exploiter exploiter(current, on_host.clock(), cfg.exploit,
                        injector);
    exploiter.markPages(current.hugePageGpas());
    exploiter.hammerTargets(targets);
    retry_phase([&] { return exploiter.lostFlips(); },
                [&] { exploiter.hammerTargets(targets); });

    const std::vector<GuestPhysAddr> changed =
        exploiter.detectMappingChanges();
    outcome.changedPages = changed.size();

    for (GuestPhysAddr page : changed) {
        if (!exploiter.looksLikeEptPage(page))
            continue;
        ++outcome.epteCandidates;
        auto escalation = exploiter.validateAndEscalate(page);
        if (!escalation)
            continue;
        // Prove arbitrary host access: read the hypervisor secret.
        auto value = exploiter.readHost(*escalation, secret_addr);
        if (value && *value == secret_value) {
            outcome.success = true;
            break;
        }
    }
    return outcome;
}

AttemptOutcome
HyperHammerAttack::runTrial(uint64_t trial) const
{
    // Fork the trial world from the shared pristine template.
    // dram.seed is kept, so the forked DIMM has the
    // identical fault map and the host-physical profile remains valid;
    // the top-level seed moves to a per-trial stream, giving each
    // trial its own boot-noise and free-list history, so respawns are
    // independent samples rather than replays.
    sys::SystemConfig trial_cfg = host.config();
    trial_cfg.seed = base::SeedSequence(host.config().seed).seed(trial);
    HH_ASSERT(trialTemplate != nullptr);
    const std::unique_ptr<sys::HostSystem> forked =
        sys::HostSystem::forkTrial(*trialTemplate, trial_cfg);
    sys::HostSystem &trial_host = *forked;

    const PlantedSecret planted = plantSecret(trial_host);
    const base::SimTime start = trial_host.clock().now();
    std::unique_ptr<vm::VirtualMachine> current =
        trial_host.createVm(vmCfg);
    AttemptOutcome outcome =
        attemptIn(trial_host, *current, planted.addr, planted.value);
    // An attempt's cost includes the VM spawn, which dominates in
    // practice (Table 3's ~4 min average).
    outcome.duration = trial_host.clock().now() - start;
    // The trial world's injector was born with forkTrial(), so its
    // total covers the boot, the secret and the spawn as well.
    if (const fault::FaultInjector *injector = trial_host.faults())
        outcome.faultsFired = injector->totalFired();
    return outcome;
}

void
writeOutcome(base::ArchiveWriter &w, const AttemptOutcome &outcome)
{
    w.boolean(outcome.success);
    w.u32(outcome.bitsTargeted);
    w.u64(outcome.releasedSubBlocks);
    w.u64(outcome.demotions);
    w.u64(outcome.changedPages);
    w.u64(outcome.epteCandidates);
    w.u64(outcome.duration);
    w.u32(outcome.retries);
    w.u64(outcome.backoffTime);
    w.u64(outcome.faultsFired);
}

AttemptOutcome
readOutcome(base::ArchiveReader &r)
{
    AttemptOutcome outcome;
    outcome.success = r.boolean();
    outcome.bitsTargeted = r.u32();
    outcome.releasedSubBlocks = r.u64();
    outcome.demotions = r.u64();
    outcome.changedPages = r.u64();
    outcome.epteCandidates = r.u64();
    outcome.duration = r.u64();
    outcome.retries = r.u32();
    outcome.backoffTime = r.u64();
    outcome.faultsFired = r.u64();
    return outcome;
}

uint64_t
HyperHammerAttack::campaignFingerprint() const
{
    base::ArchiveWriter w;
    w.u64(host.configFingerprint());
    w.u64(vmCfg.bootMemBytes);
    w.u64(vmCfg.virtioMemRegionSize);
    w.u64(vmCfg.virtioMemPlugged);
    w.u32(vmCfg.passthroughDevices);
    // The slot of the retired virtio-balloon device, written as
    // absent for the same reason as the re-profiling slot below.
    w.boolean(false);
    w.boolean(vmCfg.quarantine.enabled);
    // The slots of the three retired quarantine tuning knobs, written
    // at their only value for the same reason as the re-profiling
    // slot below.
    w.u64(0);
    w.u64(0);
    w.u64(0);
    w.u32(cfg.bitsPerAttempt);
    w.u64(cfg.sprayBytes);
    w.u32(cfg.maxAttempts);
    // The slots of the two retry knobs, now constants, written at
    // their values for the same reason as the re-profiling slot below.
    w.u32(kMaxPhaseRetries);
    w.u64(kRetryBackoff);
    // The slot of the retired re-profiling knob, written at its last
    // default: range records and the benchmark's reference tables pin
    // fingerprints taken with it.
    w.u32(3);
    w.boolean(cfg.exploit.combinedHammer);
    // The host-physical profile folds in every remaining tunable that
    // shaped it (profiler config, DRAM fault map, boot noise), so the
    // fingerprint changes whenever trial outcomes could.
    w.u64(bits.size());
    for (const HostVulnBit &bit : bits) {
        w.u64(bit.wordHpa.value());
        w.u32(bit.bitInWord);
        w.u8(static_cast<uint8_t>(bit.direction));
        w.boolean(bit.stable);
        w.u64(bit.aggressorHpas.size());
        for (HostPhysAddr hpa : bit.aggressorHpas)
            w.u64(hpa.value());
    }
    // The defense stack is part of the campaign identity: trials run
    // against a defended world, so outcomes are only reusable when the
    // same defenses (with the same knobs) were active.
    w.boolean(defenses != nullptr);
    if (defenses != nullptr)
        defenses->saveState(w);
    return w.fingerprint();
}

bool
RangeRecord::complete() const
{
    return outcomes.size() == end - begin
        || (!outcomes.empty() && outcomes.back().success);
}

bool
RangeRecord::consistent() const
{
    return begin <= end && end <= totalTrials
        && outcomes.size() <= end - begin;
}

bool
RangeRecord::belongsTo(uint64_t fingerprint, uint64_t total_trials,
                       uint64_t range_begin, uint64_t range_end) const
{
    return campaignFingerprint == fingerprint
        && totalTrials == total_trials && begin == range_begin
        && end == range_end;
}

bool
RangeRecord::finishes(uint64_t fingerprint, uint64_t total_trials,
                      uint64_t range_begin, uint64_t range_end) const
{
    return terminal && complete()
        && belongsTo(fingerprint, total_trials, range_begin, range_end);
}

void
RangeRecord::saveState(base::ArchiveWriter &w) const
{
    w.u64(campaignFingerprint);
    w.u64(totalTrials);
    w.u64(begin);
    w.u64(end);
    w.boolean(terminal);
    w.u64(outcomes.size());
    for (const AttemptOutcome &outcome : outcomes)
        writeOutcome(w, outcome);
}

base::Status
RangeRecord::loadState(base::ArchiveReader &r)
{
    RangeRecord loaded;
    loaded.campaignFingerprint = r.u64();
    loaded.totalTrials = r.u64();
    loaded.begin = r.u64();
    loaded.end = r.u64();
    loaded.terminal = r.boolean();
    const uint64_t n = r.count(kOutcomeBytes);
    loaded.outcomes.reserve(n);
    for (uint64_t i = 0; i < n && r.ok(); ++i)
        loaded.outcomes.push_back(readOutcome(r));
    if (!r.ok() || !loaded.consistent())
        return base::ErrorCode::InvalidArgument;
    *this = std::move(loaded);
    return base::Status::success();
}

namespace {

/** Magic of a range record file: "HHCKPT\n" and a 0x01 byte. */
constexpr uint64_t kRangeRecordMagic = 0x4848434b50540a01ull;

/**
 * Format version of a range record file, the one layout that reaches
 * disk: RangeRecord::saveState() and writeOutcome(). Bump it whenever
 * either changes shape; tools/hh_lint.py (rule `snapshot-version`)
 * pins both definitions in tools/snapshot_manifest.json and fails
 * until it is bumped. A record of another version is refused, never
 * reinterpreted. A world's saveState() stream never leaves memory and
 * carries no version.
 */
constexpr uint32_t kSnapshotFormatVersion = 10;

} // namespace

base::Status
saveRangeRecord(const std::string &path, const RangeRecord &record)
{
    base::ArchiveWriter w;
    record.saveState(w);
    // Keep the previous record as the fallback file; the rename fails
    // harmlessly when this is the first write.
    const std::string prev = path + kCheckpointPrevSuffix;
    (void)std::rename(path.c_str(), prev.c_str());
    return base::saveArchiveFile(path, kRangeRecordMagic,
                                 kSnapshotFormatVersion, w.buffer());
}

base::Expected<RangeRecord>
loadRangeRecord(const std::string &path)
{
    auto payload = base::loadArchiveFile(path, kRangeRecordMagic,
                                         kSnapshotFormatVersion);
    if (!payload)
        return payload.error();
    base::ArchiveReader r(*payload);
    RangeRecord record;
    if (!record.loadState(r).ok() || !r.atEnd()) {
        base::warn("range record '%s': malformed outcomes or range",
                   path.c_str());
        return base::ErrorCode::InvalidArgument;
    }
    return record;
}

namespace {

/**
 * The completed prefix a range starts from: the outcomes of the
 * record at @p path, else at path + ".prev", whichever first
 * belongsTo() the campaign and range of @p range. Empty when neither
 * does.
 */
std::vector<AttemptOutcome>
restoreRange(const std::string &path, const RangeRecord &range)
{
    for (const std::string &file : {path, path + kCheckpointPrevSuffix}) {
        auto record = loadRangeRecord(file);
        if (record
            && record->belongsTo(range.campaignFingerprint,
                                 range.totalTrials, range.begin,
                                 range.end))
            return std::move(record->outcomes);
        if (record)
            base::warn("range record '%s' is of another campaign or "
                       "range; ignoring",
                       file.c_str());
    }
    return {};
}

} // namespace

TrialRangeResult
HyperHammerAttack::runTrialRange(uint64_t begin, uint64_t end,
                                 unsigned threads,
                                 const CheckpointPolicy &policy)
{
    HH_ASSERT(begin <= end);
    const uint64_t total = end - begin;
    if (threads == 0)
        threads = base::ThreadPool::defaultThreads();
    const bool persist = !policy.path.empty();

    TrialRangeResult range;
    // Outcomes accumulate in the range's record as the completed
    // prefix, already truncated at the range's first success (the
    // sequential stopping point -- for a whole campaign, the
    // campaign's stopping point; for a shard, mergeShards()
    // re-truncates globally).
    RangeRecord record{persist ? campaignFingerprint() : 0,
                       cfg.maxAttempts, begin, end, false, {}};
    std::vector<AttemptOutcome> &outcomes = record.outcomes;
    if (persist)
        outcomes = restoreRange(policy.path, record);
    outcomes.reserve(total);
    range.resumedTrials = static_cast<unsigned>(outcomes.size());

    const auto save = [&] {
        record.terminal = record.complete();
        range.saved = saveRangeRecord(policy.path, record);
        if (!range.saved.ok())
            base::warn("range record '%s': save failed; campaign "
                       "continues unprotected",
                       policy.path.c_str());
    };
    // The record is written before any work only so that a range in
    // which nothing runs -- an empty range, or one restored whole --
    // still leaves its record at the path.
    if (persist)
        save();

    // Build the canonical template world once: every trial forks it
    // in O(pages touched) instead of rebuilding a host from scratch.
    // The template is pristine (un-booted), so it is identical for
    // every trial seed and can be shared across worker threads.
    if (!trialTemplate)
        trialTemplate =
            sys::HostSystem::makeForkTemplate(host.config());

    // Run the remaining trials in blocks at their absolute trial
    // indices, so each outcome is the same pure function of
    // (config, trial) an unchunked single-process run computes. The
    // record is complete once every trial ran or one succeeded.
    const uint64_t block =
        policy.everyTrials > 0 ? policy.everyTrials : total;
    while (!record.complete()) {
        const uint64_t done = outcomes.size();
        const uint64_t todo = std::min<uint64_t>(block, total - done);
        std::vector<AttemptOutcome> chunk(todo);
        const uint64_t rel = base::parallelFindFirst(
            todo, threads, [&](uint64_t i) {
                chunk[i] = runTrial(begin + done + i);
                return chunk[i].success;
            });
        // Keep the complete prefix, truncated at the first success;
        // speculative trials past it are discarded (see
        // parallelFindFirst's completeness guarantee).
        const uint64_t keep = std::min<uint64_t>(todo, rel + 1);
        outcomes.insert(outcomes.end(), chunk.begin(),
                        chunk.begin()
                            + static_cast<std::ptrdiff_t>(keep));
        if (persist)
            save();
    }
    range.outcomes = std::move(outcomes);
    return range;
}

AttackResult
HyperHammerAttack::aggregateOutcomes(std::vector<AttemptOutcome> outcomes)
{
    // Truncate at the first success: exactly where a sequential loop
    // stops. Idempotent on prefixes runTrialRange() already cut, and
    // what makes shard concatenation order-insensitive once sorted.
    for (uint64_t trial = 0; trial < outcomes.size(); ++trial) {
        if (outcomes[trial].success) {
            outcomes.resize(trial + 1);
            break;
        }
    }

    // Integer totals of the outcome prefix: a pure function of it,
    // hence independent of thread count, block size, shard layout and
    // resume history.
    AttackResult result;
    for (const AttemptOutcome &outcome : outcomes) {
        result.totalTime += outcome.duration;
        result.faultsInjected += outcome.faultsFired;
    }
    result.attempts = static_cast<unsigned>(outcomes.size());
    result.success =
        !outcomes.empty() && outcomes.back().success;
    result.outcomes = std::move(outcomes);
    if (!result.success) {
        result.status = base::ErrorCode::LimitExceeded;
        result.degraded = result.faultsInjected > 0;
    }
    return result;
}

AttackResult
HyperHammerAttack::runAttempts(unsigned threads,
                               const CheckpointPolicy &policy)
{
    if (bits.empty()) {
        AttackResult result;
        result.status = base::ErrorCode::NotFound;
        result.degraded = true;
        return result;
    }
    TrialRangeResult range =
        runTrialRange(0, cfg.maxAttempts, threads, policy);
    AttackResult result = aggregateOutcomes(std::move(range.outcomes));
    result.resumedTrials = range.resumedTrials;
    return result;
}

std::vector<ShardRange>
planShards(uint64_t total_trials, unsigned count)
{
    if (count == 0)
        count = 1;
    std::vector<ShardRange> ranges;
    ranges.reserve(count);
    const uint64_t base = total_trials / count;
    const uint64_t extra = total_trials % count;
    uint64_t begin = 0;
    for (unsigned i = 0; i < count; ++i) {
        const uint64_t size = base + (i < extra ? 1 : 0);
        ranges.push_back(ShardRange{begin, begin + size});
        begin += size;
    }
    return ranges;
}

namespace {

/** Append a hole, coalescing with an adjacent predecessor. */
void
addMissing(std::vector<ShardRange> &missing, ShardRange hole)
{
    if (!missing.empty() && missing.back().end == hole.begin) {
        missing.back().end = hole.end;
        return;
    }
    missing.push_back(hole);
}

} // namespace

base::Expected<SweepReport>
mergeShards(std::vector<RangeRecord> records)
{
    if (records.empty())
        return base::ErrorCode::InvalidArgument;
    for (const RangeRecord &record : records) {
        if (!record.consistent()
            || record.campaignFingerprint
                != records.front().campaignFingerprint
            || record.totalTrials != records.front().totalTrials)
            return base::ErrorCode::InvalidArgument;
    }

    // Canonical order: any arrival order merges identically.
    std::sort(records.begin(), records.end(),
              [](const RangeRecord &a, const RangeRecord &b) {
                  if (a.begin != b.begin)
                      return a.begin < b.begin;
                  return a.end < b.end;
              });

    // Fold the finishing records in trial order and name every range
    // they do not cover. An incomplete or non-terminal record
    // contributes nothing: its *whole* range becomes a hole, because
    // the worker that closes the hole finishes the full range into
    // one record -- folding its prefix here and that record later
    // would double-count on re-merge.
    SweepReport report;
    report.campaignFingerprint = records.front().campaignFingerprint;
    report.totalTrials = records.front().totalTrials;
    // totalTrials is read from a file: it bounds no allocation.
    const uint64_t total = report.totalTrials;
    std::vector<AttemptOutcome> outcomes;
    uint64_t next = 0; // first trial index not yet accounted
    uint64_t first_success = total;
    for (const RangeRecord &record : records) {
        // Two records claiming the same trials is corruption, not a
        // hole a rerun could close.
        if (record.begin < next)
            return base::ErrorCode::Exists;
        const ShardRange range{record.begin, record.end};
        if (range.begin > next)
            addMissing(report.missing, ShardRange{next, range.begin});
        next = range.end;
        if (!record.complete() || !record.terminal) {
            if (!range.empty())
                addMissing(report.missing, range);
            continue;
        }
        for (size_t i = 0;
             i < record.outcomes.size() && first_success == total; ++i) {
            if (record.outcomes[i].success)
                first_success = range.begin + i;
        }
        outcomes.insert(outcomes.end(), record.outcomes.begin(),
                        record.outcomes.end());
    }
    if (next < total)
        addMissing(report.missing, ShardRange{next, total});

    // aggregateOutcomes truncates at the first success in the folded
    // sequence -- the campaign's sequential stopping point. Trials a
    // sequential run never reaches (including every hole past that
    // success) cannot influence the canonical result, which is what
    // makes a degraded fold `exact` when the success precedes the
    // first hole.
    report.result =
        HyperHammerAttack::aggregateOutcomes(std::move(outcomes));
    report.exact = report.missing.empty()
        || (first_success < report.missing.front().begin);
    return report;
}

} // namespace hh::attack
