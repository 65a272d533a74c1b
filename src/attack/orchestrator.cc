#include "orchestrator.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "base/archive.h"
#include "base/log.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "mitigate/defense.h"
#include "snapshot/snapshot_format.h"

namespace hh::attack {

void
BatchAggregates::add(const AttemptOutcome &outcome)
{
    attemptSeconds.add(base::SimClock::toSeconds(outcome.duration));
    bitsTargeted.add(static_cast<double>(outcome.bitsTargeted));
    releasedSubBlocks.add(
        static_cast<double>(outcome.releasedSubBlocks));
    demotions.add(static_cast<double>(outcome.demotions));
    changedPages.add(static_cast<double>(outcome.changedPages));
    epteCandidates.add(static_cast<double>(outcome.epteCandidates));
    retries.add(static_cast<double>(outcome.retries));
}

void
BatchAggregates::merge(const BatchAggregates &other)
{
    attemptSeconds.merge(other.attemptSeconds);
    bitsTargeted.merge(other.bitsTargeted);
    releasedSubBlocks.merge(other.releasedSubBlocks);
    demotions.merge(other.demotions);
    changedPages.merge(other.changedPages);
    epteCandidates.merge(other.epteCandidates);
    retries.merge(other.retries);
}

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
    const uint64_t fired_before =
        injector != nullptr ? injector->totalFired() : 0;

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
        base::SimTime backoff = cfg.retryBackoff;
        uint64_t new_faults = detected();
        for (unsigned r = 0; r < cfg.maxPhaseRetries && new_faults > 0;
             ++r) {
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

    // The steer() sequence, inlined so the release step can retry.
    SteeringResult steered;
    const base::SimTime steer_start = on_host.clock().now();
    steered.iovaMappings = steering.exhaustNoisePages();
    steering.releaseVulnerable(targets, steered);
    retry_phase(
        [&] { return steered.steerMisses + steered.failedUnplugs; },
        [&] { steering.releaseVulnerable(targets, steered); });
    std::unordered_set<uint64_t> excluded;
    for (const GuestPhysAddr &hp : steered.releasedHugePages)
        excluded.insert(hp.value());
    steered.demotions = steering.sprayEptes(spray, excluded);
    steered.sprayedBytes = steered.demotions * kHugePageSize;
    steered.elapsed = on_host.clock().now() - steer_start;
    outcome.releasedSubBlocks = steered.releasedSubBlocks;
    outcome.demotions = steered.demotions;

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

    if (injector != nullptr)
        outcome.faultsFired = injector->totalFired() - fired_before;
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
    w.boolean(vmCfg.balloon);
    w.boolean(vmCfg.quarantine.enabled);
    w.u64(vmCfg.quarantine.toleranceSubBlocks);
    w.u64(vmCfg.quarantine.graceRequests);
    w.u64(vmCfg.quarantine.windowRequests);
    w.u32(cfg.bitsPerAttempt);
    w.u64(cfg.sprayBytes);
    w.u32(cfg.maxAttempts);
    w.u32(cfg.maxPhaseRetries);
    w.u64(cfg.retryBackoff);
    // The slot of the retired re-profiling knob, written at its last
    // default: checkpoints, shard manifests, dispatch ledgers and the
    // benchmark's reference tables pin fingerprints taken with it.
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
        defenses->fingerprint(w);
    return w.fingerprint();
}

base::Status
HyperHammerAttack::saveCheckpoint(
    const std::string &path, uint64_t begin,
    const std::vector<AttemptOutcome> &outcomes) const
{
    base::ArchiveWriter w;
    w.u64(campaignFingerprint());
    w.u64(begin);
    w.u64(outcomes.size());
    for (const AttemptOutcome &outcome : outcomes)
        writeOutcome(w, outcome);
    // v4: the defense-state block. The fingerprint pins the defense
    // *configuration*; this block carries the stack's state so a
    // resumed campaign restores exactly the defended world it left.
    w.boolean(defenses != nullptr);
    if (defenses != nullptr)
        defenses->saveState(w);
    // Keep the previous checkpoint as the fallback file; the rename
    // fails harmlessly when this is the first checkpoint.
    const std::string prev = path + snapshot::kCheckpointPrevSuffix;
    (void)std::rename(path.c_str(), prev.c_str());
    return base::saveArchiveFile(path, snapshot::kCheckpointMagic,
                                 snapshot::kSnapshotFormatVersion,
                                 w.buffer());
}

base::Expected<std::vector<AttemptOutcome>>
HyperHammerAttack::loadCheckpoint(const std::string &path,
                                  uint64_t begin) const
{
    const auto load_one = [this, begin](const std::string &file)
        -> base::Expected<std::vector<AttemptOutcome>> {
        auto loaded = base::loadArchiveFile(
            file, snapshot::kCheckpointMagic,
            snapshot::kSnapshotFormatVersion,
            snapshot::kSnapshotFormatVersion);
        if (!loaded)
            return loaded.error();
        base::ArchiveReader r(loaded->payload);
        const uint64_t fingerprint = r.u64();
        const uint64_t stored_begin = r.u64();
        if (!r.ok())
            return base::ErrorCode::InvalidArgument;
        if (fingerprint != campaignFingerprint()) {
            base::warn("checkpoint '%s': campaign fingerprint mismatch"
                       " (different config or profile); ignoring",
                       file.c_str());
            return base::ErrorCode::InvalidArgument;
        }
        if (stored_begin != begin) {
            base::warn("checkpoint '%s': trial-range start %llu does "
                       "not match this range's %llu; ignoring",
                       file.c_str(),
                       static_cast<unsigned long long>(stored_begin),
                       static_cast<unsigned long long>(begin));
            return base::ErrorCode::InvalidArgument;
        }
        const uint64_t n = r.count(kOutcomeBytes);
        std::vector<AttemptOutcome> outcomes;
        outcomes.reserve(n);
        for (uint64_t i = 0; i < n && r.ok(); ++i)
            outcomes.push_back(readOutcome(r));
        if (!r.ok()) {
            base::warn("checkpoint '%s': malformed outcome records",
                       file.c_str());
            return base::ErrorCode::InvalidArgument;
        }
        // Defense-state block: attachment must agree (a defended
        // checkpoint never resumes undefended, or vice versa), and an
        // attached stack restores its own state.
        const bool stored_defended = r.boolean();
        if (!r.ok() || stored_defended != (defenses != nullptr)) {
            base::warn("checkpoint '%s': defense attachment mismatch "
                       "(stored %d, campaign %d); ignoring",
                       file.c_str(), stored_defended ? 1 : 0,
                       defenses != nullptr ? 1 : 0);
            return base::ErrorCode::InvalidArgument;
        }
        if (defenses != nullptr) {
            if (const base::Status loaded = defenses->loadState(r);
                !loaded.ok())
                return loaded.error();
        }
        if (!r.ok() || !r.atEnd()) {
            base::warn("checkpoint '%s': malformed defense block",
                       file.c_str());
            return base::ErrorCode::InvalidArgument;
        }
        return outcomes;
    };

    auto primary = load_one(path);
    if (primary)
        return primary;
    const std::string prev = path + snapshot::kCheckpointPrevSuffix;
    auto fallback = load_one(prev);
    if (fallback) {
        base::inform("checkpoint: resumed from fallback '%s'",
                     prev.c_str());
        return fallback;
    }
    return primary.error();
}

TrialRangeResult
HyperHammerAttack::runTrialRange(uint64_t begin, uint64_t end,
                                 unsigned threads,
                                 const snapshot::CheckpointPolicy &policy)
{
    HH_ASSERT(begin <= end);
    const uint64_t total = end - begin;
    if (threads == 0)
        threads = base::ThreadPool::defaultThreads();

    TrialRangeResult range;
    // Outcomes accumulate as the completed range prefix, already
    // truncated at the range's first success (the sequential stopping
    // point -- for a whole campaign, the campaign's stopping point;
    // for a shard, mergeShards() re-truncates globally).
    std::vector<AttemptOutcome> &outcomes = range.outcomes;
    outcomes.reserve(total);
    if (policy.resume && !policy.path.empty()) {
        auto restored = loadCheckpoint(policy.path, begin);
        if (restored) {
            outcomes = std::move(*restored);
            if (outcomes.size() > total)
                outcomes.resize(total);
        } else if (restored.error() != base::ErrorCode::NotFound) {
            base::warn("checkpoint '%s': no valid checkpoint; "
                       "starting from trial %llu",
                       policy.path.c_str(),
                       static_cast<unsigned long long>(begin));
        }
    }
    range.resumedTrials = static_cast<unsigned>(outcomes.size());
    // First heartbeat before any work: a supervising dispatcher learns
    // the worker is alive even when trial 0 takes a full lease window.
    snapshot::touchHeartbeat(policy.heartbeatPath, outcomes.size());

    // Build the canonical template world once: every trial forks it
    // in O(pages touched) instead of rebuilding a host from scratch.
    // The template is pristine (un-booted), so it is identical for
    // every trial seed and can be shared across worker threads.
    if (!trialTemplate)
        trialTemplate =
            sys::HostSystem::makeForkTemplate(host.config());

    uint64_t first_success = total;
    for (uint64_t trial = 0; trial < outcomes.size(); ++trial) {
        if (outcomes[trial].success) {
            first_success = trial;
            break;
        }
    }

    // Run the remaining trials in checkpoint-sized blocks at their
    // absolute trial indices, so each outcome is the same pure
    // function of (config, trial) an unchunked single-process run
    // computes.
    uint64_t done = outcomes.size();
    const uint64_t block = policy.enabled()
        ? policy.everyTrials
        : std::max<uint64_t>(total, 1);
    while (done < total && first_success == total && !range.stopped) {
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
        if (rel < todo)
            first_success = done + rel;
        done += keep;
        snapshot::touchHeartbeat(policy.heartbeatPath, done);
        if (policy.enabled()) {
            const base::Status saved =
                saveCheckpoint(policy.path, begin, outcomes);
            if (!saved.ok())
                base::warn("checkpoint '%s': save failed; campaign "
                           "continues unprotected",
                           policy.path.c_str());
            if (policy.stopAfterTrials != 0
                && done >= policy.stopAfterTrials && done < total
                && first_success == total)
                range.stopped = true; // simulated crash (test hook)
        }
    }
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

    // Merge in trial order: a pure function of the outcome prefix,
    // hence independent of thread count, block size, shard layout and
    // resume history.
    AttackResult result;
    for (const AttemptOutcome &outcome : outcomes) {
        BatchAggregates one;
        one.add(outcome);
        result.stats.merge(one);
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
HyperHammerAttack::runAttempts(unsigned attempts, unsigned threads,
                               const snapshot::CheckpointPolicy &policy)
{
    if (bits.empty()) {
        AttackResult result;
        result.status = base::ErrorCode::NotFound;
        result.degraded = true;
        return result;
    }
    TrialRangeResult range =
        runTrialRange(0, attempts, threads, policy);
    const bool stopped = range.stopped;
    const unsigned resumed = range.resumedTrials;
    AttackResult result = aggregateOutcomes(std::move(range.outcomes));
    result.resumedTrials = resumed;
    if (stopped) {
        // An interrupted campaign is unfinished, not failed: report
        // Busy with the partial outcomes and no degradation verdict.
        result.status = base::ErrorCode::Busy;
        result.degraded = false;
    }
    return result;
}

} // namespace hh::attack
