#include "matrix.h"

#include "base/log.h"

namespace hh::mitigate {

uint64_t
MatrixResult::fingerprint() const
{
    base::ArchiveWriter w;
    w.u64(cells.size());
    for (const MatrixCell &cell : cells) {
        w.str(cell.host);
        w.str(cell.defense);
        w.str(cell.attackName);
        w.u64(cell.profiledBits);
        w.boolean(cell.success);
        w.u32(cell.attempts);
        w.f64(cell.successRate);
        w.u64(cell.releasedSubBlocks);
        w.u64(cell.flippedMappings);
        w.u64(cell.epteCandidates);
        w.f64(cell.avgAttemptSeconds);
        w.u64(cell.overhead.reservedBytes);
        w.f64(cell.overhead.slowdownFactor);
        // The slot of the retired NACK counter, which nothing wrote:
        // E11's goldens pin this fingerprint with it at 0.
        w.u64(0);
        w.u64(cell.campaignFingerprint);
    }
    return w.fingerprint();
}

const MatrixCell *
MatrixResult::find(const std::string &host, const std::string &defense,
                   const std::string &attack_name) const
{
    for (const MatrixCell &cell : cells) {
        if (cell.host == host && cell.defense == defense
            && cell.attackName == attack_name)
            return &cell;
    }
    return nullptr;
}

namespace {

/** Run one cell's campaign; the caller owns axis validation. */
base::Expected<MatrixCell>
runCell(const MatrixSpec &spec, const sys::SystemConfig &host_base,
        const std::string &defense_spec,
        const std::string &attack_name)
{
    auto defenses = makeDefenseSet(defense_spec);
    if (!defenses)
        return defenses.error();
    DefenseSet &set = *defenses;

    sys::SystemConfig host_cfg = host_base;
    set.applyHostConfig(host_cfg);
    vm::VmConfig vm_cfg = spec.vm;
    set.applyVmConfig(vm_cfg);
    attack::AttackConfig attack_cfg = spec.attack;
    attack_cfg.exploit.combinedHammer = attack_name == "combined";

    sys::HostSystem host(host_cfg);
    if (const base::Status configured = set.configure(host);
        !configured.ok()) {
        base::warn("matrix: defense '%s' rejected host '%s'",
                   defense_spec.c_str(), host_base.name.c_str());
        return configured.error();
    }

    attack::HyperHammerAttack campaign(host, vm_cfg,
                                       host.dram().mapping(),
                                       attack_cfg);
    campaign.attachDefenses(&set);
    // An empty profile (a defense that suppresses every flip) is a
    // legitimate all-failure cell, not an error: the trials still run
    // deterministically and score zero.
    (void)campaign.profilePhase();

    MatrixCell cell;
    cell.host = host_base.name;
    cell.defense = set.label();
    cell.attackName = attack_name;
    cell.profiledBits = campaign.hostProfile().size();
    cell.overhead = set.overhead();
    cell.campaignFingerprint = campaign.campaignFingerprint();

    // Trials run even on an empty profile, through the same trial
    // range + fold as runAttempts(), so a cell is the same pure
    // function of (config, trials) at any thread count -- the matrix
    // identity test compares fingerprints across thread counts.
    const attack::AttackResult merged =
        attack::HyperHammerAttack::aggregateOutcomes(
            campaign.runTrialRange(0, spec.trials, spec.threads, {})
                .outcomes);

    cell.success = merged.success;
    cell.attempts = merged.attempts;
    for (const attack::AttemptOutcome &outcome : merged.outcomes) {
        cell.releasedSubBlocks += outcome.releasedSubBlocks;
        cell.flippedMappings += outcome.changedPages;
        cell.epteCandidates += outcome.epteCandidates;
    }
    cell.successRate = merged.attempts > 0
        ? (merged.success ? 1.0 : 0.0)
            / static_cast<double>(merged.attempts)
        : 0.0;
    cell.avgAttemptSeconds = merged.avgAttemptSeconds();
    return cell;
}

} // namespace

base::Expected<MatrixResult>
runMatrix(const MatrixSpec &spec)
{
    if (spec.hosts.empty() || spec.defenses.empty()
        || spec.attacks.empty() || spec.trials == 0)
        return base::ErrorCode::InvalidArgument;
    for (const std::string &attack_name : spec.attacks) {
        if (attack_name != "pairwise" && attack_name != "combined") {
            base::warn("matrix: unknown attack '%s'",
                       attack_name.c_str());
            return base::ErrorCode::InvalidArgument;
        }
    }

    MatrixResult result;
    for (const sys::SystemConfig &host_cfg : spec.hosts) {
        for (const std::string &defense_spec : spec.defenses) {
            for (const std::string &attack_name : spec.attacks) {
                auto cell = runCell(spec, host_cfg, defense_spec,
                                    attack_name);
                if (!cell)
                    return cell.error();
                result.cells.push_back(std::move(*cell));
            }
        }
    }
    return result;
}

} // namespace hh::mitigate
