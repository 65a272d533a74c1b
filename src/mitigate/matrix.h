/**
 * @file
 * The mitigation-evaluation matrix: attacks x defenses x host
 * configurations, each cell one deterministic Monte-Carlo campaign.
 *
 * A cell applies a DefenseSet's config transforms, constructs the
 * defended host, profiles once, and runs the campaign through the
 * trial engine (`runTrialRange` + `aggregateOutcomes`), so every cell
 * inherits the engine's identity guarantee: the matrix is
 * bitwise-identical at any thread count, and
 * MatrixResult::fingerprint() collapses that into one comparable
 * word.
 */

#ifndef HYPERHAMMER_MITIGATE_MATRIX_H
#define HYPERHAMMER_MITIGATE_MATRIX_H

#include <cstdint>
#include <string>
#include <vector>

#include "attack/orchestrator.h"
#include "mitigate/defense.h"
#include "sys/host_system.h"

namespace hh::mitigate {

/** What to sweep. */
struct MatrixSpec
{
    /** Host configurations (cfg.name labels the matrix axis). */
    std::vector<sys::SystemConfig> hosts;
    /** Base attacker-VM provisioning (defenses may rewrite a copy). */
    vm::VmConfig vm;
    /** Base attack tunables (the attack axis rewrites a copy). */
    attack::AttackConfig attack;
    /** Defense axis: "+"-joined makeDefenseSet() specs. */
    std::vector<std::string> defenses{"none"};
    /** Attack axis: "pairwise" and/or "combined" (TRRespass-style). */
    std::vector<std::string> attacks{"pairwise"};
    /** Trials per cell (the campaign's attempt budget). */
    uint64_t trials = 16;
    /** Worker threads per campaign (identity holds for any value). */
    unsigned threads = 1;
};

/** One cell's outcome. */
struct MatrixCell
{
    std::string host;
    std::string defense;
    std::string attackName;
    /** Exploitable+releasable bits the defended profile found. */
    uint64_t profiledBits = 0;
    /** Campaign verdict: did any trial escalate? */
    bool success = false;
    /** Trials the campaign consumed (stops at the first success). */
    unsigned attempts = 0;
    /** Empirical per-attempt success probability (success/attempts). */
    double successRate = 0.0;
    /**
     * Graded progress signals, summed over the campaign's attempts.
     * Full escalation is rare at bench scale (the analysis bound is
     * ~1e-3 per attempt), so these are what the property tests
     * compare: a defense that works drives them to zero, and the
     * CATTmew hole demonstrably brings them back.
     */
    /** Sub-blocks Page Steering released back to the host. */
    uint64_t releasedSubBlocks = 0;
    /** Guest pages whose mapping a hammered flip visibly changed. */
    uint64_t flippedMappings = 0;
    /** Changed pages that scanned as EPT-entry-shaped (candidates). */
    uint64_t epteCandidates = 0;
    /** Mean virtual seconds per attempt. */
    double avgAttemptSeconds = 0.0;
    DefenseOverhead overhead;
    uint64_t campaignFingerprint = 0;
};

/** The full sweep, cells in (host, defense, attack) loop order. */
struct MatrixResult
{
    std::vector<MatrixCell> cells;

    /** One word over every cell's payload (identity comparisons). */
    uint64_t fingerprint() const;

    /** The cell for a label triple; null when absent. */
    const MatrixCell *find(const std::string &host,
                           const std::string &defense,
                           const std::string &attack_name) const;
};

/**
 * Run the sweep. Fails on an unknown defense or attack name, or when
 * a defense rejects the constructed host; individual campaigns that
 * find no exploitable bits still produce (all-failure) cells.
 */
[[nodiscard]] base::Expected<MatrixResult>
runMatrix(const MatrixSpec &spec);

} // namespace hh::mitigate

#endif // HYPERHAMMER_MITIGATE_MATRIX_H
