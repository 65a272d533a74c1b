/**
 * @file
 * Deterministic, seed-driven fault injection (DESIGN.md section 3.3).
 *
 * A FaultPlan is a schedule of (site, trigger, kind, param) entries.
 * Components hold a raw FaultInjector pointer (null when no plan is
 * installed) and consult it at registered injection points via
 * HH_FAULT_POINT; with a null injector the whole mechanism costs one
 * branch on a null pointer, so the fault-free fast path is bitwise
 * identical to a build without the framework.
 *
 * Determinism: each site owns an occurrence counter and an Rng derived
 * from base::SeedSequence(root)(site index), so whether a given consult
 * fires is a pure function of (plan, root seed, site, occurrence
 * index) -- independent of wall time, thread count and sibling sites.
 * Per-trial host clones (orchestrator runTrial) construct their own
 * injector from their own config seed, which preserves the section 3.2
 * bitwise-determinism contract at any thread count.
 */

#ifndef HYPERHAMMER_FAULT_FAULT_H
#define HYPERHAMMER_FAULT_FAULT_H

#include <array>
#include <cstdint>
#include <vector>

#include "base/archive.h"
#include "base/rng.h"
#include "base/status.h"

namespace hh::fault {

/** What an injection point should do when its entry fires. */
enum class FaultKind : uint8_t
{
    RefreshJitter,  ///< dram: an early refresh truncates the hammer burst
    SpuriousTrr,    ///< dram: TRR samples an aggressor it normally misses
    EccMiscorrect,  ///< dram: ECC mis-corrects (inverts flip visibility)
    ReadCorruption, ///< dram: one read returns a transiently wrong word
    AllocFail,      ///< mm: allocPages reports NoMemory
    DelayedReclaim, ///< virtio: unplug/inflate answers Busy this round
    ScanRace,       ///< sys: a guest write races KSM, page skipped
    LostFlip,       ///< attack: a hammer pass fails to retrigger a bit
    SteerMiss,      ///< attack: a release lands on the wrong sub-block
    // Retired with the sweep dispatch supervisor: nothing injects
    // them, but FaultPlan::randomized still writes each retired site's
    // kind byte into every plan, and with it the host config
    // fingerprint, so they keep their values.
    SpawnFail,      ///< retired dispatch: a shard worker launch fails
    HeartbeatLoss,  ///< retired dispatch: a worker heartbeat is lost
    TornArtifact,   ///< retired dispatch: a shard artifact is torn
    SpuriousBusy,   ///< retired dispatch: a merge answers Busy
};

/** Registered injection points (src/fault/fault_sites.def). */
enum class FaultSite : uint16_t
{
#define HH_FAULT_SITE(ident, name) ident,
#include "fault/fault_sites.def"
#undef HH_FAULT_SITE
    kCount,
};

constexpr size_t kFaultSiteCount = static_cast<size_t>(FaultSite::kCount);

/** The registered "layer.name" string of a site. */
const char *siteName(FaultSite site);

/** Human-readable name of a fault kind. */
const char *kindName(FaultKind kind);

/**
 * One scheduled fault. The trigger is an occurrence window over the
 * site's consult counter: the entry is eligible at occurrence o when
 * o >= firstHit, (o - firstHit) % every == 0 and fewer than count
 * firings have happened; an eligible entry then passes an optional
 * Bernoulli gate drawn from the site's deterministic stream.
 */
struct FaultEntry
{
    FaultSite site = FaultSite::kCount;
    FaultKind kind = FaultKind::ReadCorruption;
    /** First occurrence index (0-based) at which the entry can fire. */
    uint64_t firstHit = 0;
    /** Maximum number of firings (0 = unlimited). */
    uint64_t count = 1;
    /** Fire every Nth eligible occurrence (>= 1). */
    uint64_t every = 1;
    /** Bernoulli gate on each eligible occurrence (1.0 = always). */
    double probability = 1.0;
    /** Kind-specific parameter (bit index, PageUse filter, percent). */
    uint64_t param = 0;
};

/** A full schedule of faults, installed host-wide via SystemConfig. */
struct FaultPlan
{
    /**
     * Root of the plan's randomness (Bernoulli gates, param draws).
     * Mixed with the owning host's seed, so per-trial host clones get
     * independent-but-deterministic fault streams.
     */
    uint64_t seed = 1;
    std::vector<FaultEntry> entries;

    /** True when no faults are scheduled (no injector is built). */
    bool empty() const { return entries.empty(); }

    /** Schedule @p entry; returns *this for chaining. */
    FaultPlan &add(const FaultEntry &entry);

    /**
     * A soak-test plan: every site gets a probabilistic entry of its
     * natural kind, with windows and gates drawn from @p plan_seed.
     * @p intensity in (0, 1] scales every firing probability.
     */
    static FaultPlan randomized(uint64_t plan_seed, double intensity);
};

/**
 * The runtime consulted at each HH_FAULT_POINT. One instance per
 * HostSystem; per-site occurrence counters and Rng streams make every
 * decision a pure function of (plan, root seed, site, occurrence).
 */
class FaultInjector
{
  public:
    /**
     * @param plan       the schedule (copied)
     * @param root_seed  typically mix64(host seed, salt); separates
     *                   the fault streams of cloned trial hosts
     */
    FaultInjector(FaultPlan plan, uint64_t root_seed);

    /**
     * Record one occurrence of @p site and return the entry that fires
     * at it, or nullptr. At most one entry fires per occurrence (first
     * eligible in plan order wins).
     */
    const FaultEntry *consult(FaultSite site);

    /** Deterministic per-site draw for kind-specific randomization. */
    uint64_t draw(FaultSite site);

    /** Occurrences consulted at @p site so far. */
    uint64_t occurrences(FaultSite site) const;

    /** Faults fired at @p site so far. */
    uint64_t fired(FaultSite site) const;

    /** Faults fired across all sites. */
    uint64_t totalFired() const;

    const FaultPlan &plan() const { return schedule; }

    /**
     * Serialize the injector position: per-site occurrence/fired
     * counters, per-entry firing counts and the site RNG cursors. The
     * plan itself is part of the host configuration and travels via
     * the config fingerprint.
     */
    void saveState(base::ArchiveWriter &w) const;

  private:
    struct SiteState
    {
        uint64_t occurrences = 0;
        uint64_t fired = 0;
        base::Rng rng{0};
        /** Firings per plan entry (indexes schedule.entries). */
        std::vector<uint64_t> entryFired;
    };

    // hh-lint: allow(snapshot-field-coverage) -- the plan is host configuration and travels via the host's configFingerprint()
    FaultPlan schedule;
    std::array<SiteState, kFaultSiteCount> sites;
    /** Entry indices per site, in plan order. */
    // hh-lint: allow(snapshot-field-coverage) -- derived index, rebuilt from the plan at construction
    std::array<std::vector<uint32_t>, kFaultSiteCount> bySite;
};

} // namespace hh::fault

/**
 * The injection-point macro. @p injector is a `fault::FaultInjector *`
 * (null when no plan is installed -- the zero-overhead case), @p site
 * a fault::FaultSite enumerator. Evaluates to the firing
 * `const fault::FaultEntry *` or nullptr.
 */
#define HH_FAULT_POINT(injector, site) \
    ((injector) != nullptr ? (injector)->consult(site) : nullptr)

#endif // HYPERHAMMER_FAULT_FAULT_H
