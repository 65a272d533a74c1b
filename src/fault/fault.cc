#include "fault/fault.h"

#include "base/log.h"

namespace hh::fault {

namespace {

constexpr const char *kSiteNames[] = {
#define HH_FAULT_SITE(ident, name) name,
#include "fault/fault_sites.def"
#undef HH_FAULT_SITE
};

static_assert(sizeof(kSiteNames) / sizeof(kSiteNames[0]) == kFaultSiteCount,
              "fault_sites.def and FaultSite enum out of sync");

/** The fault kind a randomized soak plan schedules at each site. */
constexpr FaultKind
naturalKind(FaultSite site)
{
    switch (site) {
    case FaultSite::DramRead:
        return FaultKind::ReadCorruption;
    case FaultSite::DramRefresh:
        return FaultKind::RefreshJitter;
    case FaultSite::DramTrr:
        return FaultKind::SpuriousTrr;
    case FaultSite::DramEcc:
        return FaultKind::EccMiscorrect;
    case FaultSite::MmAlloc:
        return FaultKind::AllocFail;
    case FaultSite::KsmScan:
        return FaultKind::ScanRace;
    case FaultSite::VirtioUnplug:
    case FaultSite::BalloonInflate:
        return FaultKind::DelayedReclaim;
    case FaultSite::ExploitHammer:
        return FaultKind::LostFlip;
    case FaultSite::SteerRelease:
        return FaultKind::SteerMiss;
    // Retired sites keep their kinds: each plan entry's kind byte is
    // part of the host config fingerprint.
    case FaultSite::DispatchSpawn:
        return FaultKind::SpawnFail;
    case FaultSite::DispatchHeartbeat:
        return FaultKind::HeartbeatLoss;
    case FaultSite::DispatchArtifact:
        return FaultKind::TornArtifact;
    case FaultSite::DispatchMerge:
        return FaultKind::SpuriousBusy;
    case FaultSite::kCount:
        break;
    }
    return FaultKind::ReadCorruption;
}

} // namespace

const char *
siteName(FaultSite site)
{
    const auto index = static_cast<size_t>(site);
    HH_ASSERT(index < kFaultSiteCount);
    return kSiteNames[index];
}

const char *
kindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::RefreshJitter:
        return "refresh-jitter";
    case FaultKind::SpuriousTrr:
        return "spurious-trr";
    case FaultKind::EccMiscorrect:
        return "ecc-miscorrect";
    case FaultKind::ReadCorruption:
        return "read-corruption";
    case FaultKind::AllocFail:
        return "alloc-fail";
    case FaultKind::DelayedReclaim:
        return "delayed-reclaim";
    case FaultKind::ScanRace:
        return "scan-race";
    case FaultKind::LostFlip:
        return "lost-flip";
    case FaultKind::SteerMiss:
        return "steer-miss";
    case FaultKind::SpawnFail:
        return "spawn-fail";
    case FaultKind::HeartbeatLoss:
        return "heartbeat-loss";
    case FaultKind::TornArtifact:
        return "torn-artifact";
    case FaultKind::SpuriousBusy:
        return "spurious-busy";
    }
    return "unknown";
}

FaultPlan &
FaultPlan::add(const FaultEntry &entry)
{
    HH_ASSERT(entry.site != FaultSite::kCount);
    HH_ASSERT(entry.every >= 1);
    entries.push_back(entry);
    return *this;
}

FaultPlan
FaultPlan::randomized(uint64_t plan_seed, double intensity)
{
    HH_ASSERT(intensity > 0.0 && intensity <= 1.0);
    FaultPlan plan;
    plan.seed = plan_seed;
    base::SeedSequence seq(plan_seed);
    for (size_t i = 0; i < kFaultSiteCount; ++i) {
        const auto site = static_cast<FaultSite>(i);
        base::Rng rng = seq.stream(i);
        FaultEntry entry;
        entry.site = site;
        entry.kind = naturalKind(site);
        entry.firstHit = rng.below(16);
        entry.count = 0; // unlimited; the gate bounds the rate
        entry.every = rng.between(1, 8);
        // Keep the rarely-consulted control-plane sites likelier to
        // fire than the per-read/per-scan hot sites, which see orders
        // of magnitude more occurrences.
        const bool hot = site == FaultSite::DramRead ||
                         site == FaultSite::KsmScan ||
                         site == FaultSite::DramEcc;
        // The retired dispatch sites keep the dense gate the sweep
        // supervisor's few consults per sweep needed. Nothing consults
        // them any more, but every entry (site, kind, window, gate) is
        // part of the plan, hence of HostSystem::configFingerprint():
        // dropping the gate would change the fingerprint of every
        // fault-planned campaign.
        const bool dispatch = site == FaultSite::DispatchSpawn ||
                              site == FaultSite::DispatchHeartbeat ||
                              site == FaultSite::DispatchArtifact ||
                              site == FaultSite::DispatchMerge;
        entry.probability =
            (hot ? 0.001 : dispatch ? 0.30 : 0.05) * intensity;
        if (dispatch) {
            entry.firstHit = rng.below(4);
            entry.every = 1;
        }
        entry.param = rng.below(64);
        // mm.alloc_pages fires on every use class in soak mode.
        if (site == FaultSite::MmAlloc)
            entry.param = 0;
        plan.entries.push_back(entry);
    }
    return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t root_seed)
    : schedule(std::move(plan))
{
    const base::SeedSequence seq(root_seed);
    for (size_t i = 0; i < kFaultSiteCount; ++i) {
        sites[i].rng = seq.stream(i);
        sites[i].entryFired.assign(schedule.entries.size(), 0);
    }
    for (size_t e = 0; e < schedule.entries.size(); ++e) {
        const auto &entry = schedule.entries[e];
        HH_ASSERT(entry.site != FaultSite::kCount);
        HH_ASSERT(entry.every >= 1);
        bySite[static_cast<size_t>(entry.site)].push_back(
            static_cast<uint32_t>(e));
    }
}

const FaultEntry *
FaultInjector::consult(FaultSite site)
{
    const auto index = static_cast<size_t>(site);
    HH_ASSERT(index < kFaultSiteCount);
    SiteState &state = sites[index];
    const uint64_t occurrence = state.occurrences++;

    const FaultEntry *firing = nullptr;
    for (const uint32_t e : bySite[index]) {
        const FaultEntry &entry = schedule.entries[e];
        if (occurrence < entry.firstHit)
            continue;
        if ((occurrence - entry.firstHit) % entry.every != 0)
            continue;
        if (entry.count != 0 && state.entryFired[e] >= entry.count)
            continue;
        // The gate draw happens for every eligible occurrence, fired or
        // not, so the stream position stays a pure function of the
        // occurrence index even across count-exhausted entries.
        if (entry.probability < 1.0 && !state.rng.chance(entry.probability))
            continue;
        ++state.entryFired[e];
        firing = &entry;
        break;
    }
    if (firing != nullptr)
        ++state.fired;
    return firing;
}

uint64_t
FaultInjector::draw(FaultSite site)
{
    const auto index = static_cast<size_t>(site);
    HH_ASSERT(index < kFaultSiteCount);
    return sites[index].rng();
}

uint64_t
FaultInjector::occurrences(FaultSite site) const
{
    return sites[static_cast<size_t>(site)].occurrences;
}

uint64_t
FaultInjector::fired(FaultSite site) const
{
    return sites[static_cast<size_t>(site)].fired;
}

uint64_t
FaultInjector::totalFired() const
{
    uint64_t total = 0;
    for (const SiteState &state : sites)
        total += state.fired;
    return total;
}

void
FaultInjector::saveState(base::ArchiveWriter &w) const
{
    w.u64(sites.size());
    for (const SiteState &state : sites) {
        w.u64(state.occurrences);
        w.u64(state.fired);
        w.rngState(state.rng.saveState());
        w.u64vec(state.entryFired);
    }
}

} // namespace hh::fault
