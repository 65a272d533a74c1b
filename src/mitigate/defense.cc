#include "defense.h"

#include <algorithm>

#include "base/log.h"
#include "dram/ecc.h"
#include "dram/trr.h"

namespace hh::mitigate {

namespace {

/**
 * Host-side page budget the kernel-ish partition must hold: the boot
 * noise population, double the churn working set, and 48 order-9
 * blocks of headroom (createVm can hold back up to 47 movable
 * page-cache blocks, and the EPT/IOPT sprays draw order-0 pages), all
 * with a 25% slack so bootHost() never lands on an OOM fatal.
 */
uint64_t
noiseReservePages(const sys::SystemConfig &cfg)
{
    const sys::NoiseConfig &noise = cfg.noise;
    return (noise.kernelResidentPages + noise.unmovableFreePages
            + noise.pageCachePages + noise.churnPagesPerTick * 2
            + 48 * kPagesPerHugePage)
        * 5 / 4;
}

/** Siloz's EPT/IOPT domain size. */
constexpr uint64_t kSilozEptDomainBytes = 32_MiB;
/** Siloz's guard rows per domain boundary. */
constexpr unsigned kSilozGuardRows = 2;

/**
 * TrrEccSweep's slowdown: refresh-management cost grows with the
 * sampler depth; ECC adds a flat check-bit penalty. Estimates, not
 * measurements: the cell report carries them as the defense's cost
 * axis. Summed in this order, the double is the one every pinned
 * fingerprint holds.
 */
constexpr double kTrrEccSlowdown = 1.0
    + 0.005 * static_cast<double>(dram::kTrrTrackerCapacity) + 0.02;

} // namespace

void
Defense::saveState(base::ArchiveWriter &w) const
{
    w.u64(ovh.reservedBytes);
    w.f64(ovh.slowdownFactor);
    // The slot of the retired NACK counter, which nothing wrote,
    // written as 0 for the same reason as Siloz's retired knobs.
    w.u64(0);
}

// --- SilozDomains ---------------------------------------------------

void
SilozDomains::applyHostConfig(sys::SystemConfig &cfg) const
{
    // A guard must cover whole DRAM rows: any PFN-adjacent spill-over
    // from hammering sits within kSilozGuardRows row stripes of the
    // aggressor, so that many stripes of never-allocated frames make
    // cross-domain disturbance physically impossible.
    const uint64_t guard = static_cast<uint64_t>(kSilozGuardRows)
        * (cfg.dram.mapping.rowStripeBytes() / kPageSize);
    const uint64_t ept_pages =
        std::max<uint64_t>(kSilozEptDomainBytes / kPageSize, guard + 1);

    mm::DomainLayout layout;
    layout.domains.push_back({ept_pages, mm::DomainClass::Ept, guard});
    layout.domains.push_back(
        {noiseReservePages(cfg), mm::DomainClass::Kernel, guard});
    // The guest domain is last: it has no right-hand neighbour to
    // guard against.
    layout.domains.push_back({0, mm::DomainClass::Guest, 0});
    cfg.domains = layout;
}

base::Status
SilozDomains::configure(sys::HostSystem &host)
{
    if (host.buddy().domainCount() != 3) {
        base::warn("siloz: host has %zu domains, expected 3",
                   host.buddy().domainCount());
        return base::ErrorCode::InvalidArgument;
    }
    ovh.reservedBytes = host.buddy().guardPageCount() * kPageSize;
    return base::Status::success();
}

void
SilozDomains::saveState(base::ArchiveWriter &w) const
{
    Defense::saveState(w);
    // The slots of the four retired Siloz knobs, written at their only
    // values: the host-domain size (0, sized from the noise config),
    // the EPT domain size, the guest-domain count and the guard rows.
    // Range records and E11's golden matrix pin fingerprints taken
    // with them.
    w.u64(0);
    w.u64(kSilozEptDomainBytes);
    w.u32(1);
    w.u32(kSilozGuardRows);
}

// --- VirtioQuarantine -----------------------------------------------

void
VirtioQuarantine::applyVmConfig(vm::VmConfig &cfg) const
{
    cfg.quarantine.enabled = true;
}

void
VirtioQuarantine::saveState(base::ArchiveWriter &w) const
{
    Defense::saveState(w);
    // The slots of the retired tolerance and grace-window knobs,
    // written at their only value for the same reason as Siloz's.
    w.u64(0);
    w.u64(0);
    w.u64(0);
}

// --- TrrEccSweep ----------------------------------------------------

void
TrrEccSweep::applyHostConfig(sys::SystemConfig &cfg) const
{
    cfg.dram.trr.enabled = true;
    cfg.dram.ecc.enabled = true;
}

base::Status
TrrEccSweep::configure(sys::HostSystem &host)
{
    (void)host;
    ovh.slowdownFactor = kTrrEccSlowdown;
    return base::Status::success();
}

void
TrrEccSweep::saveState(base::ArchiveWriter &w) const
{
    Defense::saveState(w);
    // The slots of the five retired TRR/ECC knobs, written at their
    // only values for the same reason as Siloz's: TRR on, its tracker
    // capacity, probabilistic overflow, ECC on and its correction
    // strength.
    w.boolean(true);
    w.u32(dram::kTrrTrackerCapacity);
    w.boolean(true);
    w.boolean(true);
    w.u32(dram::kEccCorrectBits);
}

// --- CattPartition --------------------------------------------------

void
CattPartition::applyHostConfig(sys::SystemConfig &cfg) const
{
    const uint64_t total_pages = cfg.dram.totalBytes / kPageSize;
    mm::DomainLayout layout;
    if (!doubleOwnershipHole) {
        // Authentic CATT: a kernel partition sized for the host's own
        // footprint plus page-table headroom, the rest user-side. No
        // guard rows -- CATT isolates by allocation policy alone.
        const uint64_t kernel_pages =
            noiseReservePages(cfg) + total_pages / 64;
        layout.domains.push_back(
            {kernel_pages, mm::DomainClass::Kernel, 0});
        layout.domains.push_back({0, mm::DomainClass::User, 0});
    } else {
        // CATTmew: DMA-able guest memory is double-owned, so the
        // guest's pinned virtio-mem blocks draw from the kernel-side
        // pool once the user partition fills. Layout the user
        // partition first (guest memory prefers it) and size it for
        // the guest's ordinary boot RAM only -- one sixteenth of the
        // host, the provisioning ratio throughout the evaluation --
        // so the DMA-pinned plugged region, the memory CATTmew
        // identifies as double-owned, straddles into the kernel
        // partition, where released blocks land back on the same
        // free lists the EPT spray allocates from.
        const uint64_t user_pages = total_pages / 16;
        layout.domains.push_back(
            {user_pages, mm::DomainClass::User, 0});
        layout.domains.push_back({0, mm::DomainClass::KernelDma, 0});
    }
    cfg.domains = layout;
}

void
CattPartition::saveState(base::ArchiveWriter &w) const
{
    Defense::saveState(w);
    // The slot of the retired kernel-partition size, written at its
    // only value (0, sized from the layout) for the same reason as
    // Siloz's.
    w.u64(0);
    w.boolean(doubleOwnershipHole);
}

// --- DefenseSet -----------------------------------------------------

std::string
DefenseSet::label() const
{
    if (stack.empty())
        return "none";
    std::string joined;
    for (const auto &defense : stack) {
        if (!joined.empty())
            joined += "+";
        joined += defense->name();
    }
    return joined;
}

void
DefenseSet::applyHostConfig(sys::SystemConfig &cfg) const
{
    for (const auto &defense : stack)
        defense->applyHostConfig(cfg);
}

void
DefenseSet::applyVmConfig(vm::VmConfig &cfg) const
{
    for (const auto &defense : stack)
        defense->applyVmConfig(cfg);
}

base::Status
DefenseSet::configure(sys::HostSystem &host)
{
    for (const auto &defense : stack) {
        if (const base::Status configured = defense->configure(host);
            !configured.ok())
            return configured;
    }
    return base::Status::success();
}

DefenseOverhead
DefenseSet::overhead() const
{
    DefenseOverhead total;
    for (const auto &defense : stack) {
        const DefenseOverhead &one = defense->overhead();
        total.reservedBytes += one.reservedBytes;
        total.slowdownFactor *= one.slowdownFactor;
    }
    return total;
}

void
DefenseSet::saveState(base::ArchiveWriter &w) const
{
    w.u64(stack.size());
    for (const auto &defense : stack) {
        w.str(defense->name());
        defense->saveState(w);
    }
}

// --- factory --------------------------------------------------------

std::unique_ptr<Defense>
makeDefense(const std::string &name)
{
    if (name == "siloz")
        return std::make_unique<SilozDomains>();
    if (name == "quarantine")
        return std::make_unique<VirtioQuarantine>();
    if (name == "trr-ecc")
        return std::make_unique<TrrEccSweep>();
    if (name == "catt")
        return std::make_unique<CattPartition>();
    if (name == "catt-hole") {
        auto catt = std::make_unique<CattPartition>();
        catt->doubleOwnershipHole = true;
        return catt;
    }
    return nullptr;
}

base::Expected<DefenseSet>
makeDefenseSet(const std::string &spec)
{
    DefenseSet set;
    if (spec.empty() || spec == "none")
        return set;
    size_t begin = 0;
    while (begin <= spec.size()) {
        const size_t plus = spec.find('+', begin);
        const std::string part = spec.substr(
            begin, plus == std::string::npos ? std::string::npos
                                             : plus - begin);
        std::unique_ptr<Defense> defense = makeDefense(part);
        if (defense == nullptr) {
            base::warn("unknown defense '%s' in spec '%s'",
                       part.c_str(), spec.c_str());
            return base::ErrorCode::InvalidArgument;
        }
        set.add(std::move(defense));
        if (plus == std::string::npos)
            break;
        begin = plus + 1;
    }
    return set;
}

} // namespace hh::mitigate
