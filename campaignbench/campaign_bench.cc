/**
 * @file
 * Campaign benchmark: whole HyperHammer campaigns driven through the
 * public API, reported as one JSON line on stdout.
 *
 * Untraced runs (--trace 0) time what a campaign's user waits for:
 * building the host world and the HyperHammerAttack, profilePhase(),
 * the trial loop and aggregateOutcomes(). The trial loop is a closed
 * loop with one caller: each runTrialRange() call runs one trial per
 * worker thread, so on one thread every call is one trial.
 *
 * Traced runs (--trace 1) replay the same trials phase by phase from
 * public calls only -- HostSystem forking and VM spawn, PageSteering,
 * Exploiter, MemoryProfiler -- and time every call into a layer from
 * this file. The replay rebuilds the orchestrator's private steps
 * (planting the secret, relocating the host-physical profile) and must
 * reproduce every engine outcome field for field.
 *
 * Both modes check each trial's AttemptOutcome against the reference
 * table in reference/<world>.txt, which --pin writes from the engine.
 * Host time is taken only through hh::bench::WallTimer.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"

using namespace hh;
using hh::bench::WallTimer;

namespace {

/**
 * World builds per run, spread over the segments; setup_s is their
 * median.
 */
constexpr unsigned kSetupBuilds = 120;

/** One campaign world: host, attacker VM and attack tunables. */
struct World
{
    std::string name;
    sys::SystemConfig host;
    vm::VmConfig vm;
    attack::AttackConfig attack;
    /** Trials [0, pinnedTrials) are pinned in the reference table. */
    uint64_t pinnedTrials = 0;
};

/**
 * The calibrated 1 GiB world shared with the mitigation matrix: S1
 * with x8 weak-cell density, 64 MiB boot + 640 MiB plugged, 2500
 * exhaust mappings. Seed 2 gives a nonzero undefended funnel, so
 * hammer, detect and escalate do real work.
 */
World
calibratedWorld()
{
    World w;
    w.name = "calibrated-1g-seed2";
    w.host = sys::SystemConfig::s1(2);
    w.host.withMemory(1_GiB);
    w.host.dram.fault.weakCellsPerRow *= 8;
    w.vm.bootMemBytes = 64_MiB;
    w.vm.virtioMemRegionSize = 1_GiB;
    w.vm.virtioMemPlugged = 640_MiB;
    w.attack.steering.exhaustMappings = 2'500;
    w.attack.profiler.stopAfterExploitable = 0;
    w.pinnedTrials = 1024;
    return w;
}

/**
 * Paper-shaped S1 at 2 GiB: boot 1/16, plugged 12/16, the paper's
 * 60k exhaust mappings scaled to host size, full profile.
 */
World
paperWorld()
{
    World w;
    w.name = "paper-2g-seed1";
    w.host = sys::SystemConfig::s1(1);
    w.host.withMemory(2_GiB);
    w.vm = bench::paperVmConfig(w.host);
    w.attack.steering.exhaustMappings = bench::scaledMappings(w.host);
    w.attack.profiler.stopAfterExploitable = 0;
    w.pinnedTrials = 64;
    return w;
}

struct Workload
{
    const char *name;
    World (*world)();
    unsigned threads;
    /**
     * Trials per second of --seconds: a campaign's size is fixed by
     * the workload and --seconds, never by how fast the code runs.
     */
    double trialsPerSecond;
    uint64_t minTrials;
    /**
     * Segments per run, each on a fresh world that is set up, profiled
     * and runs trials; profile_s is their median.
     */
    unsigned segments;
    /**
     * Every segment runs the whole campaign's trials again; otherwise
     * the segments share the trials out.
     */
    bool repeatCampaign;
    /** Fail unless the trials change pages (the funnel is not empty). */
    bool requireChangedPages;
};

const Workload kWorkloads[] = {
    {"trial-loop", calibratedWorld, 1, 9.0, 20, 6, false, true},
    {"profile-heavy", paperWorld, 1, 0.0, 8, 5, true, false},
    {"trial-loop-parallel", calibratedWorld, 2, 14.0, 40, 5, false, true},
};

// ------------------------------------------------------------------
// Outcome records and the reference table
// ------------------------------------------------------------------

std::vector<uint8_t>
encode(const attack::AttemptOutcome &outcome)
{
    base::ArchiveWriter w;
    attack::writeOutcome(w, outcome);
    return w.buffer();
}

/** Field-for-field equality in the canonical wire form. */
bool
sameOutcome(const attack::AttemptOutcome &a, const attack::AttemptOutcome &b)
{
    return encode(a) == encode(b);
}

/** Digest of in-order outcome records. */
uint64_t
recordsDigest(const std::vector<attack::AttemptOutcome> &outcomes)
{
    base::ArchiveWriter w;
    for (const attack::AttemptOutcome &outcome : outcomes)
        attack::writeOutcome(w, outcome);
    return w.fingerprint();
}

/** Digest of a host-physical profile (the reusable attack input). */
uint64_t
profileDigest(const std::vector<attack::HostVulnBit> &bits)
{
    base::ArchiveWriter w;
    w.u64(bits.size());
    for (const attack::HostVulnBit &bit : bits) {
        w.u64(bit.wordHpa.value());
        w.u32(bit.bitInWord);
        w.u8(static_cast<uint8_t>(bit.direction));
        w.boolean(bit.stable);
        w.u64(bit.aggressorHpas.size());
        for (HostPhysAddr hpa : bit.aggressorHpas)
            w.u64(hpa.value());
    }
    return w.fingerprint();
}

struct Reference
{
    uint64_t fingerprint = 0;
    uint64_t profileDigest = 0;
    uint64_t combinations = 0;
    uint64_t profiledBits = 0;
    base::SimTime profileVirt = 0;
    std::vector<attack::AttemptOutcome> trials;
};

std::string
referencePath(const std::string &dir, const World &world)
{
    return dir + "/" + world.name + ".txt";
}

bool
writeReference(const std::string &path, const World &world,
               const Reference &ref)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f,
                 "# Pinned engine outcomes of world %s, written by "
                 "campaign_bench --pin.\n"
                 "# profile: hostProfileDigest combinations bits "
                 "elapsed_ns\n"
                 "# trial success bitsTargeted releasedSubBlocks "
                 "demotions changedPages epteCandidates duration_ns "
                 "retries backoff_ns faultsFired\n",
                 world.name.c_str());
    std::fprintf(f, "fingerprint %016llx\n",
                 static_cast<unsigned long long>(ref.fingerprint));
    std::fprintf(f, "profile %016llx %llu %llu %llu\n",
                 static_cast<unsigned long long>(ref.profileDigest),
                 static_cast<unsigned long long>(ref.combinations),
                 static_cast<unsigned long long>(ref.profiledBits),
                 static_cast<unsigned long long>(ref.profileVirt));
    std::fprintf(f, "trials %zu\n", ref.trials.size());
    for (size_t i = 0; i < ref.trials.size(); ++i) {
        const attack::AttemptOutcome &o = ref.trials[i];
        std::fprintf(
            f, "%zu %d %u %llu %llu %llu %llu %llu %u %llu %llu\n", i,
            o.success ? 1 : 0, o.bitsTargeted,
            static_cast<unsigned long long>(o.releasedSubBlocks),
            static_cast<unsigned long long>(o.demotions),
            static_cast<unsigned long long>(o.changedPages),
            static_cast<unsigned long long>(o.epteCandidates),
            static_cast<unsigned long long>(o.duration), o.retries,
            static_cast<unsigned long long>(o.backoffTime),
            static_cast<unsigned long long>(o.faultsFired));
    }
    return std::fclose(f) == 0;
}

bool
readReference(const std::string &path, Reference &ref)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    uint64_t expected = 0;
    bool have_fp = false;
    bool have_profile = false;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        if (key == "fingerprint") {
            fields >> std::hex >> ref.fingerprint;
            have_fp = !fields.fail();
        } else if (key == "profile") {
            fields >> std::hex >> ref.profileDigest >> std::dec
                >> ref.combinations >> ref.profiledBits
                >> ref.profileVirt;
            have_profile = !fields.fail();
        } else if (key == "trials") {
            fields >> expected;
        } else {
            attack::AttemptOutcome o;
            int success = 0;
            fields >> success >> o.bitsTargeted >> o.releasedSubBlocks
                >> o.demotions >> o.changedPages >> o.epteCandidates
                >> o.duration >> o.retries >> o.backoffTime
                >> o.faultsFired;
            if (fields.fail()
                || std::strtoull(key.c_str(), nullptr, 10)
                    != ref.trials.size())
                return false;
            o.success = success != 0;
            ref.trials.push_back(o);
        }
    }
    return have_fp && have_profile && expected == ref.trials.size();
}

// ------------------------------------------------------------------
// Public-call replays of the orchestrator's private steps
// ------------------------------------------------------------------

struct Secret
{
    HostPhysAddr addr{0};
    uint64_t value = 0;
};

/** The hypervisor secret: one kernel page holding a seed magic. */
Secret
plantSecret(sys::HostSystem &host)
{
    auto frame = host.buddy().allocPages(0, mm::MigrateType::Unmovable,
                                         mm::PageUse::KernelData);
    if (!frame)
        base::fatal("cannot allocate the host secret page");
    Secret secret;
    secret.addr = HostPhysAddr(*frame * kPageSize + 0x5e8);
    secret.value = base::mix64(0x5ec7e7, host.config().seed) | 1;
    host.dram().write64(secret.addr, secret.value);
    return secret;
}

/** Host-physical records of the exploitable, releasable bits. */
std::vector<attack::HostVulnBit>
hostProfile(vm::VirtualMachine &machine, const attack::ProfileResult &result)
{
    std::vector<attack::HostVulnBit> bits;
    for (const attack::VulnerableBit &bit : result.bits) {
        if (!bit.exploitable || !bit.releasable)
            continue;
        auto word_hpa = machine.debugTranslate(bit.wordGpa);
        if (!word_hpa)
            continue;
        attack::HostVulnBit record;
        record.wordHpa = *word_hpa;
        record.bitInWord = bit.bitInWord;
        record.direction = bit.direction;
        record.stable = bit.stable;
        bool ok = true;
        for (GuestPhysAddr aggressor : bit.aggressors) {
            auto hpa = machine.debugTranslate(aggressor);
            if (!hpa) {
                ok = false;
                break;
            }
            record.aggressorHpas.push_back(*hpa);
        }
        if (ok)
            bits.push_back(std::move(record));
    }
    std::stable_sort(bits.begin(), bits.end(),
                     [](const attack::HostVulnBit &a,
                        const attack::HostVulnBit &b) {
                         return a.stable > b.stable;
                     });
    return bits;
}

/** Relocate the host-physical profile into @p machine's GPAs. */
std::vector<attack::VulnerableBit>
relocateTargets(vm::VirtualMachine &machine,
                const std::vector<attack::HostVulnBit> &bits,
                unsigned bits_per_attempt)
{
    std::unordered_map<uint64_t, GuestPhysAddr> host_to_guest;
    for (GuestPhysAddr hp : machine.hugePageGpas()) {
        auto hpa = machine.debugTranslate(hp);
        if (hpa)
            host_to_guest[hpa->hugePageBase().value()] = hp;
    }
    auto locate = [&](HostPhysAddr hpa) -> base::Expected<GuestPhysAddr> {
        const auto it = host_to_guest.find(hpa.hugePageBase().value());
        if (it == host_to_guest.end())
            return base::ErrorCode::NotFound;
        return it->second + hpa.hugePageOffset();
    };

    // One bit per 512 usable hugepages, minus one group of margin.
    const uint64_t groups =
        machine.memorySize() / kHugePageSize / kEntriesPerTable;
    const unsigned spray_cap = static_cast<unsigned>(
        std::max<uint64_t>(1, groups > 1 ? groups - 1 : 1));
    const unsigned batch = std::min(bits_per_attempt, spray_cap);

    std::vector<attack::VulnerableBit> targets;
    for (const attack::HostVulnBit &record : bits) {
        if (targets.size() >= batch)
            break;
        auto word_gpa = locate(record.wordHpa);
        if (!word_gpa)
            continue;
        const GuestPhysAddr victim_hp = word_gpa->hugePageBase();
        if (!machine.memDevice_().contains(victim_hp))
            continue;
        attack::VulnerableBit bit;
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

// ------------------------------------------------------------------
// Tracing: one span per call into a layer, counters around them
// ------------------------------------------------------------------

enum Phase : unsigned {
    kFork,
    kPlant,
    kSpawn,
    kRelocate,
    kExhaust,
    kRelease,
    kSpray,
    kMark,
    kHammer,
    kDetect,
    kEscalate,
    kVmTeardown,
    kHostTeardown,
    kPhaseCount
};

/** Metric stem (host time) and virtual-time metric of each phase. */
const char *const kPhaseNames[kPhaseCount][2] = {
    {"sys.fork", "virt.fork_s"},
    {"attack.plant", "virt.plant_s"},
    {"sys.spawn", "virt.spawn_s"},
    {"attack.relocate", "virt.relocate_s"},
    {"steering.exhaust", "virt.exhaust_s"},
    {"steering.release", "virt.release_s"},
    {"steering.spray", "virt.spray_s"},
    {"exploit.mark", "virt.mark_s"},
    {"exploit.hammer", "virt.hammer_s"},
    {"exploit.detect", "virt.detect_s"},
    {"exploit.escalate", "virt.escalate_s"},
    {"sys.vm_teardown", "virt.vm_teardown_s"},
    {"sys.host_teardown", "virt.host_teardown_s"},
};

/** Simulated counts, summed over traced trials, reported per trial. */
enum Count : unsigned {
    kBitsTargeted,
    kIovaMappings,
    kReleasedSubBlocks,
    kDemotions,
    kChangedPages,
    kEpteCandidates,
    kEscalations,
    kFlips,
    kTrrSuppressions,
    kEccCorrected,
    kOverlayPages,
    kNoiseBeforeExhaust,
    kNoiseAfterExhaust,
    kEptPages,
    kKvmDemotions,
    kIoptPages,
    kCountCount
};

const char *const kCountNames[kCountCount] = {
    "attack.bits_targeted",
    "steering.iova_mappings",
    "steering.released_subblocks",
    "steering.demotions",
    "exploit.changed_pages",
    "exploit.epte_candidates",
    "exploit.escalations",
    "dram.flips",
    "dram.trr_suppressions",
    "dram.ecc_corrected",
    "dram.overlay_pages",
    "mm.noise_pages_before_exhaust",
    "mm.noise_pages_after_exhaust",
    "kvm.ept_pages",
    "kvm.demotions",
    "iommu.iopt_pages",
};

/** Per-thread sums over traced trials; merged after the loop. */
struct Trace
{
    double hostSeconds[kPhaseCount] = {};
    base::SimTime virt[kPhaseCount] = {};
    uint64_t counts[kCountCount] = {};
    base::SimTime virtTrial = 0;
    /** Wall time of whole traced trials (spans plus the rest). */
    double trialSeconds = 0;
    uint64_t trials = 0;
    /** Table 2's N and R: released frames, and those now EPT pages. */
    uint64_t releasedFrames = 0;
    uint64_t releasedFramesReused = 0;

    void
    merge(const Trace &o)
    {
        for (unsigned p = 0; p < kPhaseCount; ++p) {
            hostSeconds[p] += o.hostSeconds[p];
            virt[p] += o.virt[p];
        }
        for (unsigned c = 0; c < kCountCount; ++c)
            counts[c] += o.counts[c];
        virtTrial += o.virtTrial;
        trialSeconds += o.trialSeconds;
        trials += o.trials;
        releasedFrames += o.releasedFrames;
        releasedFramesReused += o.releasedFramesReused;
    }
};

/** Times one call into a layer: host time and, given a clock, virtual time. */
class Span
{
  public:
    Span(Trace &trace, Phase phase, const base::SimClock *clock)
        : trace(trace), phase(phase), clock(clock),
          virtStart(clock != nullptr ? clock->now() : 0)
    {}

    ~Span()
    {
        trace.hostSeconds[phase] += timer.seconds();
        if (clock != nullptr)
            trace.virt[phase] += clock->now() - virtStart;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Trace &trace;
    Phase phase;
    const base::SimClock *clock;
    base::SimTime virtStart;
    WallTimer timer; // last member: starts after the virtual read
};

/** The attempt, as HyperHammerAttack runs it, one span per call. */
attack::AttemptOutcome
replayAttempt(const World &world, sys::HostSystem &host,
              vm::VirtualMachine &machine,
              const std::vector<attack::HostVulnBit> &bits,
              const Secret &secret, Trace &trace)
{
    base::SimClock &clock = host.clock();
    attack::AttemptOutcome outcome;
    std::vector<attack::VulnerableBit> targets;
    {
        Span span(trace, kRelocate, &clock);
        targets = relocateTargets(machine, bits,
                                  world.attack.bitsPerAttempt);
    }
    outcome.bitsTargeted = static_cast<unsigned>(targets.size());
    if (targets.empty())
        return outcome;

    attack::PageSteering steering(machine, clock, world.attack.steering);
    const uint64_t spray = world.attack.sprayBytes
        ? world.attack.sprayBytes
        : machine.memorySize();
    attack::SteeringResult steered;
    trace.counts[kNoiseBeforeExhaust] += host.noisePages();
    {
        Span span(trace, kExhaust, &clock);
        steered.iovaMappings = steering.exhaustNoisePages();
    }
    trace.counts[kNoiseAfterExhaust] += host.noisePages();
    if (machine.vfio() != nullptr)
        trace.counts[kIoptPages] += machine.vfio()->ioptPageCount();
    {
        Span span(trace, kRelease, &clock);
        steering.releaseVulnerable(targets, steered);
    }
    std::unordered_set<uint64_t> excluded;
    for (const GuestPhysAddr &hp : steered.releasedHugePages)
        excluded.insert(hp.value());
    {
        Span span(trace, kSpray, &clock);
        steered.demotions = steering.sprayEptes(spray, excluded);
    }
    outcome.releasedSubBlocks = steered.releasedSubBlocks;
    outcome.demotions = steered.demotions;
    trace.counts[kIovaMappings] += steered.iovaMappings;

    std::unordered_set<uint64_t> released;
    for (Pfn block : machine.memDevice_().stats().releasedBlockPfns) {
        for (uint64_t page = 0; page < kPagesPerHugePage; ++page)
            released.insert(block + page);
    }
    trace.releasedFrames += released.size();
    for (Pfn pfn : machine.mmu().eptPageFrames())
        trace.releasedFramesReused += released.count(pfn);

    attack::Exploiter exploiter(machine, clock, world.attack.exploit);
    {
        Span span(trace, kMark, &clock);
        exploiter.markPages(machine.hugePageGpas());
    }
    {
        Span span(trace, kHammer, &clock);
        exploiter.hammerTargets(targets);
    }
    std::vector<GuestPhysAddr> changed;
    {
        Span span(trace, kDetect, &clock);
        changed = exploiter.detectMappingChanges();
    }
    outcome.changedPages = changed.size();
    {
        Span span(trace, kEscalate, &clock);
        for (GuestPhysAddr page : changed) {
            if (!exploiter.looksLikeEptPage(page))
                continue;
            ++outcome.epteCandidates;
            auto escalation = exploiter.validateAndEscalate(page);
            if (!escalation)
                continue;
            ++trace.counts[kEscalations];
            auto value = exploiter.readHost(*escalation, secret.addr);
            if (value && *value == secret.value) {
                outcome.success = true;
                break;
            }
        }
    }
    return outcome;
}

/** One whole trial, as the engine's runTrial(), one span per call. */
attack::AttemptOutcome
replayTrial(const World &world, const sys::HostSystem &tmpl,
            const std::vector<attack::HostVulnBit> &bits, uint64_t trial,
            Trace &trace)
{
    WallTimer whole;
    sys::SystemConfig trial_cfg = world.host;
    trial_cfg.seed = base::SeedSequence(world.host.seed).seed(trial);

    std::unique_ptr<sys::HostSystem> host;
    {
        Span span(trace, kFork, nullptr);
        host = sys::HostSystem::forkTrial(tmpl, trial_cfg);
    }
    base::SimClock &clock = host->clock();
    trace.virt[kFork] += clock.now();
    dram::DramSystem &dram = host->dram();
    const uint64_t flips = dram.totalFlips();
    const uint64_t trr = dram.trrSuppressions();
    const uint64_t ecc = dram.eccCorrectedFlips();

    Secret secret;
    {
        Span span(trace, kPlant, &clock);
        secret = plantSecret(*host);
    }
    const base::SimTime start = clock.now();
    std::unique_ptr<vm::VirtualMachine> machine;
    {
        Span span(trace, kSpawn, &clock);
        machine = host->createVm(world.vm);
    }
    attack::AttemptOutcome outcome =
        replayAttempt(world, *host, *machine, bits, secret, trace);
    outcome.duration = clock.now() - start;

    trace.virtTrial += outcome.duration;
    uint64_t *counts = trace.counts;
    counts[kBitsTargeted] += outcome.bitsTargeted;
    counts[kReleasedSubBlocks] += outcome.releasedSubBlocks;
    counts[kDemotions] += outcome.demotions;
    counts[kChangedPages] += outcome.changedPages;
    counts[kEpteCandidates] += outcome.epteCandidates;
    counts[kFlips] += dram.totalFlips() - flips;
    counts[kTrrSuppressions] += dram.trrSuppressions() - trr;
    counts[kEccCorrected] += dram.eccCorrectedFlips() - ecc;
    counts[kOverlayPages] += dram.backend().touchedPages();
    counts[kEptPages] += machine->mmu().eptPageFrames().size();
    counts[kKvmDemotions] += machine->mmu().demotions();

    {
        Span span(trace, kVmTeardown, &clock);
        machine.reset();
    }
    {
        Span span(trace, kHostTeardown, nullptr);
        host.reset();
    }
    trace.trialSeconds += whole.seconds();
    ++trace.trials;
    return outcome;
}

// ------------------------------------------------------------------
// Result line
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    fail(const char *what)
    {
        std::fprintf(stderr, "campaign_bench: check failed: %s\n", what);
        correct = false;
    }

    void
    print() const
    {
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted);
        out += ", \"failed\": " + std::to_string(failed);
        out += ", \"metrics\": {";
        for (size_t i = 0; i < metrics.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof value, "%.12g",
                          std::isfinite(metrics[i].value)
                              ? metrics[i].value
                              : 0.0);
            out += (i ? ", \"" : "\"") + metrics[i].name
                + "\": {\"value\": " + value + ", \"unit\": \""
                + metrics[i].unit + "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
    }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n == 0 ? 0.0
        : n % 2 ? v[n / 2]
                : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** Checks shared by both modes: trial records against the reference. */
void
checkRecords(const Workload &wl, const Reference &ref,
             const std::vector<uint64_t> &indices,
             const std::vector<attack::AttemptOutcome> &records,
             RunResult &result)
{
    uint64_t changed = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        changed += records[i].changedPages;
        if (!sameOutcome(records[i], ref.trials[indices[i]]))
            ++result.failed;
    }
    if (result.failed > 0)
        result.fail("outcome records differ from the reference");
    if (wl.requireChangedPages && changed == 0)
        result.fail("no trial changed a page: the funnel is empty");
    std::printf("records of trials [%llu, %llu]: digest %016llx, %llu "
                "changed pages\n",
                static_cast<unsigned long long>(indices.front()),
                static_cast<unsigned long long>(indices.back()),
                static_cast<unsigned long long>(recordsDigest(records)),
                static_cast<unsigned long long>(changed));
}

// ------------------------------------------------------------------
// Untraced campaign: the end-to-end metrics
// ------------------------------------------------------------------

RunResult
runCampaign(const Workload &wl, const World &world, const Reference &ref,
            uint64_t first, uint64_t count)
{
    RunResult result;
    result.attempted = wl.repeatCampaign ? count * wl.segments : count;

    // Warm-up, untimed: the process's first world, profile and trial
    // pay for page faults and allocator growth that later ones reuse.
    {
        sys::HostSystem host(world.host);
        attack::HyperHammerAttack attack(host, world.vm,
                                         host.dram().mapping(), world.attack);
        attack.profilePhase();
        attack.runTrialRange(first, first + wl.threads, wl.threads, {});
    }

    // The run is cut into segments, each on a fresh world: set-up (the
    // host, and the attack, which plants the secret) repeated with the
    // last build kept, profilePhase(), then the segment's trials: its
    // share of the campaign, or the whole campaign again. Every kind of
    // sample is thus spread over the whole run, so a burst of host noise
    // cannot land on one metric alone. A trial's record depends only on
    // the world and its index, not on which identical world runs it.
    std::vector<double> setups;
    std::vector<double> profiles;
    std::vector<attack::AttemptOutcome> records;
    std::vector<uint64_t> indices;
    std::vector<double> latencies;
    uint64_t missing = 0;
    double loop_s = 0;
    size_t profiled_bits = 0;
    size_t usable_bits = 0;
    const uint64_t waves = count / wl.threads;
    for (unsigned seg = 0; seg < wl.segments; ++seg) {
        std::unique_ptr<sys::HostSystem> host;
        std::unique_ptr<attack::HyperHammerAttack> attack;
        for (unsigned k = 0; k < kSetupBuilds / wl.segments; ++k) {
            attack.reset();
            host.reset();
            WallTimer timer;
            host = std::make_unique<sys::HostSystem>(world.host);
            attack = std::make_unique<attack::HyperHammerAttack>(
                *host, world.vm, host->dram().mapping(), world.attack);
            setups.push_back(timer.seconds());
        }
        WallTimer profile_timer;
        const attack::ProfileResult profile = attack->profilePhase();
        profiles.push_back(profile_timer.seconds());
        profiled_bits = profile.bits.size();
        usable_bits = attack->hostProfile().size();
        if (attack->campaignFingerprint() != ref.fingerprint
            || profileDigest(attack->hostProfile()) != ref.profileDigest)
            result.failed = count;

        // Closed loop, one caller: each call runs one trial per thread.
        const uint64_t begin = wl.repeatCampaign
            ? 0
            : waves * seg / wl.segments * wl.threads;
        const uint64_t end = wl.repeatCampaign
            ? count
            : waves * (seg + 1) / wl.segments * wl.threads;
        WallTimer loop_timer;
        for (uint64_t done = begin; done < end; done += wl.threads) {
            const uint64_t n = wl.threads;
            WallTimer call;
            attack::TrialRangeResult range = attack->runTrialRange(
                first + done, first + done + n, wl.threads, {});
            latencies.push_back(call.seconds() * 1e3);
            // A range stops at its first success, as a shard does.
            for (uint64_t i = 0; i < n; ++i) {
                if (i < range.outcomes.size()) {
                    records.push_back(range.outcomes[i]);
                    indices.push_back(first + done + i);
                } else {
                    ++missing;
                }
                if (ref.trials[first + done + i].success)
                    break;
            }
        }
        loop_s += loop_timer.seconds();
    }
    if (result.failed > 0)
        result.fail("campaign fingerprint differs from the reference");
    const double setup_s = median(setups);
    const double profile_s = median(profiles);

    // One campaign's records: all of them, or one segment's.
    const size_t campaign_records = wl.repeatCampaign
        ? records.size() / wl.segments
        : records.size();
    WallTimer merge_timer;
    const attack::AttackResult merged =
        attack::HyperHammerAttack::aggregateOutcomes(
            {records.begin(), records.begin() + campaign_records});
    const double merge_s = merge_timer.seconds();

    if (result.failed == 0) {
        checkRecords(wl, ref, indices, records, result);
        result.failed += missing;
    }
    uint64_t expected_attempts = 0;
    for (size_t i = 0; i < campaign_records; ++i) {
        ++expected_attempts;
        if (ref.trials[indices[i]].success)
            break;
    }
    if (merged.attempts != expected_attempts)
        result.fail("aggregateOutcomes folded the wrong attempt count");

    const double trials = static_cast<double>(records.size());
    const size_t beyond_p90 = latencies.size()
        - static_cast<size_t>(std::ceil(0.9 * latencies.size()));
    // trial_ms.p50 is printed here but is no result metric: the host's
    // speed flips between two regimes, and a median of calls flips with
    // it. On one thread trials_per_s is the mean-latency figure.
    std::printf("%s: %llu trials on %u thread(s); profile %llu bits "
                "(%llu usable); trial_ms over %zu calls, %zu beyond "
                "p90; trial_ms.p50 %.3f ms\n",
                wl.name, static_cast<unsigned long long>(count),
                wl.threads,
                static_cast<unsigned long long>(profiled_bits),
                static_cast<unsigned long long>(usable_bits),
                latencies.size(), beyond_p90, percentile(latencies, 50));

    result.add("setup_s", setup_s, "s");
    result.add("profile_s", profile_s, "s");
    const double campaign_loop_s =
        wl.repeatCampaign ? loop_s / wl.segments : loop_s;
    result.add("campaign_s", setup_s + profile_s + campaign_loop_s + merge_s,
               "s");
    result.add("trials_per_s", trials / loop_s, "1/s");
    result.add("trial_ms.p90", percentile(latencies, 90), "ms");
    result.add("peak_rss_mb",
               static_cast<double>(bench::peakRssBytes()) / (1 << 20),
               "MB");
    return result;
}

// ------------------------------------------------------------------
// Traced replay: the per-layer metrics
// ------------------------------------------------------------------

RunResult
runTraced(const Workload &wl, const World &world, const Reference &ref,
          uint64_t first, uint64_t count)
{
    RunResult result;
    result.attempted = count;

    WallTimer build_timer;
    auto host = std::make_unique<sys::HostSystem>(world.host);
    plantSecret(*host); // the attack plants it before profiling
    const double build_s = build_timer.seconds();

    WallTimer spawn_timer;
    std::unique_ptr<vm::VirtualMachine> machine =
        host->createVm(world.vm);
    const double profile_spawn_s = spawn_timer.seconds();
    attack::MemoryProfiler profiler(*machine, host->clock(),
                                    host->dram().mapping(),
                                    world.attack.profiler);
    const std::vector<GuestPhysAddr> region =
        bench::profilableRegion(*machine);
    WallTimer profile_timer;
    const attack::ProfileResult profile = profiler.profile(region);
    const double profile_s = profile_timer.seconds();
    const std::vector<attack::HostVulnBit> bits =
        hostProfile(*machine, profile);
    machine.reset();
    host.reset();

    if (profileDigest(bits) != ref.profileDigest
        || profile.combinations != ref.combinations
        || profile.bits.size() != ref.profiledBits
        || profile.elapsed != ref.profileVirt) {
        result.fail("replayed profile differs from the reference");
        result.failed = count;
        return result;
    }

    WallTimer loop_timer;
    WallTimer template_timer;
    const std::unique_ptr<const sys::HostSystem> tmpl =
        sys::HostSystem::makeForkTemplate(world.host);
    const double template_s = template_timer.seconds();

    // The untraced loop's schedule: waves of one trial per thread.
    std::vector<attack::AttemptOutcome> records(count);
    std::vector<Trace> traces(wl.threads);
    for (uint64_t done = 0; done < count; done += wl.threads) {
        auto trial = [&](unsigned t) {
            records[done + t] = replayTrial(world, *tmpl, bits,
                                            first + done + t, traces[t]);
        };
        if (wl.threads == 1) {
            trial(0);
            continue;
        }
        std::vector<std::thread> wave;
        for (unsigned t = 0; t < wl.threads; ++t)
            wave.emplace_back(trial, t);
        for (std::thread &thread : wave)
            thread.join();
    }
    const double loop_s = loop_timer.seconds();

    Trace trace;
    for (const Trace &t : traces)
        trace.merge(t);
    std::vector<uint64_t> indices(count);
    for (uint64_t i = 0; i < count; ++i)
        indices[i] = first + i;
    checkRecords(wl, ref, indices, records, result);

    const double n = static_cast<double>(trace.trials);
    double spans = 0;
    for (unsigned p = 0; p < kPhaseCount; ++p)
        spans += trace.hostSeconds[p];
    std::vector<std::pair<double, unsigned>> ranked;
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        const std::string stem = kPhaseNames[p][0];
        result.add(stem + "_ms", trace.hostSeconds[p] / n * 1e3, "ms");
        result.add(stem + "_share",
                   100.0 * trace.hostSeconds[p] / trace.trialSeconds, "%");
        ranked.push_back({trace.hostSeconds[p], p});
    }
    for (unsigned p = 0; p < kPhaseCount; ++p)
        result.add(kPhaseNames[p][1],
                   base::SimClock::toSeconds(trace.virt[p]) / n, "s");
    result.add("trace.untraced_ms", (trace.trialSeconds - spans) / n * 1e3,
               "ms");
    result.add("trace.untraced_share",
               100.0 * (trace.trialSeconds - spans) / trace.trialSeconds,
               "%");
    result.add("trace.trial_ms", trace.trialSeconds / n * 1e3, "ms");
    // Thread time spent outside trials: waiting for a wave's slowest.
    result.add("trace.idle_ms",
               (loop_s - template_s) * wl.threads / n * 1e3
                   - trace.trialSeconds / n * 1e3,
               "ms");
    result.add("trace.trials_per_s", n / loop_s, "1/s");
    result.add("trace.trials", n, "count");
    result.add("sys.template_ms", template_s * 1e3, "ms");
    result.add("sys.host_build_ms", build_s * 1e3, "ms");
    result.add("sys.profile_spawn_ms", profile_spawn_s * 1e3, "ms");
    result.add("virt.trial_s", base::SimClock::toSeconds(trace.virtTrial) / n,
               "s");

    for (unsigned c = 0; c < kCountCount; ++c)
        result.add(kCountNames[c], static_cast<double>(trace.counts[c]) / n,
                   "count/trial");
    result.add("steering.reuse_ratio",
               trace.releasedFrames
                   ? static_cast<double>(trace.releasedFramesReused)
                       / static_cast<double>(trace.releasedFrames)
                   : 0.0,
               "ratio");

    result.add("profiler.profile_s", profile_s, "s");
    result.add("profiler.combinations",
               static_cast<double>(profile.combinations), "count");
    result.add("profiler.us_per_combination",
               profile.combinations
                   ? profile_s * 1e6
                       / static_cast<double>(profile.combinations)
                   : 0.0,
               "us");
    result.add("profiler.bits", static_cast<double>(profile.bits.size()),
               "count");
    result.add("profiler.usable_bits", static_cast<double>(bits.size()),
               "count");
    result.add("virt.profile_s", base::SimClock::toSeconds(profile.elapsed),
               "s");

    std::sort(ranked.rbegin(), ranked.rend());
    std::printf("%s traced: %llu trials on %u thread(s); top costs:",
                wl.name, static_cast<unsigned long long>(trace.trials),
                wl.threads);
    for (unsigned k = 0; k < 3; ++k)
        std::printf(" %s %.1f%%", kPhaseNames[ranked[k].second][0],
                    100.0 * ranked[k].first / trace.trialSeconds);
    std::printf("; untraced %.1f%%\n",
                100.0 * (trace.trialSeconds - spans) / trace.trialSeconds);
    return result;
}

// ------------------------------------------------------------------
// Reference generation
// ------------------------------------------------------------------

int
pin(const World &world, const std::string &dir)
{
    sys::HostSystem host(world.host);
    attack::HyperHammerAttack attack(host, world.vm, host.dram().mapping(),
                                     world.attack);
    const attack::ProfileResult profile = attack.profilePhase();
    Reference ref;
    ref.fingerprint = attack.campaignFingerprint();
    ref.profileDigest = profileDigest(attack.hostProfile());
    ref.combinations = profile.combinations;
    ref.profiledBits = profile.bits.size();
    ref.profileVirt = profile.elapsed;
    // Ranges stop at a success; carry on after it.
    const unsigned threads = base::ThreadPool::defaultThreads();
    while (ref.trials.size() < world.pinnedTrials) {
        attack::TrialRangeResult range = attack.runTrialRange(
            ref.trials.size(), world.pinnedTrials, threads, {});
        ref.trials.insert(ref.trials.end(), range.outcomes.begin(),
                          range.outcomes.end());
    }
    const std::string path = referencePath(dir, world);
    if (!writeReference(path, world, ref)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s: %zu trials\n", path.c_str(), ref.trials.size());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: campaign_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --reference-dir DIR\n"
                 "       campaign_bench --pin WORKLOAD --reference-dir "
                 "DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string pin_name;
    std::string reference_dir;
    uint64_t seed = 0;
    uint64_t seconds = 0;
    int trace = -1;
    if (argc % 2 == 0)
        return usage();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload_name = value;
        else if (flag == "--pin")
            pin_name = value;
        else if (flag == "--reference-dir")
            reference_dir = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtoull(value, nullptr, 10);
        else if (flag == "--trace")
            trace = std::atoi(value);
        else
            return usage();
    }
    const std::string name = pin_name.empty() ? workload_name : pin_name;
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            wl = &w;
    }
    if (wl == nullptr || reference_dir.empty())
        return usage();
    // Library warnings go to stderr; stdout ends with the result line.
    base::Logger::get().setThreshold(base::LogLevel::Warn);
    const World world = wl->world();
    if (!pin_name.empty())
        return pin(world, reference_dir);
    if (seconds == 0 || (trace != 0 && trace != 1))
        return usage();

    Reference ref;
    if (!readReference(referencePath(reference_dir, world), ref)
        || ref.trials.size() != world.pinnedTrials) {
        std::fprintf(stderr, "campaign_bench: no valid reference for %s\n",
                     world.name.c_str());
        return 1;
    }
    // The campaign's size follows from --seconds; the seed picks the
    // first pinned trial, in the table's first half, so workloads on
    // one world start at the same trial and their records must agree.
    const uint64_t half = world.pinnedTrials / 2;
    uint64_t count = std::max<uint64_t>(
        wl->minTrials,
        static_cast<uint64_t>(std::llround(
            wl->trialsPerSecond * static_cast<double>(seconds))));
    count = std::min<uint64_t>(count, half);
    count -= count % wl->threads;
    const uint64_t first = base::mix64(seed, 0xca4a) % half;

    const RunResult result = trace == 1
        ? runTraced(*wl, world, ref, first, count)
        : runCampaign(*wl, world, ref, first, count);
    result.print();
    return result.correct ? 0 : 1;
}
