#include "profiler.h"

#include <algorithm>

#include "base/bitops.h"
#include "base/log.h"
#include "base/rng.h"

namespace hh::attack {

uint64_t
ProfileResult::countOneToZero() const
{
    return std::count_if(bits.begin(), bits.end(), [](const auto &b) {
        return b.direction == dram::FlipDirection::OneToZero;
    });
}

uint64_t
ProfileResult::countZeroToOne() const
{
    return std::count_if(bits.begin(), bits.end(), [](const auto &b) {
        return b.direction == dram::FlipDirection::ZeroToOne;
    });
}

uint64_t
ProfileResult::countStable() const
{
    return std::count_if(bits.begin(), bits.end(),
                         [](const auto &b) { return b.stable; });
}

uint64_t
ProfileResult::countExploitable() const
{
    return std::count_if(bits.begin(), bits.end(),
                         [](const auto &b) { return b.exploitable; });
}

std::vector<VulnerableBit>
ProfileResult::exploitableBits() const
{
    // Usable for steering = exploitable bit position AND the victim
    // can be released without giving up the aggressors. Stable bits
    // first: they flip on demand.
    std::vector<VulnerableBit> out;
    for (const VulnerableBit &bit : bits) {
        if (bit.exploitable && bit.releasable)
            out.push_back(bit);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const VulnerableBit &a, const VulnerableBit &b) {
                         return a.stable > b.stable;
                     });
    return out;
}

MemoryProfiler::MemoryProfiler(vm::VirtualMachine &machine,
                               base::SimClock &clock,
                               dram::AddressMapping mapping,
                               ProfilerConfig config)
    : machine(machine),
      clock(clock),
      mapping(std::move(mapping)),
      cfg(config)
{
    if (cfg.exploitHiBit == 0) {
        // The paper's Section 5.1 range tops out at ceil(log2(mem));
        // derive from the machine spec.
        cfg.exploitHiBit = base::ceilLog2(machine.hostMemoryBytes());
    }
    HH_ASSERT(cfg.exploitHiBit > cfg.exploitLoBit);
    HH_ASSERT(cfg.exploitHiBit < 64);
}

unsigned
MemoryProfiler::localRows() const
{
    return static_cast<unsigned>(kHugePageSize
                                 / mapping.rowStripeBytes());
}

void
MemoryProfiler::buildReverseIndex(
    const std::vector<GuestPhysAddr> &region)
{
    // Simulation index only: lets the simulator map a DRAM flip event
    // back to the guest hugepage a full scan would have found dirty.
    hostToGuestHugePage.clear();
    for (GuestPhysAddr gpa : region) {
        auto hpa = machine.debugTranslate(gpa);
        if (hpa)
            hostToGuestHugePage[hpa->hugePageBase().value()] = gpa;
    }
}

std::vector<std::vector<GuestPhysAddr>>
MemoryProfiler::aggressorCandidates(GuestPhysAddr huge_page,
                                    bool top_border) const
{
    std::vector<std::vector<GuestPhysAddr>> candidates;
    const unsigned rows = localRows();
    HH_ASSERT(rows >= 2);
    const unsigned r0 = top_border ? rows - 2 : 0;
    const unsigned r1 = r0 + 1;

    if (cfg.bankFunctionKnown) {
        // One same-bank pair per bank label: the pair activates two
        // adjacent rows, disturbing the row beyond the border. Labels
        // are computed from the low 21 bits only; the unknown upper
        // bits add a constant XOR that cancels within one hugepage.
        for (dram::BankId label = 0; label < mapping.bankCount();
             ++label) {
            candidates.push_back(
                {huge_page + mapping.address(label, r0).value(),
                 huge_page + mapping.address(label, r1).value()});
        }
        return candidates;
    }

    // Brute force: all page pairs across the two border rows. Only
    // the (unknown) same-bank pairs can produce flips, so this is
    // slower by roughly pages-per-row squared over banks.
    const uint64_t stripe = mapping.rowStripeBytes();
    const uint64_t pages_per_row = stripe / kPageSize;
    for (uint64_t p0 = 0; p0 < pages_per_row; ++p0) {
        for (uint64_t p1 = 0; p1 < pages_per_row; ++p1) {
            if (candidates.size() >= cfg.bruteForcePairCap)
                return candidates;
            candidates.push_back(
                {huge_page + r0 * stripe + p0 * kPageSize,
                 huge_page + r1 * stripe + p1 * kPageSize});
        }
    }
    return candidates;
}

void
MemoryProfiler::harvestFlips(const std::vector<dram::FlipEvent> &events,
                             uint64_t fill,
                             const std::vector<GuestPhysAddr> &aggressors,
                             GuestPhysAddr aggressor_hp,
                             ProfileResult &result)
{
    for (const dram::FlipEvent &event : events) {
        const uint64_t host_hp = event.wordAddr.hugePageBase().value();
        const auto it = hostToGuestHugePage.find(host_hp);
        if (it == hostToGuestHugePage.end()) {
            // Flip landed outside the attacker's scannable memory
            // (host kernel, another VM, boot RAM): invisible to the
            // attacker, potentially destructive to someone else.
            ++result.collateralFlips;
            continue;
        }
        const GuestPhysAddr victim_hp = it->second;
        const GuestPhysAddr word_gpa =
            victim_hp + event.wordAddr.hugePageOffset();

        const uint64_t key = word_gpa.value() * 64 + event.bitInWord;
        if (seen.count(key))
            continue;

        // Verify through a guest load, exactly as a scan would.
        auto value = machine.read64(word_gpa);
        if (!value || *value == fill)
            continue;
        const uint64_t diff = *value ^ fill;
        if (!(diff & (1ull << event.bitInWord)))
            continue;
        seen.insert(key);

        VulnerableBit bit;
        bit.wordGpa = word_gpa;
        bit.bitInWord = event.bitInWord;
        bit.direction = base::bit(fill, event.bitInWord)
            ? dram::FlipDirection::OneToZero
            : dram::FlipDirection::ZeroToOne;
        bit.victimHugePage = victim_hp;
        bit.aggressorHugePage = aggressor_hp;
        bit.aggressors = aggressors;

        // Repair the pattern so later combinations scan clean.
        // hh-lint: allow(status-discard) -- best-effort repair of a profiled page; the next scan re-detects residue
        (void)machine.write64(word_gpa, fill);

        bit.stable = retestStability(bit, fill);

        bit.exploitable = bit.bitInWord >= cfg.exploitLoBit
            && bit.bitInWord <= cfg.exploitHiBit;
        bit.releasable = bit.victimHugePage != bit.aggressorHugePage;
        if (bit.exploitable && bit.releasable)
            ++usableFound;

        result.bits.push_back(std::move(bit));
    }
}

bool
MemoryProfiler::retestStability(VulnerableBit &bit, uint64_t fill)
{
    for (unsigned repeat = 0; repeat < cfg.stabilityRepeats; ++repeat) {
        // hh-lint: allow(status-discard) -- retest fill; the read-back below is the actual check
        (void)machine.write64(bit.wordGpa, fill);
        (void)machine.hammer(bit.aggressors, cfg.hammerRounds);
        auto value = machine.read64(bit.wordGpa);
        if (!value)
            return false;
        if (!((*value ^ fill) & (1ull << bit.bitInWord))) {
            // hh-lint: allow(status-discard) -- best-effort repair before reporting instability
            (void)machine.write64(bit.wordGpa, fill);
            return false;
        }
        // hh-lint: allow(status-discard) -- best-effort repair between repeats
        (void)machine.write64(bit.wordGpa, fill);
    }
    return true;
}

ProfileResult
MemoryProfiler::profile(const std::vector<GuestPhysAddr> &region)
{
    ProfileResult result;
    const base::SimTime start = clock.now();
    buildReverseIndex(region);
    seen.clear();
    usableFound = 0;

    const size_t region_pages = region.size() * kPagesPerHugePage;
    // 1->0 flips need memory full of ones; 0->1 needs zeros.
    const uint64_t patterns[2] = {~0ull, 0ull};

    bool done = false;
    for (uint64_t fill : patterns) {
        if (done)
            break;
        for (GuestPhysAddr hp : region)
            (void)machine.fillHugePage(hp, fill);

        for (GuestPhysAddr hp : region) {
            if (done)
                break;
            for (bool top : {false, true}) {
                if (done)
                    break;
                for (const auto &pair : aggressorCandidates(hp, top)) {
                    auto events = machine.hammer(pair, cfg.hammerRounds);
                    ++result.combinations;
                    // The real attacker follows every combination
                    // with a scan of all other 2 MB regions (Section
                    // 5.1); the simulator already knows the scan's
                    // outcome from the flip events, so it charges the
                    // scan's virtual time and verifies only the
                    // affected words through guest loads.
                    clock.advance(
                        static_cast<base::SimTime>(region_pages)
                        * machine.dramTiming().pageScanCost);
                    harvestFlips(events, fill, pair, hp, result);
                    if (cfg.stopAfterExploitable
                        && usableFound >= cfg.stopAfterExploitable) {
                        done = true;
                        break;
                    }
                }
            }
        }
    }

    result.elapsed = clock.now() - start;
    return result;
}

} // namespace hh::attack
