#include "dramdig.h"

#include <algorithm>
#include <bit>

#include "base/bitops.h"

namespace hh::analysis {

namespace {

/** Addresses collected per same-bank conflict set. */
constexpr unsigned kConflictSetSize = 96;
/** Independent conflict sets used for cross-validation. */
constexpr unsigned kConflictSets = 4;
/** Random candidates probed while building each set. */
constexpr unsigned kProbeBudget = 40'000;
/** Lowest / highest physical-address bit considered by a mask. */
constexpr unsigned kMaskLoBit = 6;
constexpr unsigned kMaskHiBit = 25;
/** Maximum bits per candidate mask. */
constexpr unsigned kMaxMaskWeight = 6;
/** Timed accesses averaged per pair measurement. */
constexpr unsigned kMeasurementsPerPair = 4;

static_assert(kMaskHiBit > kMaskLoBit);
static_assert(kMaskHiBit - kMaskLoBit + 1 <= 32);

} // namespace

DramDig::DramDig(dram::DramSystem &dram, DramDigConfig config)
    : dram(dram), rng(config.seed)
{}

HostPhysAddr
DramDig::randomAddr()
{
    // Cache-line granularity: sampling whole pages would leave the
    // in-page address bits (6..11) constant at zero, making any mask
    // over them spuriously "constant parity".
    const uint64_t lines = dram.size() / 64;
    return HostPhysAddr(rng.below(lines) * 64);
}

double
DramDig::measurePair(HostPhysAddr a, HostPhysAddr b)
{
    // Latencies are integer SimTime ticks: sum them exactly as
    // integers and divide once, so the mean is order-independent.
    base::SimTime total = 0;
    for (unsigned i = 0; i < kMeasurementsPerPair; ++i) {
        total += dram.timedAccess(a);
        total += dram.timedAccess(b);
        timedAccesses += 2;
    }
    return static_cast<double>(total) / (2.0 * kMeasurementsPerPair);
}

void
DramDig::calibrate()
{
    // Sample random pairs; the latency distribution is bimodal (row
    // hits/misses vs. conflicts). Use the midpoint of the two modes.
    double lo = 1e18;
    double hi = 0.0;
    for (unsigned i = 0; i < 256; ++i) {
        const double lat = measurePair(randomAddr(), randomAddr());
        lo = std::min(lo, lat);
        hi = std::max(hi, lat);
    }
    threshold = (lo + hi) / 2.0;
}

bool
DramDig::conflicts(HostPhysAddr a, HostPhysAddr b)
{
    if (threshold == 0.0)
        calibrate();
    // Same-row pairs are also "slow-free": identical rows never
    // conflict, so same bank+row pairs must be filtered by retrying
    // with an offset (different page within the row-stripe is enough
    // most of the time; a false negative only wastes one probe).
    return measurePair(a, b) > threshold;
}

std::vector<HostPhysAddr>
DramDig::collectConflictSet()
{
    std::vector<HostPhysAddr> set;
    const HostPhysAddr pivot = randomAddr();
    set.push_back(pivot);
    for (unsigned probe = 0;
         probe < kProbeBudget && set.size() < kConflictSetSize;
         ++probe) {
        const HostPhysAddr candidate = randomAddr();
        if (conflicts(pivot, candidate))
            set.push_back(candidate);
    }
    return set;
}

std::vector<uint64_t>
DramDig::constantParityMasks(
    const std::vector<std::vector<HostPhysAddr>> &sets)
{
    // Enumerate masks as combinations of bit positions in
    // [kMaskLoBit, kMaskHiBit] with weight <= kMaxMaskWeight.
    const unsigned width = kMaskHiBit - kMaskLoBit + 1;
    std::vector<uint64_t> found;
    for (uint32_t combo = 1; combo < (1u << width); ++combo) {
        if (static_cast<unsigned>(std::popcount(combo))
            > kMaxMaskWeight) {
            continue;
        }
        const uint64_t mask = static_cast<uint64_t>(combo)
            << kMaskLoBit;
        bool constant = true;
        for (const auto &set : sets) {
            const unsigned ref =
                base::maskParity(set.front().value(), mask);
            for (const HostPhysAddr addr : set) {
                if (base::maskParity(addr.value(), mask) != ref) {
                    constant = false;
                    break;
                }
            }
            if (!constant)
                break;
        }
        if (constant)
            found.push_back(mask);
    }
    return found;
}

std::vector<uint64_t>
DramDig::reduceToBasis(std::vector<uint64_t> masks)
{
    // Greedy minimal-weight basis: sort by popcount, keep a mask only
    // if it is linearly independent of those already kept (GF(2)
    // elimination by leading bit).
    std::sort(masks.begin(), masks.end(),
              [](uint64_t a, uint64_t b) {
                  const int pa = std::popcount(a);
                  const int pb = std::popcount(b);
                  return pa != pb ? pa < pb : a < b;
              });
    std::vector<uint64_t> echelon; // reduced forms, by leading bit
    std::vector<uint64_t> basis;   // original masks kept
    for (uint64_t mask : masks) {
        uint64_t reduced = mask;
        for (uint64_t row : echelon) {
            const uint64_t lead = 1ull << base::floorLog2(row);
            if (reduced & lead)
                reduced ^= row;
        }
        if (reduced == 0)
            continue;
        echelon.push_back(reduced);
        std::sort(echelon.begin(), echelon.end(),
                  std::greater<uint64_t>());
        basis.push_back(mask);
    }
    return basis;
}

bool
DramDig::sameSpan(const std::vector<uint64_t> &a,
                  const std::vector<uint64_t> &b)
{
    const auto rank = [](const std::vector<uint64_t> &rows) {
        // Incremental GF(2) echelon with unique leading bits, kept in
        // descending lead order so each insertion reduces fully.
        std::vector<uint64_t> echelon;
        for (uint64_t row : rows) {
            for (uint64_t e : echelon) {
                const uint64_t lead = 1ull << base::floorLog2(e);
                if (row & lead)
                    row ^= e;
            }
            if (row == 0)
                continue;
            echelon.push_back(row);
            std::sort(echelon.begin(), echelon.end(),
                      std::greater<uint64_t>());
        }
        return echelon.size();
    };
    std::vector<uint64_t> merged = a;
    merged.insert(merged.end(), b.begin(), b.end());
    const unsigned ra = rank(a);
    const unsigned rb = rank(b);
    return ra == rb && rank(merged) == ra;
}

DramDigResult
DramDig::run()
{
    DramDigResult result;
    calibrate();
    result.latencyThreshold = threshold;

    std::vector<std::vector<HostPhysAddr>> sets;
    for (unsigned i = 0; i < kConflictSets; ++i) {
        auto set = collectConflictSet();
        if (set.size() >= 8)
            sets.push_back(std::move(set));
    }
    if (sets.empty()) {
        result.timedAccesses = timedAccesses;
        return result;
    }

    const std::vector<uint64_t> constant = constantParityMasks(sets);
    result.bankMasks = reduceToBasis(constant);
    result.timedAccesses = timedAccesses;
    return result;
}

} // namespace hh::analysis
