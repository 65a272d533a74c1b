/**
 * @file
 * DRAMDig-style reverse engineering of the DRAM bank function
 * (Section 5.1; Wang et al., DAC'20).
 *
 * The attacker prepares offline, on hardware identical to the target,
 * by timing pairs of memory accesses: two addresses in the same bank
 * but different rows keep evicting each other's row buffer, so each
 * access pays the precharge+activate ("row conflict") latency. From a
 * set of mutually conflicting addresses, every XOR mask whose parity
 * is constant across the set lies in the span of the bank-function
 * masks; brute-forcing low-weight masks and reducing them to a GF(2)
 * basis recovers the function.
 */

#ifndef HYPERHAMMER_ANALYSIS_DRAMDIG_H
#define HYPERHAMMER_ANALYSIS_DRAMDIG_H

#include <cstdint>
#include <optional>
#include <vector>

#include "base/rng.h"
#include "dram/dram_system.h"

namespace hh::analysis {

/** DRAMDig tunables. */
struct DramDigConfig
{
    uint64_t seed = 0xd1d;
};

/** Outcome of a recovery run. */
struct DramDigResult
{
    /** Recovered basis of bank-function masks (empty on failure). */
    std::vector<uint64_t> bankMasks;
    /** Latency threshold used to split conflict from non-conflict. */
    double latencyThreshold = 0.0;
    uint64_t timedAccesses = 0;

    bool recovered() const { return !bankMasks.empty(); }
};

/**
 * Runs the recovery against a DramSystem (the attacker's own offline
 * machine -- it can use physical addresses there).
 */
class DramDig
{
  public:
    DramDig(dram::DramSystem &dram, DramDigConfig config);

    /** Execute the full pipeline. */
    DramDigResult run();

    /**
     * True when two addresses conflict (same bank, different row),
     * judged purely from timing. Public for tests.
     */
    bool conflicts(HostPhysAddr a, HostPhysAddr b);

    /**
     * Reduce a set of masks to a minimal-weight GF(2) basis. Public
     * for tests.
     */
    static std::vector<uint64_t>
    reduceToBasis(std::vector<uint64_t> masks);

    /** True when the spans of two mask sets over GF(2) are equal. */
    static bool sameSpan(const std::vector<uint64_t> &a,
                         const std::vector<uint64_t> &b);

  private:
    dram::DramSystem &dram;
    base::Rng rng;
    double threshold = 0.0;
    uint64_t timedAccesses = 0;

    /** Average latency of alternating accesses to the pair. */
    double measurePair(HostPhysAddr a, HostPhysAddr b);

    /** Calibrate the conflict threshold from random samples. */
    void calibrate();

    /** Random page-aligned address within DRAM. */
    HostPhysAddr randomAddr();

    /** Collect one set of mutually conflicting addresses. */
    std::vector<HostPhysAddr> collectConflictSet();

    /** Masks of weight <= kMaxMaskWeight constant-parity over all sets. */
    std::vector<uint64_t>
    constantParityMasks(const std::vector<std::vector<HostPhysAddr>> &sets);
};

} // namespace hh::analysis

#endif // HYPERHAMMER_ANALYSIS_DRAMDIG_H
