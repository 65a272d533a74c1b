/**
 * @file
 * Shared vocabulary of the HyperHammer attack pipeline: what the
 * attacker knows about a vulnerable bit, and the tunables of each
 * stage.
 */

#ifndef HYPERHAMMER_ATTACK_TYPES_H
#define HYPERHAMMER_ATTACK_TYPES_H

#include <cstdint>
#include <vector>

#include "base/sim_clock.h"
#include "base/types.h"
#include "dram/fault_model.h"

namespace hh::attack {

/**
 * A Rowhammer-vulnerable bit as the *attacker* records it: everything
 * is in guest physical addresses, because the attacker never learns
 * host physical addresses (Section 4.1).
 */
struct VulnerableBit
{
    /** 8-byte aligned GPA of the word containing the bit. */
    GuestPhysAddr wordGpa{0};
    /** Bit index within the 64-bit word (0..63). */
    unsigned bitInWord = 0;
    /** Observed flip direction. */
    dram::FlipDirection direction = dram::FlipDirection::OneToZero;
    /** Flipped on every stability re-test. */
    bool stable = false;
    /**
     * Passes the paper's exploitability filter (Section 4.1, last
     * paragraph): the bit falls on PFN bits
     * 21..ceil(log2(host_mem))-1 of an EPTE.
     */
    bool exploitable = false;
    /**
     * The victim hugepage differs from the aggressors' hugepage, so
     * it can be released while the aggressors stay mapped. Steering
     * can only use bits that are both exploitable and releasable.
     */
    bool releasable = false;
    /** 2 MB hugepage (GPA) containing the victim bit. */
    GuestPhysAddr victimHugePage{0};
    /** 2 MB hugepage (GPA) containing the aggressor rows. */
    GuestPhysAddr aggressorHugePage{0};
    /** The aggressor addresses to hammer to reproduce the flip. */
    std::vector<GuestPhysAddr> aggressors;
};

/** Aggregate outcome of a profiling run (the Table 1 row). */
struct ProfileResult
{
    std::vector<VulnerableBit> bits;

    /** Virtual time the profiling took. */
    base::SimTime elapsed = 0;
    /** (hugepage, border, bank) combinations hammered. */
    uint64_t combinations = 0;
    /** Flips that landed outside attacker-scannable memory. */
    uint64_t collateralFlips = 0;

    uint64_t totalFlips() const { return bits.size(); }
    uint64_t countOneToZero() const;
    uint64_t countZeroToOne() const;
    uint64_t countStable() const;
    uint64_t countExploitable() const;

    /** The exploitable subset, stable bits first. */
    std::vector<VulnerableBit> exploitableBits() const;
};

/** Profiling tunables (defaults follow Section 5.1). */
struct ProfilerConfig
{
    /**
     * When non-zero, stop as soon as this many exploitable bits are
     * found (the early-exit of Section 5.3.3).
     */
    unsigned stopAfterExploitable = 0;
    /**
     * True: use the DRAM bank function (recovered with DRAMDig) to
     * pick same-bank aggressor pairs. False: brute-force page pairs
     * at hugepage borders (Section 4.1's fallback).
     */
    bool bankFunctionKnown = true;
    /**
     * Brute-force mode only: cap on page pairs tried per border (the
     * full 64x64 grid is expensive; the paper notes the slowdown is
     * proportional to row size).
     */
    unsigned bruteForcePairCap = 4096;
};

} // namespace hh::attack

#endif // HYPERHAMMER_ATTACK_TYPES_H
