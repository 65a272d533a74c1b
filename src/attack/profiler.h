/**
 * @file
 * Memory profiling (Section 4.1, evaluated in Section 5.1 / Table 1).
 *
 * The attacker cannot learn host physical addresses, but with THP both
 * the guest and host back memory with 2 MB hugepages, so the low 21
 * bits of a guest address survive translation. Since the reverse-
 * engineered bank functions of both evaluation CPUs use only those bits
 * (plus row bits whose *relative* values inside a hugepage are known),
 * the attacker can select two aggressor rows in the same bank at the
 * border of each hugepage, hammer them single-sided, and scan the rest
 * of its memory for flips.
 *
 * The profiler hammers, for every hugepage, both borders and all bank
 * labels, with both fill patterns (0xff.. to expose 1->0 flips, 0x00..
 * for 0->1), re-tests each discovered bit for stability, and filters
 * for exploitability.
 */

#ifndef HYPERHAMMER_ATTACK_PROFILER_H
#define HYPERHAMMER_ATTACK_PROFILER_H

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "attack/types.h"
#include "base/sim_clock.h"
#include "dram/address_mapping.h"
#include "vm/virtual_machine.h"

namespace hh::attack {

/**
 * Profiles the memory of one VM for exploitable Rowhammer bits.
 */
class MemoryProfiler
{
  public:
    /**
     * @param machine  the attacker's VM
     * @param clock    virtual clock to charge scan time against
     * @param mapping  the DRAM address mapping the attacker believes
     *                 in (recovered via DRAMDig on an identical
     *                 machine); only its low-21-bit behaviour is used
     * @param config   tunables
     */
    MemoryProfiler(vm::VirtualMachine &machine, base::SimClock &clock,
                   dram::AddressMapping mapping, ProfilerConfig config);

    /**
     * Profile the given hugepages (typically the VM's virtio-mem
     * region). Returns all discovered bits with classification.
     */
    ProfileResult profile(const std::vector<GuestPhysAddr> &region);

    /**
     * The aggressor-pair candidates the profiler would hammer for one
     * hugepage border: one same-bank pair per bank label when the
     * bank function is known, a page-pair grid otherwise. Exposed for
     * tests and the profiling ablation.
     */
    std::vector<std::vector<GuestPhysAddr>>
    aggressorCandidates(GuestPhysAddr huge_page, bool top_border) const;

  private:
    vm::VirtualMachine &machine;
    base::SimClock &clock;
    dram::AddressMapping mapping;
    ProfilerConfig cfg;

    /** Host hugepage frame -> guest hugepage GPA (simulation index). */
    std::unordered_map<uint64_t, GuestPhysAddr> hostToGuestHugePage;

    /** Already recorded (wordGpa, bit) pairs. */
    std::unordered_set<uint64_t> seen;

    /** Exploitable-and-releasable bits found so far (early stop). */
    unsigned usableFound = 0;

    void buildReverseIndex(const std::vector<GuestPhysAddr> &region);

    /** Number of local rows per hugepage (2 MB / row stripe). */
    unsigned localRows() const;

    /**
     * Process flip events from one hammer burst: verify each through
     * guest loads, classify, repair the pattern, and append to
     * @p result. @p fill is the pattern the region currently holds.
     */
    void harvestFlips(const std::vector<dram::FlipEvent> &events,
                      uint64_t fill,
                      const std::vector<GuestPhysAddr> &aggressors,
                      GuestPhysAddr aggressor_hp, ProfileResult &result);

    /** Stability re-test of one discovered bit. */
    bool retestStability(VulnerableBit &bit, uint64_t fill);
};

} // namespace hh::attack

#endif // HYPERHAMMER_ATTACK_PROFILER_H
