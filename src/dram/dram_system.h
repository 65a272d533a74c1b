/**
 * @file
 * DramSystem: the simulated DIMM behind the host's physical memory.
 *
 * Combines the address mapping, the sparse data backend, the Rowhammer
 * fault model, optional TRR/ECC mitigations, per-bank open-row timing
 * (the side channel DRAMDig uses) and refresh-window bookkeeping into the
 * single object the rest of the stack reads and writes physical memory
 * through.
 */

#ifndef HYPERHAMMER_DRAM_DRAM_SYSTEM_H
#define HYPERHAMMER_DRAM_DRAM_SYSTEM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/sim_clock.h"
#include "base/types.h"
#include "fault/fault.h"
#include "dram/address_mapping.h"
#include "dram/ecc.h"
#include "dram/fault_model.h"
#include "dram/memory_backend.h"
#include "dram/trr.h"

namespace hh::dram {

/*
 * DRAM latencies (nanoseconds of virtual time): one calibration that
 * S1-S3 share.
 */

/** Access hitting the open row in its bank. */
constexpr base::SimTime kRowHitLatency = 45;
/** Access to an idle bank (row activation needed). */
constexpr base::SimTime kRowMissLatency = 90;
/** Access conflicting with a different open row (precharge+act). */
constexpr base::SimTime kRowConflictLatency = 135;
/** Activate-to-activate time (tRC); cost of one hammer access. */
constexpr base::SimTime kRowCycle = 47;
/** Refresh window (tREFW); disturbance counters reset at this rate. */
constexpr base::SimTime kRefreshWindow = 64 * base::kMillisecond;
/** Modeled cost of memset-style filling one 4 KB page. */
constexpr base::SimTime kPageFillCost = 500;

/** DRAM time parameters a system preset sets (virtual ns). */
struct TimingConfig
{
    /**
     * Modeled cost of scanning one 4 KB page for mismatches
     * (~40 GB/s streaming reads). Dominates profiling time, which the
     * paper reports as 72 h (S1) / 48 h (S2) for 12 GB x 786 k
     * combination-scans; the per-system presets calibrate this.
     */
    base::SimTime pageScanCost = 95;
};

/** Full configuration of a simulated DIMM + controller. */
struct DramConfig
{
    /** Physical memory size in bytes. */
    uint64_t totalBytes = 16_GiB;
    /** PA -> (bank, row) function. */
    AddressMapping mapping = AddressMapping::i3_10100();
    FaultModelConfig fault;
    TimingConfig timing;
    TrrConfig trr;
    EccConfig ecc;
    /** Root of all fault-model and mitigation randomness. */
    uint64_t seed = 1;
};

/** One observed Rowhammer bit flip. */
struct FlipEvent
{
    /** 8-byte-aligned address of the affected word. */
    HostPhysAddr wordAddr;
    /** Bit index within the 64-bit word. */
    unsigned bitInWord;
    FlipDirection direction;
    BankId bank;
    RowId row;

    /** Bit address: absolute bit index in physical memory. */
    uint64_t
    bitAddr() const
    {
        return wordAddr.value() * 8 + bitInWord;
    }
};

/**
 * The simulated memory device. All reads/writes of physical memory by
 * the host kernel, hypervisor and (indirectly) guests go through here.
 */
class DramSystem
{
  private:
    /** Restricts the fork constructor to forkFrom(). */
    struct ForkTag
    {};

  public:
    DramSystem(DramConfig config, base::SimClock &clock);

    /**
     * Fork constructor (reachable only through forkFrom(): ForkTag is
     * private). Shares the immutable fault oracle and weak-row index,
     * starts from an empty data backend that recycles its blocks
     * through the source backend's spares, and copies the open-row
     * registers, counters and rng cursor. The source's memory must be
     * empty (asserted): only a never-booted fork template is forked.
     * The fork starts with no fault injector installed.
     */
    DramSystem(ForkTag, const DramSystem &src, base::SimClock &clock);

    /** Deep copies are banned: clone via forkFrom(). */
    DramSystem(const DramSystem &) = delete;
    DramSystem &operator=(const DramSystem &) = delete;

    /**
     * A clone of the never-written device @p src ticking @p clock.
     * The fault oracle is shared and memory starts empty.
     */
    static std::unique_ptr<DramSystem>
    forkFrom(const DramSystem &src, base::SimClock &clock)
    {
        return std::make_unique<DramSystem>(ForkTag{}, src, clock);
    }

    /** Size of physical memory in bytes. */
    uint64_t size() const { return cfg.totalBytes; }

    /** Number of 4 KB frames. */
    uint64_t pageCount() const { return cfg.totalBytes / kPageSize; }

    /** The configured address mapping. */
    const AddressMapping &mapping() const { return cfg.mapping; }

    /** The fault oracle (tests peek at it; attack code must not). */
    const FaultModel &faultModel() const { return *faults; }

    /** The data store (host-kernel code reads/writes through this). */
    MemoryBackend &backend() { return data; }
    const MemoryBackend &backend() const { return data; }

    const DramConfig &config() const { return cfg; }

    /** @name Functional access (charges fixed latency) */
    /// @{
    uint64_t read64(HostPhysAddr addr);
    void write64(HostPhysAddr addr, uint64_t value);
    void fillPage(Pfn pfn, uint64_t pattern);
    /// @}

    /**
     * @name Page-table entries
     *
     * The one accessor through which every EPT and IOPT walk reads and
     * writes entry @p index of the table page @p table. A table frame
     * past physical memory (a table pointer corrupted by a flip or an
     * injected read corruption) reads as a zero, i.e. not-present,
     * entry and drops writes: real hardware raises a misconfiguration
     * there instead of making a wild access. Defined here so the walks
     * inline it.
     */
    /// @{
    uint64_t
    readEntry(Pfn table, unsigned index)
    {
        return table < pageCount()
            ? read64(HostPhysAddr(table * kPageSize + index * 8ull))
            : 0;
    }

    void
    writeEntry(Pfn table, unsigned index, uint64_t entry)
    {
        if (table < pageCount())
            write64(HostPhysAddr(table * kPageSize + index * 8ull), entry);
    }
    /// @}

    /**
     * Timed access: models the row-buffer state machine and returns the
     * latency of this particular access. Alternating accesses to two
     * addresses in the same bank but different rows see the conflict
     * latency -- the signal DRAMDig thresholds on.
     */
    base::SimTime timedAccess(HostPhysAddr addr);

    /**
     * Hammer a set of aggressor rows.
     *
     * Each aggressor address identifies its (bank, row); duplicates are
     * merged. All aggressors are activated round-robin @p rounds times.
     * Disturbance reaches the rows at distance one in the same bank;
     * weak cells over threshold flip if their direction matches the
     * stored data, subject to TRR and ECC.
     *
     * Virtual time is charged for every activation; disturbance within
     * one refresh window is capped by what fits in the window, and
     * longer bursts give unstable cells multiple windows of chances.
     *
     * @return flips actually applied to memory
     */
    std::vector<FlipEvent>
    hammer(const std::vector<HostPhysAddr> &aggressors, uint64_t rounds);

    /**
     * Scan a 4 KB frame against an expected uniform fill. Returns the
     * word indices (0..511) whose content differs
     * (MemoryBackend::mismatchedWords); charges pageScanCost.
     */
    std::vector<uint16_t> scanPage(Pfn pfn, uint64_t expected_fill);

    /** Total flips this DramSystem has ever applied. */
    uint64_t totalFlips() const { return flipCount; }

    /** Total ECC-corrected (suppressed) flips. */
    uint64_t eccCorrectedFlips() const { return eccCorrected; }

    /** Total TRR-suppressed aggressor activations (bursts). */
    uint64_t trrSuppressions() const { return trrSuppressed; }

    /**
     * Install (or clear) the host's fault injector. Not owned; must
     * outlive this DramSystem. Null means the fault-free fast path.
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        faultInjector = injector;
    }

    /**
     * Serialize the mutable device state: memory contents, open-row
     * registers, flip/ECC/TRR counters and the controller RNG cursor.
     * The fault model itself is pure (seed-derived) and travels via the
     * config fingerprint, not the payload.
     */
    void saveState(base::ArchiveWriter &w) const;

  private:
    // hh-lint: allow(snapshot-field-coverage) -- config travels via the host's configFingerprint(), not the state stream
    DramConfig cfg;
    base::SimClock &clock;
    MemoryBackend data;
    /**
     * Immutable, trial-invariant oracle state: both are pure functions
     * of (dram seed, config) and are shared -- not copied -- by every
     * fork of this device.
     */
    // hh-lint: allow(snapshot-field-coverage) -- seed-derived immutable oracle, rebuilt at construction
    std::shared_ptr<const FaultModel> faults;
    // hh-lint: allow(snapshot-field-coverage) -- seed-derived immutable oracle, rebuilt at construction
    std::shared_ptr<const WeakRowIndex> weakRows;
    // hh-lint: allow(snapshot-field-coverage) -- stateless apart from config; suppression counters serialize at DramSystem level
    TrrModel trr;
    // hh-lint: allow(snapshot-field-coverage) -- stateless apart from config; correction counters serialize at DramSystem level
    EccModel ecc;
    base::Rng rng;
    fault::FaultInjector *faultInjector = nullptr;

    /** Reused weak-cell arena for the hammer loop; never serialized. */
    // hh-lint: allow(snapshot-field-coverage) -- scratch arena, contents dead between hammer calls
    std::vector<WeakCell> cellScratch;

    /** Per-bank open row (for timedAccess); kInvalidRow when closed. */
    static constexpr RowId kNoOpenRow = ~0ull;
    std::vector<RowId> openRows;

    uint64_t flipCount = 0;
    uint64_t eccCorrected = 0;
    uint64_t trrSuppressed = 0;

    /** Highest valid row index (bounded by memory size and row bits). */
    RowId maxRowId() const;

    /** Collect candidate flips for one victim row under disturbance. */
    void evaluateVictimRow(BankId bank, RowId row, uint64_t disturbance,
                           unsigned windows,
                           std::vector<FlipEvent> &candidates);
};

} // namespace hh::dram

#endif // HYPERHAMMER_DRAM_DRAM_SYSTEM_H
