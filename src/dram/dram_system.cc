#include "dram_system.h"

#include <algorithm>
#include <cmath>

#include "base/bitops.h"
#include "base/log.h"

namespace hh::dram {

DramSystem::DramSystem(DramConfig config, base::SimClock &clock)
    : cfg(std::move(config)),
      clock(clock),
      data(cfg.totalBytes),
      faults(std::make_shared<const FaultModel>(
          cfg.fault, base::mix64(cfg.seed, 0xd1a),
          cfg.mapping.rowBytesPerBank())),
      weakRows(std::make_shared<const WeakRowIndex>(
          *faults, cfg.mapping.bankCount(), maxRowId() + 1)),
      trr(cfg.trr),
      ecc(cfg.ecc),
      rng(base::mix64(cfg.seed, 0x5eed)),
      openRows(cfg.mapping.bankCount(), kNoOpenRow)
{
    HH_ASSERT(base::isPowerOfTwo(cfg.totalBytes));
    HH_ASSERT(cfg.totalBytes >= kHugePageSize);
}

DramSystem::DramSystem(ForkTag, const DramSystem &src,
                       base::SimClock &clock)
    : cfg(src.cfg),
      clock(clock),
      data(src.cfg.totalBytes, src.data.forkSpares()),
      faults(src.faults),
      weakRows(src.weakRows),
      trr(src.trr),
      ecc(src.ecc),
      rng(src.rng),
      openRows(src.openRows),
      flipCount(src.flipCount),
      eccCorrected(src.eccCorrected),
      trrSuppressed(src.trrSuppressed)
{
    // The fork starts from empty memory, so the source must hold none.
    HH_ASSERT(src.data.touchedPages() == 0);
}

RowId
DramSystem::maxRowId() const
{
    return std::min<uint64_t>(
        (cfg.totalBytes - 1) >> cfg.mapping.rowLoBit(),
        (1ull << (cfg.mapping.rowHiBit() - cfg.mapping.rowLoBit() + 1))
            - 1);
}

uint64_t
DramSystem::read64(HostPhysAddr addr)
{
    clock.advance(kRowHitLatency);
    uint64_t value = data.read64(addr);
    // Transient read corruption: the returned word is wrong, the
    // stored value is untouched (a re-read sees the true data).
    if (const fault::FaultEntry *f =
            HH_FAULT_POINT(faultInjector, fault::FaultSite::DramRead)) {
        if (f->kind == fault::FaultKind::ReadCorruption)
            value ^= 1ull << (f->param % 64);
    }
    return value;
}

void
DramSystem::write64(HostPhysAddr addr, uint64_t value)
{
    clock.advance(kRowHitLatency);
    data.write64(addr, value);
}

void
DramSystem::fillPage(Pfn pfn, uint64_t pattern)
{
    clock.advance(kPageFillCost);
    data.fillPage(pfn, pattern);
}

base::SimTime
DramSystem::timedAccess(HostPhysAddr addr)
{
    HH_ASSERT(data.contains(addr));
    const BankId bank = cfg.mapping.bankOf(addr);
    const RowId row = cfg.mapping.rowOf(addr);

    base::SimTime latency;
    if (openRows[bank] == row)
        latency = kRowHitLatency;
    else if (openRows[bank] == kNoOpenRow)
        latency = kRowMissLatency;
    else
        latency = kRowConflictLatency;
    openRows[bank] = row;
    clock.advance(latency);
    return latency;
}

void
DramSystem::evaluateVictimRow(BankId bank, RowId row, uint64_t disturbance,
                              unsigned windows,
                              std::vector<FlipEvent> &candidates)
{
    // Bit probe first: the precomputed index answers the common "row
    // is not weak" case without hashing, and always agrees with the
    // oracle (it was built from it).
    if (!weakRows->isWeak(bank, row))
        return;
    cellScratch.clear();
    faults->weakCellsInRow(bank, row, cellScratch);
    for (const WeakCell &cell : cellScratch) {
        if (disturbance < cell.threshold)
            continue;
        // Each refresh window is an independent chance for the cell.
        const double p_once = cell.flipProbability;
        double p_total = p_once;
        if (windows > 1 && p_once < 1.0) {
            p_total = 1.0
                - std::pow(1.0 - p_once, static_cast<double>(windows));
        }
        if (!rng.chance(p_total))
            continue;

        const HostPhysAddr cell_addr =
            cfg.mapping.address(bank, row, cell.byteInRow);
        if (!data.contains(cell_addr))
            continue;
        const HostPhysAddr word_addr(base::alignDown(cell_addr.value(), 8));
        const unsigned bit_in_word = cell.bitInWord();
        const uint64_t word = data.read64(word_addr);
        const bool stored_one = base::bit(word, bit_in_word) != 0;
        // Unidirectional: the cell only flips if the stored value is
        // the one it discharges from (1->0) or charges to (0->1).
        if (cell.direction == FlipDirection::OneToZero && !stored_one)
            continue;
        if (cell.direction == FlipDirection::ZeroToOne && stored_one)
            continue;
        candidates.push_back(
            {word_addr, bit_in_word, cell.direction, bank, row});
    }
}

std::vector<FlipEvent>
DramSystem::hammer(const std::vector<HostPhysAddr> &aggressors,
                   uint64_t rounds)
{
    std::vector<FlipEvent> applied;
    if (aggressors.empty() || rounds == 0)
        return applied;

    // Deduplicate aggressors by (bank, row). A sorted flat vector
    // replaces the old per-call std::map: identical iteration order
    // (so the rng draw sequence is unchanged), no node allocations.
    std::vector<std::pair<BankId, RowId>> agg_rows;
    agg_rows.reserve(aggressors.size());
    for (HostPhysAddr addr : aggressors) {
        HH_ASSERT(data.contains(addr));
        agg_rows.emplace_back(cfg.mapping.bankOf(addr),
                              cfg.mapping.rowOf(addr));
    }
    std::sort(agg_rows.begin(), agg_rows.end());
    agg_rows.erase(std::unique(agg_rows.begin(), agg_rows.end()),
                   agg_rows.end());
    // Count aggressors per bank (input to the TRR sampler): the sort
    // groups equal banks into runs.
    std::vector<unsigned> agg_bank_count(agg_rows.size());
    for (size_t i = 0; i < agg_rows.size();) {
        size_t j = i;
        while (j < agg_rows.size()
               && agg_rows[j].first == agg_rows[i].first)
            ++j;
        for (size_t k = i; k < j; ++k)
            agg_bank_count[k] = static_cast<unsigned>(j - i);
        i = j;
    }

    // Charge virtual time for every activation.
    const uint64_t activations = rounds * agg_rows.size();
    clock.advance(activations * kRowCycle);

    // A refresh window fits only so many activations of this pattern;
    // disturbance per window is capped, and longer bursts span several
    // windows (each an independent chance for unstable cells).
    const uint64_t window_cap = std::max<uint64_t>(
        1, kRefreshWindow / (kRowCycle * agg_rows.size()));
    uint64_t disturbance = std::min(rounds, window_cap);
    const unsigned windows = static_cast<unsigned>(std::min<uint64_t>(
        64, (rounds + window_cap - 1) / window_cap));

    // Refresh jitter: an early refresh truncates this burst, shaving
    // param percent off the accumulated disturbance.
    if (const fault::FaultEntry *f =
            HH_FAULT_POINT(faultInjector, fault::FaultSite::DramRefresh)) {
        if (f->kind == fault::FaultKind::RefreshJitter) {
            const uint64_t pct = std::min<uint64_t>(f->param, 100);
            disturbance -= disturbance * pct / 100;
        }
    }

    // Accumulate disturbance on neighbouring victim rows.
    const RowId max_row = maxRowId();
    std::vector<std::pair<std::pair<BankId, RowId>, uint64_t>> victims;
    victims.reserve(agg_rows.size() * 2);
    for (size_t agg_idx = 0; agg_idx < agg_rows.size(); ++agg_idx) {
        const auto [bank, row] = agg_rows[agg_idx];
        // Spurious TRR: the sampler catches an aggressor it would
        // normally miss. Consulted per aggressor row, before the
        // modeled sampler, so the rng stream is untouched on fire.
        if (const fault::FaultEntry *f = HH_FAULT_POINT(
                faultInjector, fault::FaultSite::DramTrr)) {
            if (f->kind == fault::FaultKind::SpuriousTrr) {
                ++trrSuppressed;
                continue;
            }
        }
        if (trr.suppresses(agg_bank_count[agg_idx], rng.uniform())) {
            ++trrSuppressed;
            continue;
        }
        if (disturbance == 0)
            continue;
        if (row > 0)
            victims.push_back({{bank, row - 1}, disturbance});
        if (row < max_row)
            victims.push_back({{bank, row + 1}, disturbance});
    }

    // Merge-sum duplicate victim rows. Sorting restores the exact
    // (bank, row) visit order the old std::map produced, which the
    // per-victim rng draws depend on.
    std::sort(victims.begin(), victims.end());
    size_t merged = 0;
    for (size_t i = 0; i < victims.size();) {
        uint64_t sum = 0;
        size_t j = i;
        while (j < victims.size()
               && victims[j].first == victims[i].first)
            sum += victims[j++].second;
        victims[merged++] = {victims[i].first, sum};
        i = j;
    }
    victims.resize(merged);

    // Activated rows are constantly refreshed; they cannot be victims.
    std::vector<FlipEvent> candidates;
    for (const auto &[key, dist] : victims) {
        if (std::binary_search(agg_rows.begin(), agg_rows.end(), key))
            continue;
        evaluateVictimRow(key.first, key.second, dist, windows,
                          candidates);
    }

    // ECC: group candidate flips per 64-bit word.
    std::vector<uint64_t> flip_words;
    flip_words.reserve(candidates.size());
    for (const FlipEvent &event : candidates)
        flip_words.push_back(event.wordAddr.value());
    std::sort(flip_words.begin(), flip_words.end());
    auto flips_in_word = [&flip_words](uint64_t word) {
        const auto range = std::equal_range(flip_words.begin(),
                                            flip_words.end(), word);
        return static_cast<unsigned>(range.second - range.first);
    };

    for (const FlipEvent &event : candidates) {
        bool visible =
            ecc.flipsVisible(flips_in_word(event.wordAddr.value()));
        // ECC miscorrection: the controller gets it backwards -- a
        // correctable flip slips through, or a visible one is eaten.
        if (const fault::FaultEntry *f = HH_FAULT_POINT(
                faultInjector, fault::FaultSite::DramEcc)) {
            if (f->kind == fault::FaultKind::EccMiscorrect)
                visible = !visible;
        }
        if (!visible) {
            ++eccCorrected;
            continue;
        }
        data.flipBit(event.wordAddr, event.bitInWord);
        ++flipCount;
        applied.push_back(event);
    }
    return applied;
}

std::vector<uint16_t>
DramSystem::scanPage(Pfn pfn, uint64_t expected_fill)
{
    clock.advance(cfg.timing.pageScanCost);
    return data.mismatchedWords(pfn, expected_fill);
}

void
DramSystem::saveState(base::ArchiveWriter &w) const
{
    data.saveState(w);
    w.u64vec(openRows);
    w.u64(flipCount);
    w.u64(eccCorrected);
    w.u64(trrSuppressed);
    w.rngState(rng.saveState());
}

} // namespace hh::dram
