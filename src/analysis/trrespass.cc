#include "trrespass.h"

namespace hh::analysis {

Trrespass::Trrespass(dram::DramSystem &dram, TrrespassConfig config)
    : dram(dram), cfg(config), rng(config.seed)
{}

uint64_t
Trrespass::tryPattern(unsigned aggressor_rows)
{
    const dram::AddressMapping &map = dram.mapping();
    const uint64_t max_row = (dram.size() - 1) >> map.rowLoBit();
    const dram::BankId bank =
        static_cast<dram::BankId>(rng.below(map.bankCount()));
    // Aggressors spaced two rows apart leave victim rows between
    // them (the classic TRRespass assisted pattern).
    const uint64_t span = 2ull * aggressor_rows + 2;
    if (max_row < span + 2)
        return 0;
    const dram::RowId base_row = 1 + rng.below(max_row - span - 1);

    // Fill the victim neighbourhood with an all-ones pattern so both
    // flip directions are observable on the 0xff/0x00 double pass.
    std::vector<HostPhysAddr> aggressors;
    for (unsigned i = 0; i < aggressor_rows; ++i)
        aggressors.push_back(map.address(bank, base_row + 2 * i));

    uint64_t flips = 0;
    for (uint64_t fill : {~0ull, 0ull}) {
        // Fill the whole row stripe of every row in the pattern's
        // neighbourhood so any victim cell position is observable.
        for (uint64_t r = 0; r <= span; ++r) {
            const uint64_t stripe_base =
                (base_row + r) << map.rowLoBit();
            for (uint64_t off = 0; off < map.rowStripeBytes();
                 off += kPageSize) {
                dram.fillPage((stripe_base + off) / kPageSize, fill);
            }
        }
        flips += dram.hammer(aggressors, cfg.rounds).size();
    }
    return flips;
}

TrrespassResult
Trrespass::run()
{
    TrrespassResult result;
    result.flipsBySize.assign(cfg.maxAggressorRows + 1, 0);
    for (unsigned size = 1; size <= cfg.maxAggressorRows; ++size) {
        uint64_t flips = 0;
        for (unsigned trial = 0; trial < cfg.trialsPerSize; ++trial)
            flips += tryPattern(size);
        result.flipsBySize[size] = flips;
        if (flips > 0 && result.effectiveAggressorRows == 0) {
            result.effectiveAggressorRows = size;
            result.flips = flips;
        }
    }
    return result;
}

} // namespace hh::analysis
