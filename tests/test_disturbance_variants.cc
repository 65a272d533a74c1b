/**
 * @file
 * Tests of the disturbance model's reach (aggressors only disturb
 * their adjacent rows: no Half-Double style distance-two coupling) and
 * of the multi-VM consequences of flips (Section 4.3's "Improving
 * Success Rates": a flip may expose *another* VM's EPT page, which
 * passes the format check but fails validation).
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "hyperhammer/hyperhammer.h"

namespace hh {
namespace {

dram::DramConfig
dimmConfig(uint32_t min_threshold, uint32_t max_threshold)
{
    dram::DramConfig cfg;
    cfg.totalBytes = 256_MiB;
    cfg.fault.weakCellsPerRow = 0.02;
    cfg.fault.stableFraction = 1.0;
    cfg.fault.minThreshold = min_threshold;
    cfg.fault.maxThreshold = max_threshold;
    return cfg;
}

/** First stable 1->0 weak spot at distance from row borders. */
struct Spot
{
    dram::BankId bank;
    dram::RowId row;
    dram::WeakCell cell;
};

std::optional<Spot>
findSpot(const dram::DramSystem &dram)
{
    const dram::AddressMapping &map = dram.mapping();
    const dram::RowId max_row = (dram.size() - 1) >> map.rowLoBit();
    for (dram::RowId row = 2; row + 3 < max_row; ++row) {
        for (dram::BankId bank = 0; bank < map.bankCount(); ++bank) {
            for (const auto &cell :
                 dram.faultModel().weakCellsInRow(bank, row)) {
                if (cell.direction == dram::FlipDirection::OneToZero
                    && cell.stable())
                    return Spot{bank, row, cell};
            }
        }
    }
    return std::nullopt;
}

void
fillRow(dram::DramSystem &dram, dram::RowId row, uint64_t pattern)
{
    const dram::AddressMapping &map = dram.mapping();
    const uint64_t base = static_cast<uint64_t>(row) << map.rowLoBit();
    for (uint64_t off = 0; off < map.rowStripeBytes(); off += kPageSize)
        dram.backend().fillPage((base + off) / kPageSize, pattern);
}

bool
flipsSpot(const std::vector<dram::FlipEvent> &events, const Spot &spot)
{
    for (const auto &event : events) {
        if (event.bank == spot.bank && event.row == spot.row
            && event.bitInWord == spot.cell.bitInWord())
            return true;
    }
    return false;
}

TEST(HalfDouble, AggressorsTwoRowsAwayLeaveTheVictimAlone)
{
    base::SimClock clock;
    dram::DramSystem dram(dimmConfig(50'000, 100'000), clock);
    const auto spot = findSpot(dram);
    ASSERT_TRUE(spot.has_value());
    fillRow(dram, spot->row, ~0ull);
    const dram::AddressMapping &map = dram.mapping();
    // Aggressors two and three rows away: disturbance reaches only
    // the adjacent rows, so the victim takes none.
    EXPECT_FALSE(flipsSpot(
        dram.hammer({map.address(spot->bank, spot->row + 2),
                     map.address(spot->bank, spot->row + 3)},
                    250'000),
        *spot));
    // The same burst one row closer flips the victim's cell.
    EXPECT_TRUE(flipsSpot(
        dram.hammer({map.address(spot->bank, spot->row + 1),
                     map.address(spot->bank, spot->row + 2)},
                    250'000),
        *spot));
}

TEST(CoResidentVm, ForeignEptPagePassesFormatButFailsValidation)
{
    // Section 4.3: "for a simple VM escape, the attacker requires
    // that the EPT page it accesses describes the address space of
    // its own VM" -- a flip exposing another VM's EPT page is a
    // failed attempt, and validation is what tells the attacker so.
    base::SimClock clock;
    dram::DramConfig dram_cfg;
    dram_cfg.totalBytes = 512_MiB;
    dram_cfg.fault.weakCellsPerRow = 0;
    dram::DramSystem dram(dram_cfg, clock);
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = 512_MiB / kPageSize;
    mm::BuddyAllocator buddy(buddy_cfg);

    vm::VmConfig cfg;
    cfg.bootMemBytes = 16_MiB;
    cfg.virtioMemRegionSize = 128_MiB;
    cfg.virtioMemPlugged = 64_MiB;
    vm::VirtualMachine attacker(dram, buddy, cfg, 1);
    vm::VirtualMachine victim(dram, buddy, cfg, 2);

    // Spray both VMs so each has plenty of EPT pages.
    attack::PageSteering steer_a(attacker, clock,
                                 attack::SteeringConfig{});
    steer_a.sprayEptes(attacker.memorySize(), {});
    attack::PageSteering steer_v(victim, clock,
                                 attack::SteeringConfig{});
    steer_v.sprayEptes(victim.memorySize(), {});

    attack::Exploiter exploiter(attacker, clock,
                                attack::ExploitConfig{});
    exploiter.markPages(attacker.hugePageGpas());

    // Induce the unlucky flip: the attacker's EPTE now exposes the
    // VICTIM's last PT page.
    const Pfn own_pt =
        attacker.mmu().eptPageFrames()[attacker.mmu()
                                           .eptPageFrames()
                                           .size() - 2];
    const Pfn victim_pt = victim.mmu().eptPageFrames().back();
    dram.backend().write64(
        HostPhysAddr(own_pt * kPageSize + 3 * 8),
        kvm::EptEntry::leaf4k(victim_pt, false).raw());

    const auto changed = exploiter.detectMappingChanges();
    ASSERT_EQ(changed.size(), 1u);
    // It LOOKS like an EPT page...
    EXPECT_TRUE(exploiter.looksLikeEptPage(changed[0]));

    // The victim's PT page is full: none of its 512 entries is empty.
    const auto victim_entry = [&](unsigned index) {
        return dram.backend().read64(
            HostPhysAddr(victim_pt * kPageSize + index * 8));
    };
    std::vector<uint64_t> victim_entries;
    for (unsigned i = 0; i < kEntriesPerTable; ++i) {
        victim_entries.push_back(victim_entry(i));
        ASSERT_NE(victim_entries.back(), 0u) << "entry " << i;
    }

    // Price one guest read and one guest write of the exposed page,
    // and one rescan, by the virtual time each charges.
    base::SimTime mark = clock.now();
    const auto word = attacker.read64(changed[0]);
    ASSERT_TRUE(word.ok());
    const base::SimTime read_cost = clock.now() - mark;
    mark = clock.now();
    ASSERT_TRUE(attacker.write64(changed[0], *word).ok());
    const base::SimTime write_cost = clock.now() - mark;
    mark = clock.now();
    EXPECT_TRUE(exploiter.detectMappingChanges().empty());
    const base::SimTime rescan_cost = clock.now() - mark;
    ASSERT_GT(rescan_cost, 0u);

    // ...but toggling its entries moves none of the attacker's own
    // magic markers: validation correctly rejects it.
    mark = clock.now();
    EXPECT_FALSE(exploiter.validateAndEscalate(changed[0]).ok());
    const base::SimTime spent = clock.now() - mark;
    // It reads all 512 entries, toggles and restores each (1,024
    // writes), and rescans once per batch of 16 toggled entries: 32
    // rescans.
    const base::SimTime rescan_time = spent
        - kEntriesPerTable * read_cost - 2 * kEntriesPerTable * write_cost;
    EXPECT_EQ(rescan_time, 32 * rescan_cost)
        << "rescans: " << static_cast<double>(rescan_time) / rescan_cost;

    // The victim VM was collaterally corrupted while validation
    // probed, but the attacker restored every entry it toggled.
    for (unsigned i = 0; i < kEntriesPerTable; ++i)
        EXPECT_EQ(victim_entry(i), victim_entries[i]) << "entry " << i;
}

TEST(MultiVm, StressCreateDestroyKeepsHostConsistent)
{
    base::SimClock clock;
    dram::DramConfig dram_cfg;
    dram_cfg.totalBytes = 1_GiB;
    dram_cfg.fault.weakCellsPerRow = 0.001;
    dram::DramSystem dram(dram_cfg, clock);
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = 1_GiB / kPageSize;
    mm::BuddyAllocator buddy(buddy_cfg);
    buddy.drainPcp();
    const uint64_t free_before = buddy.freePages();

    base::Rng rng(77);
    std::vector<std::unique_ptr<vm::VirtualMachine>> machines;
    uint16_t next_id = 1;
    for (int step = 0; step < 60; ++step) {
        const bool create = machines.empty()
            || (machines.size() < 4 && rng.chance(0.5));
        if (create) {
            vm::VmConfig cfg;
            cfg.bootMemBytes = 16_MiB;
            cfg.virtioMemRegionSize = 256_MiB;
            cfg.virtioMemPlugged =
                (16 + rng.below(48)) * kHugePageSize;
            machines.push_back(
                std::make_unique<vm::VirtualMachine>(dram, buddy, cfg,
                                                     next_id++));
        } else {
            const size_t idx = rng.below(machines.size());
            // Exercise the machine a little before killing it.
            auto &machine = *machines[idx];
            (void)machine.execute(vm::kVirtioMemRegionStart);
            machine.memDriver().setSuppressAutoPlug(true);
            (void)machine.memDriver().unplugSpecific(
                machine.memDevice_().subBlockGpa(3));
            // hh-lint: allow(status-discard) -- churn fuzzing; some calls legitimately fail depending on prior steps
            (void)machine.iommuMap(0, IoVirtAddr(4_GiB),
                                   GuestPhysAddr(0));
            machines.erase(machines.begin() + idx);
        }
        if (step % 10 == 0)
            buddy.checkConsistency();
    }
    machines.clear();
    buddy.drainPcp();
    EXPECT_EQ(buddy.freePages(), free_before);
    buddy.checkConsistency();
}

} // namespace
} // namespace hh
