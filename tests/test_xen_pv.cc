/**
 * @file
 * Tests of the Xen PV direct-paging substrate and the Xiao et al.
 * baseline attack (Section 2.1): Xen's update validation holds
 * against hypercalls, and falls deterministically to one Rowhammer
 * flip in a guest-placed PMD.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "base/sim_clock.h"
#include "dram/dram_system.h"
#include "mm/buddy_allocator.h"
#include "xen/pv_domain.h"

namespace hh::xen {
namespace {

class XenPvTest : public ::testing::Test
{
  protected:
    XenPvTest()
    {
        dram::DramConfig dram_cfg;
        dram_cfg.totalBytes = 256_MiB;
        dram_cfg.fault.weakCellsPerRow = 0.02;
        dram_cfg.fault.stableFraction = 1.0;
        dram_cfg.fault.minThreshold = 50'000;
        dram_cfg.fault.maxThreshold = 150'000;
        dram = std::make_unique<dram::DramSystem>(dram_cfg, clock);
        mm::BuddyConfig buddy_cfg;
        buddy_cfg.totalPages = 256_MiB / kPageSize;
        buddy = std::make_unique<mm::BuddyAllocator>(buddy_cfg);
        domain = std::make_unique<PvDomain>(*dram, *buddy, 4'096, 1);
    }

    base::SimClock clock;
    std::unique_ptr<dram::DramSystem> dram;
    std::unique_ptr<mm::BuddyAllocator> buddy;
    std::unique_ptr<PvDomain> domain;
};

TEST_F(XenPvTest, DomainKnowsItsMachineFrames)
{
    ASSERT_EQ(domain->machineFrames().size(), 4'096u);
    for (Pfn frame : domain->machineFrames())
        EXPECT_TRUE(domain->owns(frame));
    // The domheap allocates from the top of memory; frame 0 belongs
    // to Xen.
    EXPECT_FALSE(domain->owns(0));
}

TEST_F(XenPvTest, PinValidatesAndProtects)
{
    const Pfn pt = domain->machineFrames()[0];
    const Pfn data = domain->machineFrames()[1];
    // An empty frame pins fine as a PT.
    ASSERT_TRUE(domain->pinPageTable(pt, PtLevel::Pt).ok());
    EXPECT_TRUE(domain->isPinned(pt));
    EXPECT_EQ(domain->pinPageTable(pt, PtLevel::Pt).error(),
              base::ErrorCode::Exists);

    // A frame with an entry pointing outside the domain (Xen's own
    // frame 0..7 range) is rejected.
    dram->backend().write64(HostPhysAddr(data * kPageSize),
                            (4ull << 12) | kPvPresent);
    EXPECT_EQ(domain->pinPageTable(data, PtLevel::Pt).error(),
              base::ErrorCode::Denied);
    EXPECT_GT(domain->rejectedUpdates(), 0u);
}

TEST_F(XenPvTest, MmuUpdateValidation)
{
    const Pfn pt = domain->machineFrames()[0];
    const Pfn owned_data = domain->machineFrames()[2];
    ASSERT_TRUE(domain->pinPageTable(pt, PtLevel::Pt).ok());

    // Mapping an owned frame is allowed.
    EXPECT_TRUE(domain
                    ->mmuUpdate(pt, 0,
                                (owned_data << 12) | kPvPresent
                                    | kPvWrite)
                    .ok());
    // Mapping a foreign frame (Xen's own memory) is denied.
    EXPECT_EQ(domain->mmuUpdate(pt, 1, (4ull << 12) | kPvPresent)
                  .error(),
              base::ErrorCode::Denied);
    // Writing an unpinned frame is invalid.
    EXPECT_EQ(domain->mmuUpdate(owned_data, 0, 0).error(),
              base::ErrorCode::InvalidArgument);
}

TEST_F(XenPvTest, PmdEntriesMustReferencePinnedPts)
{
    const Pfn pmd = domain->machineFrames()[0];
    const Pfn pt = domain->machineFrames()[1];
    ASSERT_TRUE(domain->pinPageTable(pmd, PtLevel::Pmd).ok());
    // PMD -> unpinned frame: denied.
    EXPECT_EQ(domain->mmuUpdate(pmd, 0, (pt << 12) | kPvPresent)
                  .error(),
              base::ErrorCode::Denied);
    ASSERT_TRUE(domain->pinPageTable(pt, PtLevel::Pt).ok());
    EXPECT_TRUE(
        domain->mmuUpdate(pmd, 0, (pt << 12) | kPvPresent).ok());
}

TEST_F(XenPvTest, DecreaseReservationReleasesToXenHeap)
{
    const Pfn frame = domain->machineFrames()[7];
    ASSERT_TRUE(domain->decreaseReservation(frame).ok());
    EXPECT_FALSE(domain->owns(frame));
    buddy->drainPcp(); // the free may be parked in the PCP
    EXPECT_TRUE(buddy->frame(frame).free);
    // Cannot release twice, cannot release pinned tables.
    EXPECT_FALSE(domain->decreaseReservation(frame).ok());
    const Pfn pt = domain->machineFrames()[0];
    ASSERT_TRUE(domain->pinPageTable(pt, PtLevel::Pt).ok());
    EXPECT_EQ(domain->decreaseReservation(pt).error(),
              base::ErrorCode::Busy);
}

TEST_F(XenPvTest, XiaoAttackIsDeterministic)
{
    // The 2016 baseline, end to end with real hammering:
    // 1. the PV guest knows machine addresses, so it finds a frame
    //    whose PMD-slot bit is vulnerable *by direct inspection of
    //    its own memory* (here: profile its frames with ground-truth
    //    hammering of adjacent rows it also owns -- determinism is
    //    the point, so use the fault oracle to pick the target);
    // Enumerate the domain's frames and the weak cells inside them:
    // the PV guest can do this because it sees machine addresses.
    const dram::AddressMapping &map = dram->mapping();
    std::optional<dram::WeakCell> cell;
    Pfn pmd = kInvalidPfn;
    Pfn forged_pt = kInvalidPfn;
    dram::BankId bank = 0;
    dram::RowId row = 0;
    for (Pfn frame : domain->machineFrames()) {
        const HostPhysAddr frame_addr(frame * kPageSize);
        const dram::RowId frame_row = map.rowOf(frame_addr);
        for (dram::BankId b = 0; b < map.bankCount() && !cell; ++b) {
            if (!dram->faultModel().rowIsWeak(b, frame_row))
                continue;
            for (const auto &candidate :
                 dram->faultModel().weakCellsInRow(b, frame_row)) {
                if (candidate.bitInWord() < 12
                    || candidate.bitInWord() > 20
                    || candidate.direction
                        != dram::FlipDirection::ZeroToOne
                    || !candidate.stable()) {
                    continue;
                }
                // Does the cell's address fall inside this frame?
                const HostPhysAddr addr =
                    map.address(b, frame_row, candidate.byteInRow);
                if (addr.pfn() != frame)
                    continue;
                // Find a forged-PT frame whose address differs from
                // an owned "reachable" frame in exactly the weak bit.
                const uint64_t bit = candidate.bitInWord() - 12;
                for (Pfn f : domain->machineFrames()) {
                    if (f == frame || !((f >> bit) & 1))
                        continue;
                    const Pfn reach = f & ~(1ull << bit);
                    if (reach != frame && domain->owns(reach)) {
                        cell = candidate;
                        pmd = frame;
                        forged_pt = f;
                        bank = b;
                        row = frame_row;
                        break;
                    }
                }
                if (cell)
                    break;
            }
        }
        if (cell)
            break;
    }
    if (!cell)
        GTEST_SKIP() << "no suitable weak cell among domain frames";

    const HostPhysAddr cell_addr = map.address(bank, row, cell->byteInRow);
    const unsigned slot =
        static_cast<unsigned>((cell_addr.value() % kPageSize) / 8);

    // 2. pin the vulnerable frame as a PMD, pin the pre-flip target
    //    as a legitimate PT, and write a forged PT (plain data from
    //    Xen's point of view) that maps Xen's secret frame.
    const Pfn secret = 4; // a Xen-owned frame the domain must not map
    const Pfn reachable =
        forged_pt & ~(1ull << (cell->bitInWord() - 12));
    ASSERT_TRUE(domain->pinPageTable(pmd, PtLevel::Pmd).ok());
    ASSERT_TRUE(domain->pinPageTable(reachable, PtLevel::Pt).ok());
    dram->backend().write64(HostPhysAddr(forged_pt * kPageSize),
                            (secret << 12) | kPvPresent | kPvWrite);
    ASSERT_TRUE(domain
                    ->mmuUpdate(pmd, slot,
                                (reachable << 12) | kPvPresent
                                    | kPvWrite)
                    .ok());

    // 3. hammer the adjacent rows (all attacker-owned knowledge) --
    //    deterministic: the stable cell fires on the first attempt.
    const auto events = dram->hammer(
        {map.address(bank, row + 1), map.address(bank, row + 2)}, 200'000);
    bool flipped = false;
    for (const auto &event : events) {
        flipped |= event.wordAddr.value() == (cell_addr.value() & ~7ull)
            && event.bitInWord == cell->bitInWord();
    }
    ASSERT_TRUE(flipped) << "the stable cell must fire";

    // 4. the walk now reaches Xen's secret frame through the forged
    //    PT -- no hypercall ever saw the forged mapping.
    auto resolved = domain->resolve(pmd, slot, 0);
    ASSERT_TRUE(resolved.ok());
    EXPECT_EQ(*resolved, secret);
    EXPECT_FALSE(domain->owns(secret));
}

} // namespace
} // namespace hh::xen
