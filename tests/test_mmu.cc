/**
 * @file
 * Tests of the KVM MMU: EPT construction and walking, the NX-hugepage
 * iTLB-Multihit countermeasure (the Page Steering primitive), and the
 * fact that translations honour Rowhammer-corrupted entries.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/sim_clock.h"
#include "dram/dram_system.h"
#include "kvm/mmu.h"
#include "mm/buddy_allocator.h"

namespace hh::kvm {
namespace {

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest()
    {
        dram::DramConfig dram_cfg;
        dram_cfg.totalBytes = 256_MiB;
        dram_cfg.fault.weakCellsPerRow = 0; // no spurious flips
        dram = std::make_unique<dram::DramSystem>(dram_cfg, clock);
        mm::BuddyConfig buddy_cfg;
        buddy_cfg.totalPages = 256_MiB / kPageSize;
        buddy_cfg.pcp.highWatermark = 0;
        buddy = std::make_unique<mm::BuddyAllocator>(buddy_cfg);
    }

    std::unique_ptr<Mmu>
    makeMmu(MmuConfig cfg = {})
    {
        return std::make_unique<Mmu>(*dram, *buddy, cfg, /*owner=*/1);
    }

    /** Allocate a 2 MB host block for backing. */
    HostPhysAddr
    hostBlock()
    {
        auto block = buddy->allocPages(9, mm::MigrateType::Movable,
                                       mm::PageUse::GuestMemory, 1);
        EXPECT_TRUE(block.ok());
        blocks.push_back(*block);
        return HostPhysAddr(*block * kPageSize);
    }

    base::SimClock clock;
    std::unique_ptr<dram::DramSystem> dram;
    std::unique_ptr<mm::BuddyAllocator> buddy;
    std::vector<Pfn> blocks;
};

TEST_F(MmuTest, RootAllocatedAsUnmovableEptPage)
{
    auto mmu = makeMmu();
    EXPECT_EQ(mmu->eptPageCount(), 1u);
    const mm::PageFrame &frame = buddy->frame(mmu->rootFrame());
    EXPECT_EQ(frame.use, mm::PageUse::EptPage);
    EXPECT_EQ(frame.migrateType, mm::MigrateType::Unmovable);
    EXPECT_EQ(frame.owner, 1u);
}

TEST_F(MmuTest, Map2mTranslates)
{
    auto mmu = makeMmu();
    const HostPhysAddr backing = hostBlock();
    const GuestPhysAddr gpa(4_GiB);
    ASSERT_TRUE(mmu->map2m(gpa, backing).ok());
    // Walking created PML4->PDPT->PD: 3 pages beyond nothing (root
    // pre-exists), so 3 total table pages.
    EXPECT_EQ(mmu->eptPageCount(), 3u);

    auto hpa = mmu->translate(gpa + 0x1234);
    ASSERT_TRUE(hpa.ok());
    EXPECT_EQ(hpa->value(), backing.value() + 0x1234);
    // Offsets across the whole 2 MB leaf.
    auto last = mmu->translate(gpa + kHugePageSize - 8);
    ASSERT_TRUE(last.ok());
    EXPECT_EQ(last->value(), backing.value() + kHugePageSize - 8);
}

TEST_F(MmuTest, Map2mRejectsMisaligned)
{
    auto mmu = makeMmu();
    EXPECT_FALSE(mmu->map2m(GuestPhysAddr(kPageSize),
                            hostBlock()).ok());
    EXPECT_FALSE(mmu->map2m(GuestPhysAddr(0),
                            HostPhysAddr(kPageSize)).ok());
}

TEST_F(MmuTest, Map2mRejectsDouble)
{
    auto mmu = makeMmu();
    ASSERT_TRUE(mmu->map2m(GuestPhysAddr(0), hostBlock()).ok());
    EXPECT_EQ(mmu->map2m(GuestPhysAddr(0), hostBlock()).error(),
              base::ErrorCode::Exists);
}

TEST_F(MmuTest, TranslateUnmappedFails)
{
    auto mmu = makeMmu();
    EXPECT_EQ(mmu->translate(GuestPhysAddr(1_GiB)).error(),
              base::ErrorCode::NotFound);
}

TEST_F(MmuTest, NxHugePageDeniesExecThenDemotes)
{
    auto mmu = makeMmu(); // countermeasure on by default
    const HostPhysAddr backing = hostBlock();
    const GuestPhysAddr gpa(2_GiB);
    ASSERT_TRUE(mmu->map2m(gpa, backing).ok());

    auto leaf = mmu->leafEntry(gpa);
    ASSERT_TRUE(leaf.ok());
    EXPECT_TRUE(leaf->largePage());
    EXPECT_FALSE(leaf->executable());

    // Reads and writes pass through.
    EXPECT_TRUE(mmu->access(gpa, Access::Read).status.ok());
    EXPECT_TRUE(mmu->access(gpa, Access::Write).status.ok());

    const uint64_t pages_before = mmu->eptPageCount();
    const AccessResult exec = mmu->access(gpa + 0x100, Access::Exec);
    EXPECT_TRUE(exec.status.ok());
    EXPECT_TRUE(exec.demotedHugePage);
    EXPECT_EQ(exec.hpa.value(), backing.value() + 0x100);
    // Exactly one new EPT page: the Page Steering primitive.
    EXPECT_EQ(mmu->eptPageCount(), pages_before + 1);
    EXPECT_EQ(mmu->demotions(), 1u);

    // The leaf is now a 4 KB entry, executable, same frame.
    auto new_leaf = mmu->leafEntry(gpa + 0x100);
    ASSERT_TRUE(new_leaf.ok());
    EXPECT_FALSE(new_leaf->largePage());
    EXPECT_TRUE(new_leaf->executable());

    // Translation is unchanged for every page of the old hugepage.
    for (uint64_t off = 0; off < kHugePageSize; off += kPageSize) {
        auto hpa = mmu->translate(gpa + off);
        ASSERT_TRUE(hpa.ok());
        EXPECT_EQ(hpa->value(), backing.value() + off);
    }

    // A second exec does not demote again.
    const AccessResult again = mmu->access(gpa, Access::Exec);
    EXPECT_TRUE(again.status.ok());
    EXPECT_FALSE(again.demotedHugePage);
    EXPECT_EQ(mmu->demotions(), 1u);
}

TEST_F(MmuTest, WithoutCountermeasureExecNeedsNoDemotion)
{
    MmuConfig cfg;
    cfg.nxHugePages = false;
    auto mmu = makeMmu(cfg);
    ASSERT_TRUE(mmu->map2m(GuestPhysAddr(0), hostBlock()).ok());
    const uint64_t pages_before = mmu->eptPageCount();
    const AccessResult exec = mmu->access(GuestPhysAddr(0),
                                          Access::Exec);
    EXPECT_TRUE(exec.status.ok());
    EXPECT_FALSE(exec.demotedHugePage);
    // No new EPT page: Page Steering has nothing to harvest.
    EXPECT_EQ(mmu->eptPageCount(), pages_before);
}

TEST_F(MmuTest, ErratumWithoutCountermeasureMachineChecks)
{
    MmuConfig cfg;
    cfg.nxHugePages = false;
    auto mmu = makeMmu(cfg);
    ASSERT_TRUE(mmu->map2m(GuestPhysAddr(0), hostBlock()).ok());
    const base::Status status =
        mmu->execDuringPageSizeChange(GuestPhysAddr(0));
    EXPECT_EQ(status.error(), base::ErrorCode::Fault);
    EXPECT_EQ(mmu->machineChecks(), 1u);
}

TEST_F(MmuTest, CountermeasurePreventsMachineCheck)
{
    auto mmu = makeMmu();
    ASSERT_TRUE(mmu->map2m(GuestPhysAddr(0), hostBlock()).ok());
    const base::Status status =
        mmu->execDuringPageSizeChange(GuestPhysAddr(0));
    EXPECT_NE(status.error(), base::ErrorCode::Fault);
    EXPECT_EQ(mmu->machineChecks(), 0u);
}

TEST_F(MmuTest, LeafFramesFor2mAnd4k)
{
    auto mmu = makeMmu();
    const HostPhysAddr backing = hostBlock();
    const GuestPhysAddr gpa(16_MiB);
    ASSERT_TRUE(mmu->map2m(gpa, backing).ok());
    Mmu::LeafFrames frames;
    mmu->leafFrames(gpa, frames);
    for (unsigned i = 0; i < kEntriesPerTable; ++i)
        EXPECT_EQ(frames[i], backing.pfn() + i);

    // After demotion the frames are identical.
    (void)mmu->access(gpa, Access::Exec);
    mmu->leafFrames(gpa, frames);
    for (unsigned i = 0; i < kEntriesPerTable; ++i)
        EXPECT_EQ(frames[i], backing.pfn() + i);

    // Unmapped range: all invalid.
    mmu->leafFrames(GuestPhysAddr(1_GiB), frames);
    for (Pfn pfn : frames)
        EXPECT_EQ(pfn, kInvalidPfn);
}

TEST_F(MmuTest, TranslationHonoursCorruptedEntries)
{
    auto mmu = makeMmu();
    const HostPhysAddr backing = hostBlock();
    const GuestPhysAddr gpa(32_MiB);
    ASSERT_TRUE(mmu->map2m(gpa, backing).ok());
    (void)mmu->access(gpa, Access::Exec); // demote to 4 KB entries

    // Rowhammer-style corruption: flip PFN bit 21 of the first PTE
    // directly in DRAM, behind the MMU's back.
    const Pfn pt = mmu->eptPageFrames().back();
    const HostPhysAddr pte_addr(pt * kPageSize);
    dram->backend().flipBit(pte_addr, 21);

    auto hpa = mmu->translate(gpa);
    ASSERT_TRUE(hpa.ok());
    EXPECT_EQ(hpa->pfn(), backing.pfn() ^ (1ull << 9));
}

TEST_F(MmuTest, DestructorReturnsTablePages)
{
    const uint64_t free_before = buddy->freePages();
    {
        auto mmu = makeMmu();
        ASSERT_TRUE(mmu->map2m(GuestPhysAddr(0), hostBlock()).ok());
        EXPECT_LT(buddy->freePages(), free_before);
        // Give back the guest block before the MMU dies.
        buddy->freePages(blocks.back(), 9);
        blocks.pop_back();
    }
    buddy->drainPcp();
    EXPECT_EQ(buddy->freePages(), free_before);
}

TEST_F(MmuTest, HostInitiatedSplitMatchesExecDemotion)
{
    auto mmu = makeMmu();
    const HostPhysAddr backing = hostBlock();
    const GuestPhysAddr gpa(64_MiB);
    ASSERT_TRUE(mmu->map2m(gpa, backing).ok());
    const uint64_t before = mmu->eptPageCount();
    ASSERT_TRUE(mmu->splitHugePage(gpa).ok());
    EXPECT_EQ(mmu->eptPageCount(), before + 1);
    auto leaf = mmu->leafEntry(gpa);
    ASSERT_TRUE(leaf.ok());
    EXPECT_FALSE(leaf->largePage());
    // Idempotent on already-split ranges.
    EXPECT_TRUE(mmu->splitHugePage(gpa).ok());
    EXPECT_EQ(mmu->eptPageCount(), before + 1);
    // Unmapped ranges report NotFound.
    EXPECT_FALSE(mmu->splitHugePage(GuestPhysAddr(1_GiB)).ok());
}

TEST_F(MmuTest, WriteProtectionAndRemap)
{
    auto mmu = makeMmu();
    const HostPhysAddr backing = hostBlock();
    const GuestPhysAddr gpa(64_MiB);
    ASSERT_TRUE(mmu->map2m(gpa, backing).ok());
    // Leaf-granular ops need 4 KB granularity.
    EXPECT_FALSE(mmu->setLeafWritable(gpa, false).ok());
    ASSERT_TRUE(mmu->splitHugePage(gpa).ok());

    ASSERT_TRUE(mmu->setLeafWritable(gpa, false).ok());
    EXPECT_EQ(mmu->access(gpa, Access::Write).status.error(),
              base::ErrorCode::Denied);
    EXPECT_TRUE(mmu->access(gpa, Access::Read).status.ok());
    ASSERT_TRUE(mmu->setLeafWritable(gpa, true).ok());
    EXPECT_TRUE(mmu->access(gpa, Access::Write).status.ok());

    // Remap one page elsewhere; neighbours keep their frames.
    ASSERT_TRUE(mmu->remapLeaf4k(gpa, backing.pfn() + 100, true).ok());
    EXPECT_EQ(mmu->translate(gpa)->pfn(), backing.pfn() + 100);
    EXPECT_EQ(mmu->translate(gpa + kPageSize)->pfn(),
              backing.pfn() + 1);
}

TEST_F(MmuTest, DemotionFailsCleanlyWhenHostIsFull)
{
    auto mmu = makeMmu();
    const HostPhysAddr backing = hostBlock();
    const GuestPhysAddr gpa(64_MiB);
    ASSERT_TRUE(mmu->map2m(gpa, backing).ok());

    // Hog every remaining frame.
    std::vector<std::pair<Pfn, unsigned>> hog;
    for (int order = mm::kMaxOrder - 1; order >= 0; --order) {
        while (true) {
            auto block = buddy->allocPages(
                order, mm::MigrateType::Unmovable,
                mm::PageUse::KernelData);
            if (!block.ok())
                break;
            hog.push_back({*block, static_cast<unsigned>(order)});
        }
    }
    buddy->drainPcp();
    while (true) {
        auto page = buddy->allocPages(0, mm::MigrateType::Unmovable,
                                      mm::PageUse::KernelData);
        if (!page.ok())
            break;
        hog.push_back({*page, 0});
    }

    const AccessResult exec = mmu->access(gpa, Access::Exec);
    EXPECT_EQ(exec.status.error(), base::ErrorCode::NoMemory);
    EXPECT_FALSE(exec.demotedHugePage);
    // The 2 MB mapping is still intact.
    EXPECT_TRUE(mmu->translate(gpa).ok());
    for (const auto &[pfn, order] : hog)
        buddy->freePages(pfn, order);
}

TEST_F(MmuTest, XenStylePolicyUsesAnyList)
{
    // Park a movable order-0 block on the lists; a Xen-style MMU
    // grabs it for a table page even though tables are "unmovable"
    // allocations under KVM policy.
    auto movable = buddy->allocPages(0, mm::MigrateType::Movable,
                                     mm::PageUse::KernelData);
    ASSERT_TRUE(movable.ok());
    buddy->freePages(*movable, 0);

    MmuConfig cfg;
    cfg.tableAlloc = TableAllocPolicy::AnyList;
    auto mmu = makeMmu(cfg);
    EXPECT_EQ(mmu->rootFrame(), *movable);
}

} // namespace
} // namespace hh::kvm
