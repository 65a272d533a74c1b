/**
 * @file
 * Tests of the buddy allocator: split/coalesce correctness, the
 * per-migratetype policies Page Steering depends on, the PCP
 * front-end, and a randomized consistency property sweep.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/rng.h"
#include "mm/buddy_allocator.h"

namespace hh::mm {
namespace {

BuddyConfig
config(uint64_t pages, unsigned pcp_high = 0)
{
    BuddyConfig cfg;
    cfg.totalPages = pages;
    cfg.pcp.highWatermark = pcp_high;
    cfg.pcp.batch = 63;
    return cfg;
}

TEST(Buddy, AllFreeAfterConstruction)
{
    BuddyAllocator buddy(config(4096));
    EXPECT_EQ(buddy.freePages(), 4096u);
    const PageTypeInfo info = buddy.pageTypeInfo();
    // Everything sits in max-order movable blocks.
    EXPECT_EQ(info.blockCount(MigrateType::Movable, kMaxOrder - 1), 4u);
    EXPECT_EQ(info.totalPages(MigrateType::Movable), 4096u);
    buddy.checkConsistency();
}

TEST(Buddy, AllocAndFreeRestoresEverything)
{
    BuddyAllocator buddy(config(4096));
    auto page = buddy.allocPages(0, MigrateType::Movable,
                                 PageUse::KernelData);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(buddy.freePages(), 4095u);
    EXPECT_FALSE(buddy.frame(*page).free);
    EXPECT_EQ(buddy.frame(*page).use, PageUse::KernelData);
    buddy.freePages(*page, 0);
    EXPECT_EQ(buddy.freePages(), 4096u);
    // Full coalescing back to a single max-order view.
    EXPECT_EQ(buddy.pageTypeInfo().blockCount(MigrateType::Movable,
                                              kMaxOrder - 1),
              4u);
    buddy.checkConsistency();
}

TEST(Buddy, SplitPrefersSmallestSufficientBlock)
{
    BuddyAllocator buddy(config(4096));
    // Allocate order-0: leaves remainders at orders 0..9.
    auto first = buddy.allocPages(0, MigrateType::Movable,
                                  PageUse::KernelData);
    ASSERT_TRUE(first.ok());
    const PageTypeInfo info = buddy.pageTypeInfo();
    for (unsigned order = 0; order < kMaxOrder - 1; ++order)
        EXPECT_EQ(info.blockCount(MigrateType::Movable, order), 1u)
            << "order " << order;
    // Next order-0 allocation must consume the order-0 remainder,
    // not split anything further.
    auto second = buddy.allocPages(0, MigrateType::Movable,
                                   PageUse::KernelData);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(buddy.pageTypeInfo().blockCount(MigrateType::Movable, 0),
              0u);
    EXPECT_EQ(*second, *first ^ 1u);
}

TEST(Buddy, HigherOrderAllocationAligned)
{
    BuddyAllocator buddy(config(4096));
    for (unsigned order = 1; order < kMaxOrder; ++order) {
        auto block = buddy.allocPages(order, MigrateType::Movable,
                                      PageUse::GuestMemory);
        ASSERT_TRUE(block.ok());
        EXPECT_EQ(*block & ((1ull << order) - 1), 0u);
        buddy.freePages(*block, order);
    }
    buddy.checkConsistency();
}

TEST(Buddy, MigrateTypesKeepSeparateLists)
{
    BuddyAllocator buddy(config(4096));
    auto unmovable = buddy.allocPages(0, MigrateType::Unmovable,
                                      PageUse::KernelData);
    ASSERT_TRUE(unmovable.ok());
    const PageTypeInfo info = buddy.pageTypeInfo();
    // The stolen block's remainders live on the unmovable lists now.
    EXPECT_GT(info.totalPages(MigrateType::Unmovable), 0u);
    EXPECT_EQ(buddy.frame(*unmovable).migrateType,
              MigrateType::Unmovable);
}

TEST(Buddy, StealTakesLargestBlock)
{
    BuddyAllocator buddy(config(4096));
    // Unmovable request with empty unmovable lists: steal a max-order
    // movable block and convert it.
    auto page = buddy.allocPages(0, MigrateType::Unmovable,
                                 PageUse::KernelData);
    ASSERT_TRUE(page.ok());
    const PageTypeInfo info = buddy.pageTypeInfo();
    EXPECT_EQ(info.blockCount(MigrateType::Movable, kMaxOrder - 1), 3u);
    EXPECT_EQ(info.totalPages(MigrateType::Unmovable), 1023u);
    buddy.checkConsistency();
}

TEST(Buddy, CoalescingRequiresSameMigrateType)
{
    BuddyAllocator buddy(config(4096));
    auto a = buddy.allocPages(0, MigrateType::Movable,
                              PageUse::KernelData);
    ASSERT_TRUE(a.ok());
    auto b = buddy.allocPages(0, MigrateType::Movable,
                              PageUse::KernelData);
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(*b, *a ^ 1u); // buddies
    // Free one as unmovable, one as movable: they must not merge.
    buddy.freePagesAs(*a, 0, MigrateType::Unmovable);
    buddy.freePagesAs(*b, 0, MigrateType::Movable);
    const PageTypeInfo info = buddy.pageTypeInfo();
    EXPECT_EQ(info.blockCount(MigrateType::Unmovable, 0), 1u);
    EXPECT_EQ(info.blockCount(MigrateType::Movable, 0), 1u);
    buddy.checkConsistency();
}

TEST(Buddy, FreePagesAsRetypesBlock)
{
    BuddyAllocator buddy(config(4096));
    auto block = buddy.allocPages(9, MigrateType::Movable,
                                  PageUse::GuestMemory);
    ASSERT_TRUE(block.ok());
    // The virtio-mem release path: VFIO-pinned guest memory frees as
    // an order-9 MIGRATE_UNMOVABLE block (Section 4.2.2).
    buddy.freePagesAs(*block, 9, MigrateType::Unmovable);
    const PageTypeInfo info = buddy.pageTypeInfo();
    EXPECT_GE(info.blockCount(MigrateType::Unmovable, 9), 1u);
    EXPECT_EQ(buddy.frame(*block).migrateType, MigrateType::Unmovable);
    buddy.checkConsistency();
}

TEST(Buddy, OutOfMemory)
{
    BuddyAllocator buddy(config(1024));
    std::vector<Pfn> pages;
    while (true) {
        auto page = buddy.allocPages(0, MigrateType::Movable,
                                     PageUse::KernelData);
        if (!page.ok()) {
            EXPECT_EQ(page.error(), base::ErrorCode::NoMemory);
            break;
        }
        pages.push_back(*page);
    }
    EXPECT_EQ(pages.size(), 1024u);
    EXPECT_EQ(buddy.freePages(), 0u);
    for (Pfn pfn : pages)
        buddy.freePages(pfn, 0);
    EXPECT_EQ(buddy.freePages(), 1024u);
    buddy.checkConsistency();
}

TEST(Buddy, PcpParksAndServesOrderZero)
{
    BuddyAllocator buddy(config(4096, /*pcp_high=*/186));
    auto page = buddy.allocPages(0, MigrateType::Movable,
                                 PageUse::KernelData);
    ASSERT_TRUE(page.ok());
    // The refill pulled a batch into the PCP.
    EXPECT_EQ(buddy.pcpCount(), 62u);
    // A free parks in the PCP rather than the buddy lists.
    buddy.freePages(*page, 0);
    EXPECT_EQ(buddy.pcpCount(), 63u);
    // The next allocation is served from the PCP (same page, LIFO).
    auto again = buddy.allocPages(0, MigrateType::Movable,
                                  PageUse::KernelData);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *page);
    buddy.freePages(*again, 0);
    buddy.drainPcp();
    EXPECT_EQ(buddy.pcpCount(), 0u);
    EXPECT_EQ(buddy.freePages(), 4096u);
    buddy.checkConsistency();
}

TEST(Buddy, PcpDrainsOnHighWatermark)
{
    BuddyAllocator buddy(config(4096, /*pcp_high=*/64));
    std::vector<Pfn> pages;
    for (int i = 0; i < 200; ++i) {
        auto page = buddy.allocPages(0, MigrateType::Movable,
                                     PageUse::KernelData);
        ASSERT_TRUE(page.ok());
        pages.push_back(*page);
    }
    for (Pfn pfn : pages)
        buddy.freePages(pfn, 0);
    EXPECT_LE(buddy.pcpCount(), 64u + 63u);
    buddy.checkConsistency();
}

TEST(Buddy, DrainOnAllocationPressure)
{
    // Allocate everything order-0 with PCP on, free it all (parking
    // some), then ask for a big block: the allocator must drain the
    // PCP to satisfy it.
    BuddyAllocator buddy(config(1024, /*pcp_high=*/186));
    std::vector<Pfn> pages;
    while (true) {
        auto page = buddy.allocPages(0, MigrateType::Movable,
                                     PageUse::KernelData);
        if (!page.ok())
            break;
        pages.push_back(*page);
    }
    for (Pfn pfn : pages)
        buddy.freePages(pfn, 0);
    ASSERT_GT(buddy.pcpCount(), 0u);
    auto block = buddy.allocPages(kMaxOrder - 1, MigrateType::Movable,
                                  PageUse::GuestMemory);
    EXPECT_TRUE(block.ok());
    buddy.checkConsistency();
}

TEST(Buddy, AnyTypeAllocationIgnoresMigrateTypes)
{
    BuddyAllocator buddy(config(4096));
    // Put a small unmovable block on the lists.
    auto unmovable = buddy.allocPages(0, MigrateType::Unmovable,
                                      PageUse::KernelData);
    ASSERT_TRUE(unmovable.ok());
    buddy.freePages(*unmovable, 0);
    // Xen-style allocation takes the smallest block anywhere -- the
    // order-0 unmovable one, not a split of a movable giant.
    auto page = buddy.allocPagesAnyType(0, PageUse::EptPage);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page, *unmovable);
}

TEST(Buddy, SetUseAndPinning)
{
    BuddyAllocator buddy(config(4096));
    auto page = buddy.allocPages(0, MigrateType::Movable,
                                 PageUse::GuestMemory, /*owner=*/7);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(buddy.frame(*page).owner, 7u);
    buddy.setUse(*page, PageUse::DmaBuffer, 7);
    EXPECT_EQ(buddy.frame(*page).use, PageUse::DmaBuffer);
    buddy.setPinned(*page, true);
    EXPECT_TRUE(buddy.frame(*page).pinned);
    buddy.setPinned(*page, false);
    buddy.freePages(*page, 0);
}

TEST(BuddyDeath, FreeingPinnedPagePanics)
{
    BuddyAllocator buddy(config(4096));
    auto page = buddy.allocPages(0, MigrateType::Movable,
                                 PageUse::GuestMemory);
    ASSERT_TRUE(page.ok());
    buddy.setPinned(*page, true);
    EXPECT_DEATH(buddy.freePages(*page, 0), "assertion");
}

TEST(Buddy, PinRangeSetsEveryFieldInsideTheRangeOnly)
{
    BuddyAllocator buddy(config(4096));
    // Pin nine frames in the middle of a sixteen-frame block.
    auto low = buddy.allocPages(4, MigrateType::Movable,
                                PageUse::KernelData, /*owner=*/2);
    ASSERT_TRUE(low.ok());
    const Pfn first = *low + 2;
    const uint64_t count = 9;
    buddy.pinRange(first, count, PageUse::GuestMemory, 9);
    for (Pfn pfn = *low; pfn < *low + 16; ++pfn) {
        const PageFrame &frame = buddy.frame(pfn);
        if (pfn >= first && pfn < first + count) {
            EXPECT_TRUE(frame.pinned) << pfn;
            EXPECT_EQ(frame.migrateType, MigrateType::Unmovable) << pfn;
            EXPECT_EQ(frame.use, PageUse::GuestMemory) << pfn;
            EXPECT_EQ(frame.owner, 9u) << pfn;
        } else {
            EXPECT_FALSE(frame.pinned) << pfn;
            EXPECT_EQ(frame.migrateType, MigrateType::Movable) << pfn;
            EXPECT_EQ(frame.use, PageUse::KernelData) << pfn;
            EXPECT_EQ(frame.owner, 2u) << pfn;
        }
    }
}

TEST(Buddy, UnpinRangeClearsOnlyPinned)
{
    BuddyAllocator buddy(config(4096));
    auto block = buddy.allocPages(2, MigrateType::Movable,
                                  PageUse::KernelData);
    ASSERT_TRUE(block.ok());
    buddy.pinRange(*block, 4, PageUse::GuestMemory, 5);
    buddy.unpinRange(*block + 1, 2);
    for (Pfn pfn = *block; pfn < *block + 4; ++pfn) {
        const PageFrame &frame = buddy.frame(pfn);
        EXPECT_EQ(frame.pinned, pfn == *block || pfn == *block + 3)
            << pfn;
        EXPECT_EQ(frame.migrateType, MigrateType::Unmovable) << pfn;
        EXPECT_EQ(frame.use, PageUse::GuestMemory) << pfn;
        EXPECT_EQ(frame.owner, 5u) << pfn;
    }
    buddy.unpinRange(*block, 4);
    buddy.freePages(*block, 2);
}

TEST(BuddyDeath, FreeingRangePinnedPagePanics)
{
    BuddyAllocator buddy(config(4096));
    auto page = buddy.allocPages(0, MigrateType::Movable,
                                 PageUse::GuestMemory);
    ASSERT_TRUE(page.ok());
    buddy.pinRange(*page, 1, PageUse::GuestMemory, 0);
    EXPECT_DEATH(buddy.freePages(*page, 0), "assertion");
}

TEST(BuddyDeath, PinningAFreePagePanics)
{
    BuddyAllocator buddy(config(4096));
    EXPECT_DEATH(buddy.pinRange(0, 1, PageUse::GuestMemory, 0),
                 "assertion");
    EXPECT_DEATH(buddy.unpinRange(0, 1), "assertion");
}

TEST(BuddyDeath, DoubleFreePanics)
{
    BuddyAllocator buddy(config(4096, /*pcp off*/ 0));
    auto page = buddy.allocPages(0, MigrateType::Movable,
                                 PageUse::GuestMemory);
    ASSERT_TRUE(page.ok());
    buddy.freePages(*page, 0);
    EXPECT_DEATH(buddy.freePages(*page, 0), "assertion");
}

TEST(Buddy, PagesBelowOrderMetric)
{
    BuddyAllocator buddy(config(4096));
    auto page = buddy.allocPages(0, MigrateType::Unmovable,
                                 PageUse::KernelData);
    ASSERT_TRUE(page.ok());
    // The steal left orders 0..9 remainders: 1023 pages, of which the
    // order-9 block (512 pages) is NOT below order 9.
    const PageTypeInfo info = buddy.pageTypeInfo();
    EXPECT_EQ(info.pagesBelowOrder(MigrateType::Unmovable, 9), 511u);
    EXPECT_EQ(info.totalPages(MigrateType::Unmovable), 1023u);
}

/** Randomized property sweep: invariants hold under arbitrary mixes. */
class BuddyRandomOps : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(BuddyRandomOps, ConsistencyUnderRandomAllocFree)
{
    base::Rng rng(GetParam());
    BuddyAllocator buddy(config(8192, /*pcp_high=*/128));
    struct Block
    {
        Pfn pfn;
        unsigned order;
    };
    std::vector<Block> live;
    uint64_t live_pages = 0;

    for (int step = 0; step < 4'000; ++step) {
        const bool do_alloc = live.empty()
            || (rng.chance(0.55) && live_pages < 7'000);
        if (do_alloc) {
            const unsigned order = rng.below(6);
            const auto mt = static_cast<MigrateType>(rng.below(3));
            auto block = buddy.allocPages(order, mt,
                                          PageUse::KernelData);
            if (block.ok()) {
                live.push_back({*block, order});
                live_pages += 1ull << order;
            }
        } else {
            const size_t idx = rng.below(live.size());
            std::swap(live[idx], live.back());
            buddy.freePages(live.back().pfn, live.back().order);
            live_pages -= 1ull << live.back().order;
            live.pop_back();
        }
        if (step % 500 == 0)
            buddy.checkConsistency();
    }
    for (const Block &block : live)
        buddy.freePages(block.pfn, block.order);
    buddy.drainPcp();
    EXPECT_EQ(buddy.freePages(), 8192u);
    buddy.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyRandomOps,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

} // namespace
} // namespace hh::mm
