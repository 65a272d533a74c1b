/**
 * @file
 * Tests of the vIOMMU/VFIO model: IOPT page consumption (the noise-
 * page exhaustion primitive), the per-group mapping limit, DMA
 * translation, and pinning.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/sim_clock.h"
#include "dram/dram_system.h"
#include "iommu/viommu.h"
#include "mm/buddy_allocator.h"

namespace hh::iommu {
namespace {

class IommuTest : public ::testing::Test
{
  protected:
    IommuTest()
    {
        dram::DramConfig dram_cfg;
        dram_cfg.totalBytes = 256_MiB;
        dram_cfg.fault.weakCellsPerRow = 0;
        dram = std::make_unique<dram::DramSystem>(dram_cfg, clock);
        mm::BuddyConfig buddy_cfg;
        buddy_cfg.totalPages = 256_MiB / kPageSize;
        buddy_cfg.pcp.highWatermark = 0;
        buddy = std::make_unique<mm::BuddyAllocator>(buddy_cfg);
    }

    VfioContainer
    container(IommuConfig cfg = {})
    {
        return VfioContainer(*dram, *buddy, cfg, /*owner=*/3);
    }

    base::SimClock clock;
    std::unique_ptr<dram::DramSystem> dram;
    std::unique_ptr<mm::BuddyAllocator> buddy;
};

TEST_F(IommuTest, MapTranslateUnmap)
{
    VfioContainer vfio = container();
    const GroupId group = vfio.addGroup();
    const IoVirtAddr iova(0x1'0000'0000ull);
    const HostPhysAddr target(0x5000);

    ASSERT_TRUE(vfio.mapDma(group, iova, target).ok());
    EXPECT_EQ(vfio.mappingCount(group), 1u);

    dram->write64(target + 0x18, 0xfeed);
    auto value = vfio.dmaRead64(group, iova + 0x18);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, 0xfeedu);

    ASSERT_TRUE(vfio.dmaWrite64(group, iova + 0x20, 0xbeef).ok());
    EXPECT_EQ(dram->backend().read64(target + 0x20), 0xbeefu);

    ASSERT_TRUE(vfio.unmapDma(group, iova).ok());
    EXPECT_EQ(vfio.mappingCount(group), 0u);
    EXPECT_FALSE(vfio.dmaRead64(group, iova).ok());
}

TEST_F(IommuTest, DoubleMapRejected)
{
    VfioContainer vfio = container();
    const GroupId group = vfio.addGroup();
    const IoVirtAddr iova(2_MiB);
    ASSERT_TRUE(vfio.mapDma(group, iova, HostPhysAddr(0x1000)).ok());
    EXPECT_EQ(vfio.mapDma(group, iova, HostPhysAddr(0x2000)).error(),
              base::ErrorCode::Exists);
}

TEST_F(IommuTest, TwoMbSpacedMappingsConsumeOneIoptPageEach)
{
    VfioContainer vfio = container();
    const GroupId group = vfio.addGroup();
    const uint64_t before = vfio.ioptPageCount();
    // 64 mappings spaced 2 MB apart: each lands in a fresh PT page
    // (Section 4.2.1, Figure 2).
    for (unsigned i = 0; i < 64; ++i) {
        const IoVirtAddr iova(4_GiB + i * kHugePageSize);
        ASSERT_TRUE(vfio.mapDma(group, iova, HostPhysAddr(0x3000)).ok());
    }
    const uint64_t consumed = vfio.ioptPageCount() - before;
    // 64 leaf pages plus at most a couple of upper-level tables.
    EXPECT_GE(consumed, 64u);
    EXPECT_LE(consumed, 67u);
}

TEST_F(IommuTest, DenseMappingsShareLeafPages)
{
    VfioContainer vfio = container();
    const GroupId group = vfio.addGroup();
    const uint64_t before = vfio.ioptPageCount();
    // 512 consecutive pages fit one leaf IOPT page.
    for (unsigned i = 0; i < 512; ++i) {
        ASSERT_TRUE(vfio.mapDma(group,
                                IoVirtAddr(8_GiB + i * kPageSize),
                                HostPhysAddr(0x4000))
                        .ok());
    }
    EXPECT_LE(vfio.ioptPageCount() - before, 4u);
}

TEST_F(IommuTest, IoptPagesAreUnmovableKernelAllocations)
{
    VfioContainer vfio = container();
    const GroupId group = vfio.addGroup();
    ASSERT_TRUE(
        vfio.mapDma(group, IoVirtAddr(2_MiB), HostPhysAddr(0x1000))
            .ok());
    // Find an IOPT frame and check its accounting.
    uint64_t found = 0;
    for (Pfn pfn = 0; pfn < buddy->totalPages(); ++pfn) {
        const mm::PageFrame &frame = buddy->frame(pfn);
        if (!frame.free && frame.use == mm::PageUse::IoptPage) {
            ++found;
            EXPECT_EQ(frame.migrateType, mm::MigrateType::Unmovable);
            EXPECT_EQ(frame.owner, 3u);
        }
    }
    EXPECT_GT(found, 0u);
}

TEST_F(IommuTest, MappingLimitPerGroup)
{
    IommuConfig cfg;
    cfg.maxMappingsPerGroup = 10;
    VfioContainer vfio = container(cfg);
    const GroupId group = vfio.addGroup();
    for (unsigned i = 0; i < 10; ++i) {
        ASSERT_TRUE(vfio.mapDma(group,
                                IoVirtAddr(i * kHugePageSize),
                                HostPhysAddr(0x1000))
                        .ok());
    }
    EXPECT_EQ(vfio.mapDma(group, IoVirtAddr(64_GiB),
                          HostPhysAddr(0x1000))
                  .error(),
              base::ErrorCode::LimitExceeded);
    // Unmapping frees budget.
    ASSERT_TRUE(vfio.unmapDma(group, IoVirtAddr(0)).ok());
    EXPECT_TRUE(vfio.mapDma(group, IoVirtAddr(64_GiB),
                            HostPhysAddr(0x1000))
                    .ok());
}

TEST_F(IommuTest, SeparateGroupsSeparateBudgetsAndTables)
{
    IommuConfig cfg;
    cfg.maxMappingsPerGroup = 2;
    VfioContainer vfio = container(cfg);
    const GroupId a = vfio.addGroup();
    const GroupId b = vfio.addGroup();
    EXPECT_EQ(vfio.groupCount(), 2u);
    for (unsigned i = 0; i < 2; ++i) {
        ASSERT_TRUE(vfio.mapDma(a, IoVirtAddr(i * kHugePageSize),
                                HostPhysAddr(0x1000))
                        .ok());
    }
    EXPECT_FALSE(vfio.mapDma(a, IoVirtAddr(1_GiB),
                             HostPhysAddr(0x1000))
                     .ok());
    // Group b still has budget, and the same IOVA is independent.
    EXPECT_TRUE(vfio.mapDma(b, IoVirtAddr(0), HostPhysAddr(0x2000))
                    .ok());
    auto value = vfio.dmaRead64(b, IoVirtAddr(0));
    EXPECT_TRUE(value.ok());
}

TEST_F(IommuTest, PinRangeMarksUnmovable)
{
    VfioContainer vfio = container();
    auto block = buddy->allocPages(9, mm::MigrateType::Movable,
                                   mm::PageUse::GuestMemory, 3);
    ASSERT_TRUE(block.ok());
    vfio.pinRange(*block, kPagesPerHugePage);
    for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
        const mm::PageFrame &frame = buddy->frame(*block + i);
        EXPECT_TRUE(frame.pinned);
        EXPECT_EQ(frame.migrateType, mm::MigrateType::Unmovable);
    }
    vfio.unpinRange(*block, kPagesPerHugePage);
    EXPECT_FALSE(buddy->frame(*block).pinned);
    buddy->freePages(*block, 9);
}

TEST_F(IommuTest, InvalidGroupRejected)
{
    VfioContainer vfio = container();
    EXPECT_EQ(vfio.mapDma(99, IoVirtAddr(0), HostPhysAddr(0)).error(),
              base::ErrorCode::InvalidArgument);
    EXPECT_FALSE(vfio.dmaRead64(99, IoVirtAddr(0)).ok());
}

TEST_F(IommuTest, TablePointerPastMemoryReadsAsNotPresent)
{
    IoPageTable table(*dram, *buddy, /*owner_id=*/3);
    // Right after construction the root is the one IOPT page.
    Pfn root = kInvalidPfn;
    for (Pfn pfn = 0; pfn < buddy->totalPages(); ++pfn) {
        const mm::PageFrame &frame = buddy->frame(pfn);
        if (!frame.free && frame.use == mm::PageUse::IoptPage)
            root = pfn;
    }
    ASSERT_NE(root, kInvalidPfn);
    const IoVirtAddr iova(4_GiB);
    ASSERT_TRUE(table.map(iova, HostPhysAddr(0x3000)).ok());

    // Flip a high PFN bit of the root entry covering the IOVA: the
    // level-3 table pointer now lies past the end of DRAM.
    const HostPhysAddr slot(root * kPageSize);
    dram->backend().write64(slot,
                            dram->backend().read64(slot) | (1ull << 40));
    EXPECT_EQ(table.translate(iova).error(), base::ErrorCode::NotFound);
    EXPECT_EQ(table.unmap(iova).error(), base::ErrorCode::NotFound);
    // map() allocates fresh tables below the broken pointer; the write
    // that would link them in is dropped, so they stay unreachable.
    EXPECT_TRUE(table.map(iova, HostPhysAddr(0x4000)).ok());
    EXPECT_EQ(table.translate(iova).error(), base::ErrorCode::NotFound);
}

TEST_F(IommuTest, DmaThroughLeafPastMemoryFaults)
{
    VfioContainer vfio = container();
    const GroupId group = vfio.addGroup();
    const IoVirtAddr iova(4_GiB);
    // The leaf names a frame past the end of DRAM, as a flipped high
    // PFN bit in an IOPT page would.
    ASSERT_TRUE(vfio.mapDma(group, iova, HostPhysAddr(1024_GiB)).ok());
    EXPECT_EQ(vfio.dmaRead64(group, iova).error(), base::ErrorCode::Fault);
    EXPECT_EQ(vfio.dmaWrite64(group, iova, 1).error(),
              base::ErrorCode::Fault);
}

TEST_F(IommuTest, TeardownReturnsIoptPages)
{
    const uint64_t free_before = buddy->freePages();
    {
        VfioContainer vfio = container();
        const GroupId group = vfio.addGroup();
        for (unsigned i = 0; i < 32; ++i) {
            ASSERT_TRUE(vfio.mapDma(group,
                                    IoVirtAddr(i * kHugePageSize),
                                    HostPhysAddr(0x1000))
                            .ok());
        }
        EXPECT_LT(buddy->freePages(), free_before);
    }
    buddy->drainPcp();
    EXPECT_EQ(buddy->freePages(), free_before);
}

} // namespace
} // namespace hh::iommu
