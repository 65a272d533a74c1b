/**
 * @file
 * Tests of the assembled VirtualMachine: guest memory operations
 * through the EPT, the vIOMMU guest interface, hugepage enumeration,
 * demotion via execute(), fault behaviour on corrupted mappings, and
 * clean teardown.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/sim_clock.h"
#include "dram/dram_system.h"
#include "mm/buddy_allocator.h"
#include "vm/virtual_machine.h"

namespace hh::vm {
namespace {

class VmTest : public ::testing::Test
{
  protected:
    VmTest()
    {
        dram::DramConfig dram_cfg;
        dram_cfg.totalBytes = 512_MiB;
        dram_cfg.fault.weakCellsPerRow = 0;
        dram = std::make_unique<dram::DramSystem>(dram_cfg, clock);
        mm::BuddyConfig buddy_cfg;
        buddy_cfg.totalPages = 512_MiB / kPageSize;
        buddy = std::make_unique<mm::BuddyAllocator>(buddy_cfg);
    }

    VmConfig
    smallConfig()
    {
        VmConfig cfg;
        cfg.bootMemBytes = 16_MiB;
        cfg.virtioMemRegionSize = 256_MiB;
        cfg.virtioMemPlugged = 128_MiB;
        return cfg;
    }

    base::SimClock clock;
    std::unique_ptr<dram::DramSystem> dram;
    std::unique_ptr<mm::BuddyAllocator> buddy;
};

/** The words readPageWords() visits for @p hp, in visiting order. */
std::vector<VirtualMachine::PageWord>
pageWords(VirtualMachine &machine, GuestPhysAddr hp)
{
    std::vector<VirtualMachine::PageWord> words;
    // hh-lint: allow(status-discard) -- the collected words are what the tests check
    (void)machine.readPageWords(
        hp, [&](const VirtualMachine::PageWord &word) {
            words.push_back(word);
        });
    return words;
}

TEST_F(VmTest, MemoryAccounting)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    EXPECT_EQ(machine.memorySize(), 16_MiB + 128_MiB);
    EXPECT_EQ(machine.hugePageGpas().size(), (16 + 128) / 2u);
    EXPECT_EQ(machine.id(), 1u);
    EXPECT_EQ(machine.hostMemoryBytes(), 512_MiB);

    // Host THP backs every hugepage GPA with a 2 MB leaf, so GPA ->
    // HPA keeps bits 0..20: the profiler's bank labels rely on it
    // (Section 4.1).
    for (GuestPhysAddr hp : machine.hugePageGpas()) {
        auto base = machine.debugTranslate(hp);
        ASSERT_TRUE(base.ok());
        EXPECT_TRUE(base->hugePageAligned());
        for (uint64_t off = 0; off < kHugePageSize; off += 0x1'2345) {
            auto hpa = machine.debugTranslate(hp + off);
            ASSERT_TRUE(hpa.ok());
            EXPECT_EQ(hpa->value(), base->value() + off);
        }
    }
}

TEST_F(VmTest, ReadWriteThroughEpt)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    const GuestPhysAddr gpa(kVirtioMemRegionStart + 0x1238);
    ASSERT_TRUE(machine.write64(gpa, 0xcafe).ok());
    auto value = machine.read64(gpa);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, 0xcafeu);
    // The value physically lives at the translated host address.
    auto hpa = machine.debugTranslate(gpa);
    ASSERT_TRUE(hpa.ok());
    EXPECT_EQ(dram->backend().read64(*hpa), 0xcafeu);
}

TEST_F(VmTest, UnmappedGpaFails)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    EXPECT_FALSE(machine.read64(GuestPhysAddr(2_GiB)).ok());
    EXPECT_FALSE(machine.write64(GuestPhysAddr(2_GiB), 1).ok());
}

TEST_F(VmTest, FillHugePageReachesEveryPage)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    const GuestPhysAddr hp = kVirtioMemRegionStart;
    ASSERT_TRUE(machine.fillHugePage(hp, 0xffff).ok());
    const auto words = pageWords(machine, hp);
    ASSERT_EQ(words.size(), kPagesPerHugePage);
    for (const auto &word : words)
        EXPECT_EQ(word.value, 0xffffu);
    EXPECT_EQ(machine.read64(hp + 5 * kPageSize + 80).valueOr(0), 0xffffu);

    EXPECT_EQ(machine.fillHugePage(hp + kPageSize, 0).error(),
              base::ErrorCode::InvalidArgument);
    EXPECT_EQ(machine.fillHugePage(GuestPhysAddr(2_GiB), 0).error(),
              base::ErrorCode::NotFound);
}

TEST_F(VmTest, FillPage4k)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    const GuestPhysAddr page = kVirtioMemRegionStart + 3 * kPageSize;
    ASSERT_TRUE(machine.fillPage(page, 0x1111).ok());
    EXPECT_EQ(machine.read64(page + 8).valueOr(0), 0x1111u);
    // Neighbouring page untouched.
    EXPECT_EQ(machine.read64(page + kPageSize).valueOr(1), 0u);
}

TEST_F(VmTest, ExecuteDemotesHugePage)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    const uint64_t ept_before = machine.mmu().eptPageCount();
    const kvm::AccessResult result =
        machine.execute(kVirtioMemRegionStart);
    EXPECT_TRUE(result.status.ok());
    EXPECT_TRUE(result.demotedHugePage);
    EXPECT_EQ(machine.mmu().eptPageCount(), ept_before + 1);
}

TEST_F(VmTest, IommuMapConsumesUnmovablePages)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    ASSERT_EQ(machine.iommuGroupCount(), 1u);
    const uint64_t iopt_before = machine.vfio()->ioptPageCount();
    for (unsigned i = 0; i < 16; ++i) {
        ASSERT_TRUE(machine
                        .iommuMap(0,
                                  IoVirtAddr(4_GiB
                                             + i * kHugePageSize),
                                  GuestPhysAddr(0))
                        .ok());
    }
    EXPECT_GE(machine.vfio()->ioptPageCount() - iopt_before, 16u);
    ASSERT_TRUE(machine.iommuUnmap(0, IoVirtAddr(4_GiB)).ok());
}

TEST_F(VmTest, IommuMapWithoutDeviceFails)
{
    VmConfig cfg = smallConfig();
    cfg.passthroughDevices = 0;
    VirtualMachine machine(*dram, *buddy, cfg, 1);
    EXPECT_EQ(machine.iommuGroupCount(), 0u);
    EXPECT_FALSE(
        machine.iommuMap(0, IoVirtAddr(0), GuestPhysAddr(0)).ok());
}

TEST_F(VmTest, HammerTranslatesAggressors)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    const base::SimTime burst = 1'000 * dram->config().timing.rowCycle;
    const std::vector<GuestPhysAddr> aggressors{
        kVirtioMemRegionStart, kVirtioMemRegionStart + kHugePageSize};
    // No weak cells: both rows are activated, nothing flips.
    base::SimTime before = clock.now();
    EXPECT_TRUE(machine.hammer(aggressors, 1'000).empty());
    EXPECT_GE(clock.now() - before, 2 * burst);
    // Unmapped aggressors are skipped: only the EPT walk is charged.
    before = clock.now();
    EXPECT_TRUE(machine.hammer({GuestPhysAddr(2_GiB)}, 1'000).empty());
    EXPECT_LT(clock.now() - before, burst);
}

TEST_F(VmTest, HammerDropsAggressorMappedPastMemory)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    const GuestPhysAddr page = kVirtioMemRegionStart;
    // Demote, then point the page's 4 KB leaf past the end of DRAM.
    ASSERT_TRUE(machine.execute(page).demotedHugePage);
    ASSERT_TRUE(
        machine.mmu().remapLeaf4k(page, dram->pageCount() + 1, true).ok());
    const base::SimTime burst = 1'000 * dram->config().timing.rowCycle;
    const base::SimTime before = clock.now();
    EXPECT_TRUE(machine.hammer({page}, 1'000).empty());
    EXPECT_LT(clock.now() - before, burst);
}

TEST_F(VmTest, PageWordBatchedOps)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    const GuestPhysAddr hp = kVirtioMemRegionStart + 4 * kHugePageSize;
    ASSERT_TRUE(machine
                    .writePageWords(hp,
                                    [](GuestPhysAddr page) {
                                        return page.value() | 1;
                                    })
                    .ok());
    const auto words = pageWords(machine, hp);
    ASSERT_EQ(words.size(), kPagesPerHugePage);
    for (const auto &word : words) {
        EXPECT_FALSE(word.fault);
        EXPECT_EQ(word.value, word.page.value() | 1);
    }
}

TEST_F(VmTest, CorruptedMappingBeyondMemoryFaults)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    const GuestPhysAddr hp = kVirtioMemRegionStart;
    // Demote, then corrupt the first PTE to point beyond DRAM.
    (void)machine.execute(hp);
    const Pfn pt = machine.mmu().eptPageFrames().back();
    const uint64_t pte = dram->backend().read64(
        HostPhysAddr(pt * kPageSize));
    dram->backend().write64(HostPhysAddr(pt * kPageSize),
                            pte | (1ull << 40)); // frame way out
    EXPECT_EQ(machine.read64(hp).error(), base::ErrorCode::Fault);
    const auto words = pageWords(machine, hp);
    EXPECT_TRUE(words[0].fault);
}

TEST_F(VmTest, VoluntaryReleaseShrinksAddressSpace)
{
    VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
    machine.memDriver().setSuppressAutoPlug(true);
    const GuestPhysAddr victim = kVirtioMemRegionStart
        + 10 * kHugePageSize;
    ASSERT_TRUE(machine.memDriver().unplugSpecific(victim).ok());
    EXPECT_FALSE(machine.read64(victim).ok());
    EXPECT_EQ(machine.memorySize(), 16_MiB + 128_MiB - kHugePageSize);
    EXPECT_EQ(machine.hugePageGpas().size(), (16 + 128) / 2u - 1);
}

TEST_F(VmTest, TeardownLeavesNoAllocatedFrames)
{
    buddy->drainPcp();
    const uint64_t free_before = buddy->freePages();
    {
        VirtualMachine machine(*dram, *buddy, smallConfig(), 1);
        // Exercise everything that allocates host memory.
        (void)machine.execute(kVirtioMemRegionStart);
        // hh-lint: allow(status-discard) -- only the allocation side effect matters for the leak check
        (void)machine.iommuMap(0, IoVirtAddr(4_GiB), GuestPhysAddr(0));
        machine.memDriver().setSuppressAutoPlug(true);
        (void)machine.memDriver().unplugSpecific(
            kVirtioMemRegionStart + 2 * kHugePageSize);
        EXPECT_LT(buddy->freePages(), free_before);
    }
    buddy->drainPcp();
    EXPECT_EQ(buddy->freePages(), free_before);
}

} // namespace
} // namespace hh::vm
