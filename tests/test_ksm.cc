/**
 * @file
 * Tests of the KSM deduplication model and the Flip Feng Shui
 * baseline it enables (Section 2.1): merging, copy-on-write breaking
 * through the VM-exit path, VFIO exclusion, and the cross-VM
 * corruption primitive that made dedup indefensible.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "base/sim_clock.h"
#include "dram/dram_system.h"
#include "mm/buddy_allocator.h"
#include "sys/ksm.h"
#include "vm/virtual_machine.h"

namespace hh::sys {
namespace {

class KsmTest : public ::testing::Test
{
  protected:
    KsmTest()
    {
        dram::DramConfig dram_cfg;
        dram_cfg.totalBytes = 512_MiB;
        dram_cfg.fault.weakCellsPerRow = 0;
        dram = std::make_unique<dram::DramSystem>(dram_cfg, clock);
        mm::BuddyConfig buddy_cfg;
        buddy_cfg.totalPages = 512_MiB / kPageSize;
        buddy = std::make_unique<mm::BuddyAllocator>(buddy_cfg);
    }

    /** Two small VMs without passthrough (KSM excludes pinned). */
    void
    bootVms(bool ksm_enabled = true)
    {
        vm::VmConfig cfg;
        cfg.bootMemBytes = 8_MiB;
        cfg.virtioMemRegionSize = 64_MiB;
        cfg.virtioMemPlugged = 32_MiB;
        cfg.passthroughDevices = 0;
        attacker = std::make_unique<vm::VirtualMachine>(*dram, *buddy,
                                                        cfg, 1);
        victim = std::make_unique<vm::VirtualMachine>(*dram, *buddy,
                                                      cfg, 2);
        ksm = std::make_unique<Ksm>(*dram, *buddy, ksm_enabled);
        ksm->attach(*attacker);
        ksm->attach(*victim);
    }

    ~KsmTest() override
    {
        // VMs before KSM (see Ksm's destructor contract).
        attacker.reset();
        victim.reset();
        ksm.reset();
    }

    /** Write recognisable content into one page. */
    void
    fillKeyPage(vm::VirtualMachine &machine, GuestPhysAddr page,
                uint64_t salt)
    {
        for (unsigned word = 0; word < kPageSize / 8; ++word) {
            ASSERT_TRUE(machine
                            .write64(page + word * 8ull,
                                     0x4b45'5900 + salt + word)
                            .ok());
        }
    }

    base::SimClock clock;
    std::unique_ptr<dram::DramSystem> dram;
    std::unique_ptr<mm::BuddyAllocator> buddy;
    std::unique_ptr<vm::VirtualMachine> attacker;
    std::unique_ptr<vm::VirtualMachine> victim;
    std::unique_ptr<Ksm> ksm;

    const GuestPhysAddr pageA{vm::kVirtioMemRegionStart + 5 * kPageSize};
    const GuestPhysAddr pageB{vm::kVirtioMemRegionStart + 9 * kPageSize};
};

TEST_F(KsmTest, MergesIdenticalPagesAcrossVms)
{
    bootVms();
    fillKeyPage(*victim, pageB, /*salt=*/0);
    fillKeyPage(*attacker, pageA, /*salt=*/0);

    const auto old_frame = attacker->debugTranslate(pageA);
    ASSERT_TRUE(old_frame.ok());
    EXPECT_EQ(ksm->scanRange(*victim, pageB, 1), 0u); // first sighting
    EXPECT_EQ(ksm->scanRange(*attacker, pageA, 1), 1u); // merged
    EXPECT_EQ(ksm->stats().pagesMerged, 1u);
    EXPECT_EQ(ksm->stats().sharedFrames, 1u);
    // The duplicate's old frame went back to the host (the net
    // accounting also pays for the THP splits the scan performed).
    EXPECT_EQ(buddy->frame(old_frame->pfn()).use, mm::PageUse::Free);

    // Both views read the same physical frame.
    auto hpa_a = attacker->debugTranslate(pageA);
    auto hpa_b = victim->debugTranslate(pageB);
    ASSERT_TRUE(hpa_a.ok() && hpa_b.ok());
    EXPECT_EQ(hpa_a->pfn(), hpa_b->pfn());
    EXPECT_TRUE(ksm->isShared(*attacker, pageA));
    EXPECT_TRUE(ksm->isShared(*victim, pageB));
}

TEST_F(KsmTest, DifferentContentDoesNotMerge)
{
    bootVms();
    fillKeyPage(*victim, pageB, 0);
    fillKeyPage(*attacker, pageA, 0xbad);
    (void)ksm->scanRange(*victim, pageB, 1);
    EXPECT_EQ(ksm->scanRange(*attacker, pageA, 1), 0u);
    EXPECT_EQ(ksm->stats().sharedFrames, 0u);
}

TEST_F(KsmTest, GuestWriteBreaksCow)
{
    bootVms();
    fillKeyPage(*victim, pageB, 0);
    fillKeyPage(*attacker, pageA, 0);
    (void)ksm->scanRange(*victim, pageB, 1);
    ASSERT_EQ(ksm->scanRange(*attacker, pageA, 1), 1u);

    // The attacker writes its copy: VM exit, unshare, retry.
    ASSERT_TRUE(attacker->write64(pageA, 0x1111).ok());
    EXPECT_EQ(ksm->stats().cowBreaks, 1u);
    EXPECT_EQ(ksm->stats().sharedFrames, 0u);

    // The attacker sees its write; the victim is untouched.
    EXPECT_EQ(attacker->read64(pageA).valueOr(0), 0x1111u);
    EXPECT_EQ(victim->read64(pageB).valueOr(0), 0x4b455900u);
    // Physically separate again.
    EXPECT_NE(attacker->debugTranslate(pageA)->pfn(),
              victim->debugTranslate(pageB)->pfn());
}

TEST_F(KsmTest, DisabledKsmDoesNothing)
{
    bootVms(/*ksm_enabled=*/false);
    fillKeyPage(*victim, pageB, 0);
    fillKeyPage(*attacker, pageA, 0);
    EXPECT_EQ(ksm->scanRange(*victim, pageB, 1), 0u);
    EXPECT_EQ(ksm->scanRange(*attacker, pageA, 1), 0u);
    EXPECT_EQ(ksm->stats().pagesScanned, 0u);
}

TEST_F(KsmTest, ScanSplitsHugePages)
{
    bootVms();
    // Scanning a hugepage-backed range demotes it first.
    const GuestPhysAddr hp = vm::kVirtioMemRegionStart;
    auto before = victim->mmu().leafEntry(hp);
    ASSERT_TRUE(before.ok());
    EXPECT_TRUE(before->largePage());
    (void)ksm->scanRange(*victim, hp, 4);
    auto after = victim->mmu().leafEntry(hp);
    ASSERT_TRUE(after.ok());
    EXPECT_FALSE(after->largePage());
}

TEST_F(KsmTest, FlipFengShuiCorruptsVictimThroughSharedFrame)
{
    // The baseline attack (Razavi et al.): the attacker never writes
    // the victim's data -- it duplicates the content, waits for the
    // merge, and flips a bit in the now-shared frame with Rowhammer
    // (here: the ground-truth flip primitive).
    bootVms();
    fillKeyPage(*victim, pageB, 0);
    fillKeyPage(*attacker, pageA, 0);
    (void)ksm->scanRange(*victim, pageB, 1);
    ASSERT_EQ(ksm->scanRange(*attacker, pageA, 1), 1u);

    auto shared = victim->debugTranslate(pageB);
    ASSERT_TRUE(shared.ok());
    dram->backend().flipBit(*shared + 0, 7);

    // The victim's "key" is corrupted; nobody wrote anything.
    EXPECT_EQ(victim->read64(pageB).valueOr(0),
              0x4b455900u ^ (1u << 7));
    EXPECT_EQ(ksm->stats().cowBreaks, 0u);
}

TEST_F(KsmTest, PinnedPagesAreNeverMerged)
{
    // A VFIO VM's memory is pinned; KSM must skip it entirely.
    vm::VmConfig cfg;
    cfg.bootMemBytes = 8_MiB;
    cfg.virtioMemRegionSize = 64_MiB;
    cfg.virtioMemPlugged = 32_MiB;
    cfg.passthroughDevices = 1;
    auto pinned_vm = std::make_unique<vm::VirtualMachine>(
        *dram, *buddy, cfg, 3);
    Ksm local(*dram, *buddy, true);
    local.attach(*pinned_vm);
    fillKeyPage(*pinned_vm, pageA, 0);
    EXPECT_EQ(local.scanRange(*pinned_vm, pageA, 1), 0u);
    EXPECT_EQ(local.stats().pagesScanned, 0u);
    pinned_vm.reset();
}

/** A merged page pair: (attacker GPA, victim GPA). */
using PagePair = std::pair<GuestPhysAddr, GuestPhysAddr>;

class KsmTeardownTest : public KsmTest,
                        public ::testing::WithParamInterface<PagePair>
{
};

TEST_P(KsmTeardownTest, ReclaimsEverything)
{
    const auto [page_a, page_b] = GetParam();
    buddy->drainPcp();
    const uint64_t free_before = buddy->freePages();
    {
        bootVms();
        fillKeyPage(*victim, page_b, 0);
        fillKeyPage(*attacker, page_a, 0);
        const Pfn block =
            attacker->debugTranslate(page_a.hugePageBase())->pfn();
        (void)ksm->scanRange(*victim, page_b, 1);
        ASSERT_EQ(ksm->scanRange(*attacker, page_a, 1), 1u);
        // The merge gave the attacker's frame back to the host and
        // punched a hole into its THP block: teardown must free what
        // is left of the block frame by frame.
        EXPECT_FALSE(buddy->blockUniformlyOwned(
            block, 9, mm::PageUse::GuestMemory, attacker->id()));
        ASSERT_TRUE(attacker->write64(page_a, 1).ok()); // a COW break
        attacker.reset();
        victim.reset();
        ksm.reset();
    }
    buddy->drainPcp();
    EXPECT_EQ(buddy->freePages(), free_before);
}

INSTANTIATE_TEST_SUITE_P(
    Pages, KsmTeardownTest,
    ::testing::Values(
        // virtio-mem sub-blocks: released by VirtioMemDevice.
        PagePair{vm::kVirtioMemRegionStart + 5 * kPageSize,
                 vm::kVirtioMemRegionStart + 9 * kPageSize},
        // Boot RAM: released by ~VirtualMachine.
        PagePair{GuestPhysAddr(2 * kHugePageSize + 5 * kPageSize),
                 GuestPhysAddr(3 * kHugePageSize + 9 * kPageSize)}),
    [](const ::testing::TestParamInfo<PagePair> &info) {
        return info.param.first < vm::kVirtioMemRegionStart
            ? std::string("BootRam") : std::string("VirtioMem");
    });

} // namespace
} // namespace hh::sys
