/**
 * @file
 * Unit tests for the sparse memory backend: fill and differing-word
 * semantics in both slot forms (one inline word, a dense page past
 * it), bit flips, mismatchedWords(), the saved stream, and a fork's
 * recycling of blocks through its template's spares.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dram/memory_backend.h"

namespace hh::dram {
namespace {

TEST(MemoryBackend, UntouchedReadsZero)
{
    MemoryBackend mem(1_MiB);
    EXPECT_EQ(mem.read64(HostPhysAddr(0)), 0u);
    EXPECT_EQ(mem.read64(HostPhysAddr(1_MiB - 8)), 0u);
    EXPECT_EQ(mem.touchedPages(), 0u);
}

TEST(MemoryBackend, WriteReadRoundTrip)
{
    MemoryBackend mem(1_MiB);
    mem.write64(HostPhysAddr(0x1008), 0xdeadbeef);
    EXPECT_EQ(mem.read64(HostPhysAddr(0x1008)), 0xdeadbeefu);
    EXPECT_EQ(mem.read64(HostPhysAddr(0x1000)), 0u);
    EXPECT_EQ(mem.touchedPages(), 1u);
}

TEST(MemoryBackend, UnalignedAddressHitsContainingWord)
{
    MemoryBackend mem(1_MiB);
    mem.write64(HostPhysAddr(0x1008), 42);
    EXPECT_EQ(mem.read64(HostPhysAddr(0x100b)), 42u);
}

TEST(MemoryBackend, FillPageSetsAllWords)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(3, 0x5555);
    EXPECT_EQ(mem.read64(HostPhysAddr(3 * kPageSize)), 0x5555u);
    EXPECT_EQ(mem.read64(HostPhysAddr(3 * kPageSize + 4088)), 0x5555u);
    EXPECT_EQ(mem.read64(HostPhysAddr(2 * kPageSize)), 0u);
}

TEST(MemoryBackend, FillZeroReclaimsMetadata)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(1, 0xff);
    EXPECT_EQ(mem.touchedPages(), 1u);
    mem.fillPage(1, 0);
    EXPECT_EQ(mem.touchedPages(), 0u);
    EXPECT_EQ(mem.read64(HostPhysAddr(kPageSize)), 0u);
}

TEST(MemoryBackend, WritingFillValueRemovesOverride)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0xaa);
    mem.write64(HostPhysAddr(8), 0xbb);
    EXPECT_EQ(mem.read64(HostPhysAddr(8)), 0xbbu);
    mem.write64(HostPhysAddr(8), 0xaa);
    EXPECT_EQ(mem.read64(HostPhysAddr(8)), 0xaau);
    // The scanner must see a perfectly uniform page again.
    EXPECT_TRUE(mem.mismatchedWords(0, 0xaa).empty());
}

TEST(MemoryBackend, FlipBit)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0);
    EXPECT_EQ(mem.flipBit(HostPhysAddr(16), 5), 32u);
    EXPECT_EQ(mem.read64(HostPhysAddr(16)), 32u);
    EXPECT_EQ(mem.flipBit(HostPhysAddr(16), 5), 0u);
}

TEST(MemoryBackend, ClearPage)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(2, 0x77);
    mem.clearPage(2);
    EXPECT_EQ(mem.read64(HostPhysAddr(2 * kPageSize)), 0u);
    EXPECT_EQ(mem.touchedPages(), 0u);
}

TEST(MemoryBackend, MismatchAbsentPageExpectedZero)
{
    MemoryBackend mem(1_MiB);
    EXPECT_TRUE(mem.mismatchedWords(0, 0).empty());
}

TEST(MemoryBackend, MismatchAbsentPageExpectedNonZero)
{
    MemoryBackend mem(1_MiB);
    const auto words = mem.mismatchedWords(0, 0xff);
    EXPECT_EQ(words.size(), kPageSize / 8);
}

TEST(MemoryBackend, MismatchFillMatchesWithOverrides)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0xff);
    mem.write64(HostPhysAddr(24), 1);     // word 3
    mem.write64(HostPhysAddr(4000), 2);   // word 500
    const auto words = mem.mismatchedWords(0, 0xff);
    ASSERT_EQ(words.size(), 2u);
    EXPECT_EQ(words[0], 3u);
    EXPECT_EQ(words[1], 500u);
}

TEST(MemoryBackend, MismatchFillDiffers)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0xff);
    // Override one word back to the expected value.
    mem.write64(HostPhysAddr(64), 0xee);
    const auto words = mem.mismatchedWords(0, 0xee);
    // Everything mismatches except word 8.
    EXPECT_EQ(words.size(), kPageSize / 8 - 1);
    for (uint16_t w : words)
        EXPECT_NE(w, 8u);
}

TEST(MemoryBackend, ContainsBounds)
{
    MemoryBackend mem(1_MiB);
    EXPECT_TRUE(mem.contains(HostPhysAddr(0)));
    EXPECT_TRUE(mem.contains(HostPhysAddr(1_MiB - 1)));
    EXPECT_FALSE(mem.contains(HostPhysAddr(1_MiB)));
}

TEST(MemoryBackendDeath, OutOfRangeReadPanics)
{
    MemoryBackend mem(1_MiB);
    EXPECT_DEATH((void)mem.read64(HostPhysAddr(2_MiB)), "assertion");
}

TEST(MemoryBackend, ManyOverridesStaySorted)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0);
    // Write in reverse order; reads must still resolve correctly.
    for (int w = 511; w >= 0; --w)
        mem.write64(HostPhysAddr(static_cast<uint64_t>(w) * 8),
                    static_cast<uint64_t>(w) + 1);
    for (int w = 0; w < 512; ++w)
        EXPECT_EQ(mem.read64(HostPhysAddr(static_cast<uint64_t>(w) * 8)),
                  static_cast<uint64_t>(w) + 1);
    EXPECT_EQ(mem.mismatchedWords(0, 0).size(), 512u);
}

std::vector<uint8_t>
stateBytes(const MemoryBackend &mem)
{
    base::ArchiveWriter w;
    mem.saveState(w);
    return w.buffer();
}

TEST(MemoryBackend, WritingFillValueKeepsSavedStreamCanonical)
{
    MemoryBackend overridden(1_MiB);
    overridden.fillPage(4, 0x44);
    overridden.write64(HostPhysAddr(4 * kPageSize + 16), 0x99);
    overridden.write64(HostPhysAddr(4 * kPageSize + 16), 0x44);
    MemoryBackend plain(1_MiB);
    plain.fillPage(4, 0x44);
    EXPECT_EQ(overridden.read64(HostPhysAddr(4 * kPageSize + 16)), 0x44u);
    EXPECT_EQ(stateBytes(overridden), stateBytes(plain));
}

TEST(MemoryBackend, ZeroingFullTablePageFrontToBack)
{
    // The EPT unmap path: a full table page zeroed in ascending order.
    MemoryBackend mem(1_MiB);
    const Pfn pfn = 9;
    for (uint64_t w = 0; w < 512; ++w)
        mem.write64(HostPhysAddr(pfn * kPageSize + w * 8), w + 1);
    for (uint64_t w = 0; w < 512; ++w)
        mem.write64(HostPhysAddr(pfn * kPageSize + w * 8), 0);
    for (uint64_t w = 0; w < 512; ++w)
        EXPECT_EQ(mem.read64(HostPhysAddr(pfn * kPageSize + w * 8)), 0u);
    EXPECT_TRUE(mem.mismatchedWords(pfn, 0).empty());
    EXPECT_EQ(mem.touchedPages(), 1u);
    MemoryBackend once(1_MiB);
    once.write64(HostPhysAddr(pfn * kPageSize), 0);
    EXPECT_EQ(stateBytes(mem), stateBytes(once));
}

using WordList = std::vector<std::pair<uint16_t, uint64_t>>;

/** One page record as saveState() lays it out. */
void
writePageRecord(base::ArchiveWriter &w, Pfn pfn, uint64_t fill,
                const WordList &words)
{
    w.u64(pfn);
    w.u64(fill);
    w.u64(words.size());
    for (const auto &[idx, value] : words) {
        w.u16(idx);
        w.u64(value);
    }
}

TEST(MemoryBackend, SecondDifferingWordSpills)
{
    MemoryBackend mem(1_MiB);
    const Pfn pfn = 6;
    const HostPhysAddr page(pfn * kPageSize);
    mem.fillPage(pfn, 0x66);
    mem.write64(page + 40 * 8, 0xa);  // inline
    mem.write64(page + 7 * 8, 0xb);   // spills
    EXPECT_EQ(mem.read64(page + 40 * 8), 0xau);
    EXPECT_EQ(mem.read64(page + 7 * 8), 0xbu);
    EXPECT_EQ(mem.read64(page), 0x66u);
    EXPECT_EQ(mem.read64(page + 511 * 8), 0x66u);
    EXPECT_EQ(mem.mismatchedWords(pfn, 0x66),
              (std::vector<uint16_t>{7, 40}));
    EXPECT_EQ(mem.touchedPages(), 1u);

    mem.fillPage(pfn, 0x77);
    EXPECT_TRUE(mem.mismatchedWords(pfn, 0x77).empty());
    EXPECT_EQ(mem.read64(page + 7 * 8), 0x77u);
    EXPECT_EQ(mem.touchedPages(), 1u);

    // Spill again, then drop the dense page with the slot.
    mem.write64(page + 3 * 8, 0xc);
    mem.write64(page + 4 * 8, 0xd);
    mem.clearPage(pfn);
    EXPECT_EQ(mem.touchedPages(), 0u);
    EXPECT_EQ(mem.read64(page + 4 * 8), 0u);
    EXPECT_TRUE(mem.mismatchedWords(pfn, 0).empty());
}

TEST(MemoryBackend, SavedStreamPinsEveryRecord)
{
    MemoryBackend mem(4_MiB);
    // One differing word, kept inline.
    mem.write64(HostPhysAddr(1 * kPageSize + 9 * 8), 0x91);
    // Two differing words in a dense page, plus a third written back
    // to its fill.
    mem.fillPage(2, 0x22);
    mem.write64(HostPhysAddr(2 * kPageSize + 300 * 8), 0x23);
    mem.write64(HostPhysAddr(2 * kPageSize + 5 * 8), 0x24);
    mem.write64(HostPhysAddr(2 * kPageSize + 6 * 8), 0x25);
    mem.write64(HostPhysAddr(2 * kPageSize + 6 * 8), 0x22);
    // Every word differs; the page sits in the second chunk.
    const Pfn full = 600;
    for (uint64_t i = 0; i < 512; ++i)
        mem.write64(HostPhysAddr(full * kPageSize + i * 8), i + 1);
    // The inline word written back to its fill.
    mem.write64(HostPhysAddr(700 * kPageSize + 8), 0x71);
    mem.write64(HostPhysAddr(700 * kPageSize + 8), 0);

    base::ArchiveWriter expected;
    expected.u64(4);
    writePageRecord(expected, 1, 0, {{9, 0x91}});
    writePageRecord(expected, 2, 0x22, {{5, 0x24}, {300, 0x23}});
    WordList every;
    for (uint16_t i = 0; i < 512; ++i)
        every.emplace_back(i, i + 1);
    writePageRecord(expected, full, 0, every);
    writePageRecord(expected, 700, 0, {});
    EXPECT_EQ(stateBytes(mem), expected.buffer());
}

// Every slot form in both chunks of a 4 MiB backend: inline words,
// filled pages, spilled dense pages (one with all 512 words distinct)
// and pages written back to their fill.
void
writeEveryForm(MemoryBackend &mem)
{
    mem.write64(HostPhysAddr(1 * kPageSize + 9 * 8), 0x91);
    mem.fillPage(2, 0x22);
    mem.write64(HostPhysAddr(2 * kPageSize + 300 * 8), 0x23);
    mem.write64(HostPhysAddr(2 * kPageSize + 5 * 8), 0x24);
    mem.fillPage(3, 0x33);
    for (uint64_t i = 0; i < 512; ++i)
        mem.write64(HostPhysAddr(600 * kPageSize + i * 8), i + 1);
    mem.write64(HostPhysAddr(601 * kPageSize + 8), 0x71);
    mem.write64(HostPhysAddr(601 * kPageSize + 16), 0x72);
    mem.write64(HostPhysAddr(601 * kPageSize + 16), 0);
    mem.write64(HostPhysAddr(700 * kPageSize + 8), 0x71);
    mem.write64(HostPhysAddr(700 * kPageSize + 8), 0);
}

TEST(MemoryBackend, ForkTakesADeadForksBlocksAsUntouched)
{
    MemoryBackend tmpl(4_MiB);
    {
        MemoryBackend dead(4_MiB, tmpl.forkSpares());
        writeEveryForm(dead);
        EXPECT_EQ(dead.allocatedBlocks(), 5u) << "two chunks, three dense";
    }
    MemoryBackend fork(4_MiB, tmpl.forkSpares());
    // Take both chunks back, then drop the pages that took them.
    fork.write64(HostPhysAddr(1 * kPageSize), 0x5);
    fork.write64(HostPhysAddr(600 * kPageSize), 0x5);
    fork.clearPage(1);
    fork.clearPage(600);
    EXPECT_EQ(fork.touchedPages(), 0u);
    for (uint64_t addr = 0; addr < 4_MiB; addr += 8)
        ASSERT_EQ(fork.read64(HostPhysAddr(addr)), 0u) << addr;
    for (Pfn pfn = 0; pfn < 4_MiB / kPageSize; ++pfn)
        ASSERT_TRUE(fork.mismatchedWords(pfn, 0).empty()) << pfn;
    EXPECT_EQ(stateBytes(fork), stateBytes(MemoryBackend(4_MiB)));
    EXPECT_EQ(fork.allocatedBlocks(), 0u);
    EXPECT_EQ(tmpl.allocatedBlocks(), 0u) << "a template only owns";
}

TEST(MemoryBackend, ForkRepeatingADeadForksWritesSavesLikeAFreshOne)
{
    MemoryBackend tmpl(4_MiB);
    {
        MemoryBackend dead(4_MiB, tmpl.forkSpares());
        writeEveryForm(dead);
    }
    MemoryBackend fork(4_MiB, tmpl.forkSpares());
    writeEveryForm(fork);
    MemoryBackend fresh(4_MiB);
    writeEveryForm(fresh);
    EXPECT_EQ(fork.touchedPages(), fresh.touchedPages());
    EXPECT_EQ(stateBytes(fork), stateBytes(fresh));
    // The counted half of the recycling claim: the same work again
    // allocates nothing.
    EXPECT_EQ(fork.allocatedBlocks(), 0u);
    EXPECT_EQ(fresh.allocatedBlocks(), 5u);
}

TEST(MemoryBackend, DroppedDensePageComesBackHoldingTheNewFill)
{
    MemoryBackend tmpl(1_MiB);
    MemoryBackend fork(1_MiB, tmpl.forkSpares());
    const auto spill = [&](Pfn pfn, uint64_t fill) {
        fork.fillPage(pfn, fill);
        for (uint64_t i = 0; i < 512; i += 2)
            fork.write64(HostPhysAddr(pfn * kPageSize + i * 8), ~i);
    };
    const auto expectSpilled = [&](Pfn pfn, uint64_t fill) {
        for (uint64_t i = 0; i < 512; ++i) {
            ASSERT_EQ(fork.read64(HostPhysAddr(pfn * kPageSize + i * 8)),
                      i % 2 == 0 ? ~i : fill)
                << "pfn " << pfn << " word " << i;
        }
    };
    // One dense page allocated, then dropped by clearPage() and taken
    // by the next spill, then dropped by fillPage() and taken again.
    spill(10, 0x10);
    EXPECT_EQ(fork.allocatedBlocks(), 2u) << "one chunk, one dense";
    fork.clearPage(10);
    spill(11, 0x11);
    expectSpilled(11, 0x11);
    fork.fillPage(11, 0x12);
    EXPECT_EQ(fork.read64(HostPhysAddr(11 * kPageSize)), 0x12u);
    spill(12, 0x13);
    expectSpilled(12, 0x13);
    EXPECT_EQ(fork.allocatedBlocks(), 2u);
    EXPECT_EQ(fork.touchedPages(), 2u);
}

TEST(MemoryBackendDeath, OutOfRangePfnPanics)
{
    // 1 MiB is 256 frames inside one 512-slot chunk: PFN 300 has a
    // slot in the chunk but no frame behind it.
    MemoryBackend mem(1_MiB);
    EXPECT_DEATH(mem.clearPage(300), "assertion");
    EXPECT_DEATH(mem.fillPage(300, 0xff), "assertion");
    EXPECT_DEATH((void)mem.mismatchedWords(256, 0), "assertion");
}

} // namespace
} // namespace hh::dram
