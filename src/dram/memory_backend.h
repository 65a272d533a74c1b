/**
 * @file
 * Sparse physical-memory data store indexed by page frame number.
 *
 * Simulating multi-gigabyte hosts must not cost multi-gigabyte buffers.
 * The attack only cares about a few content classes: whole pages filled
 * with a hammer pattern, pages carrying an 8-byte magic marker, and EPT /
 * IOPT pages with real 64-bit entries. The backend therefore stores each
 * touched page as a uniform 64-bit fill value plus, in one of two forms,
 * the words that differ from it: a page with one differing word (a
 * magic-marked page) keeps it inline in its slot, and a page that gets
 * a second one spills to a dense 512-word page. "Fill 12 GB with 0xff"
 * stays an O(pages) metadata operation, marking a page allocates
 * nothing, and page-table pages stay exact.
 *
 * Pages live in a chunk table: one pointer per 2 MiB of physical memory,
 * sized at construction, each chunk holding the slots of its 512 pages
 * and allocated on the first write into it. A lookup is two array
 * indexes; nothing hashes or rehashes. Every world owns its backend
 * outright: a forked trial world starts from an empty one (the pristine
 * fork template never boots, so it never holds a word).
 *
 * A forked backend recycles its blocks (chunks and dense pages)
 * through spare lists its template owns: it takes a spare before it
 * allocates, and gives back every block it drops or holds when it
 * dies. Trial after trial, the next fork reuses the last one's memory
 * instead of faulting fresh heap in from the kernel (DESIGN.md 3.5).
 */

#ifndef HYPERHAMMER_DRAM_MEMORY_BACKEND_H
#define HYPERHAMMER_DRAM_MEMORY_BACKEND_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/archive.h"
#include "base/mutex.h"
#include "base/types.h"

namespace hh::dram {

/**
 * Word-granular sparse store over the host physical address space.
 * Untouched memory reads as zero.
 */
class MemoryBackend
{
    class Spares; // the spare lists, defined with the private types

  public:
    /**
     * A backend that allocates its blocks and frees them. It owns the
     * spares its forks recycle through (forkSpares()), but never takes
     * from or gives to them itself.
     */
    explicit MemoryBackend(uint64_t total_bytes);

    /**
     * A fork-side backend: empty, it takes blocks from @p from before
     * it allocates and gives back each block it drops.
     */
    MemoryBackend(uint64_t total_bytes, std::shared_ptr<Spares> from);

    /** A fork-side backend gives back every block it holds. */
    ~MemoryBackend();

    /** Deep copies are banned: each world builds its own backend. */
    MemoryBackend(const MemoryBackend &) = delete;
    MemoryBackend &operator=(const MemoryBackend &) = delete;

    /** The spares a fork of this backend recycles through. */
    const std::shared_ptr<Spares> &forkSpares() const { return spares; }

    /** Size of the backed physical address space. */
    uint64_t size() const { return totalBytes; }

    /** True when @p addr lies inside the address space. */
    bool
    contains(HostPhysAddr addr) const
    {
        return addr.value() < totalBytes;
    }

    /** Read the aligned 64-bit word containing @p addr. */
    uint64_t read64(HostPhysAddr addr) const;

    /** Write the aligned 64-bit word containing @p addr. */
    void write64(HostPhysAddr addr, uint64_t value);

    /** Fill an entire 4 KB frame with a repeated 64-bit pattern. */
    void fillPage(Pfn pfn, uint64_t pattern);

    /** Flip one bit of the word containing @p addr; returns new value. */
    uint64_t flipBit(HostPhysAddr addr, unsigned bit_in_word);

    /**
     * Word indices (0..511) of a frame whose content differs from an
     * expected uniform fill, in index order. A page filled with the
     * expected value costs at most its one inline word unless it
     * spilled to a dense page.
     */
    std::vector<uint16_t> mismatchedWords(Pfn pfn,
                                          uint64_t expected_fill) const;

    /**
     * Number of frames carrying data: a write (of any value) or a
     * non-zero fill adds a frame, clearPage() or a zero fill removes
     * it.
     */
    size_t touchedPages() const { return touched; }

    /**
     * Blocks (chunks and dense pages) this backend allocated instead of
     * taking them from its spares: all of them unless it is a fork.
     */
    size_t allocatedBlocks() const { return allocated; }

    /** Drop the contents of one frame (reads revert to zero). */
    void clearPage(Pfn pfn);

    /**
     * Serialize all frames carrying data, in PFN order, each with the
     * words that differ from its fill in index order. Words that hold
     * their page's fill value are skipped whatever form the page is
     * in, so the stream depends only on the logical contents.
     */
    void saveState(base::ArchiveWriter &w) const;

  private:
    /** Frames per chunk: one 2 MiB hugepage's worth. */
    static constexpr uint64_t kChunkPages = kPagesPerHugePage;

    /** 64-bit words per 4 KB frame. */
    static constexpr uint16_t kWordsPerPage = kPageSize / 8;
    /** PageData::wordIdx of a page without an inline word. */
    static constexpr uint16_t kNoWord = kWordsPerPage;

    /** Every word of a frame that spilled. */
    using DensePage = std::array<uint64_t, kWordsPerPage>;

    /**
     * One frame's contents: a fill plus the words that differ from it,
     * inline while there is one and in a dense page from the second
     * on. Every touched page pays for a slot, so it stays small.
     */
    struct PageData
    {
        /** Value of every word neither inline nor in the dense page. */
        uint64_t fill = 0;
        /** The inline word's value; differs from fill while set. */
        uint64_t word = 0;
        /**
         * Every word of the page, allocated when a second word index
         * gets a value other than fill. From then on wordIdx is unused
         * and the page stays dense until fillPage() or clearPage().
         */
        std::unique_ptr<DensePage> words;
        /** Index of the inline word, or kNoWord. */
        uint16_t wordIdx = kNoWord;
        /** Frame carries data (counted by touchedPages()). */
        bool present = false;

        /** Value of word @p idx. */
        uint64_t
        at(uint16_t idx) const
        {
            return words ? (*words)[idx] : idx == wordIdx ? word : fill;
        }

        /**
         * Set word @p idx, spilling to a dense page of @p store on a
         * second differing word.
         */
        void set(uint16_t idx, uint64_t value, MemoryBackend &store);

        /**
         * Call @p visit(idx, value) for each word that differs from
         * fill, in index order.
         */
        template <typename Visit>
        void
        forEachDiffering(const Visit &visit) const
        {
            if (words) {
                for (uint16_t i = 0; i < kWordsPerPage; ++i) {
                    if ((*words)[i] != fill)
                        visit(i, (*words)[i]);
                }
            } else if (wordIdx != kNoWord) {
                visit(wordIdx, word);
            }
        }
    };
    static_assert(sizeof(PageData) <= 32,
                  "every touched page pays for its slot");

    /**
     * The slots of one chunk's frames. An absent slot is always a
     * default PageData: zero fill, no differing word, not present.
     */
    using Chunk = std::array<PageData, kChunkPages>;

    /**
     * Blocks that dead forks gave back, for the next fork to take. All
     * forks of one template share it, so worker threads forking that
     * template in parallel lock it.
     */
    class Spares
    {
      public:
        /** A chunk whose every slot is default, or null if none. */
        std::unique_ptr<Chunk> takeChunk() HH_EXCLUDES(mutex);

        /** A dense page of any content, or null if none. */
        std::unique_ptr<DensePage> takePage() HH_EXCLUDES(mutex);

        /** Keep one dense page. */
        void givePage(std::unique_ptr<DensePage> page) HH_EXCLUDES(mutex);

        /** Keep every chunk (each all-default) and page of the lists. */
        void give(std::vector<std::unique_ptr<Chunk>> &chunk_list,
                  std::vector<std::unique_ptr<DensePage>> &page_list)
            HH_EXCLUDES(mutex);

      private:
        base::Mutex mutex;
        std::vector<std::unique_ptr<Chunk>> chunks HH_GUARDED_BY(mutex);
        std::vector<std::unique_ptr<DensePage>> pages HH_GUARDED_BY(mutex);
    };

    /** Number of 4 KB frames in the address space. */
    uint64_t pageCount() const { return totalBytes / kPageSize; }

    /**
     * Slot of @p pfn for reads, or nullptr when its chunk was never
     * written (every word reads as zero).
     */
    const PageData *lookup(Pfn pfn) const;

    /** Slot of @p pfn for writes, allocating its chunk on first use. */
    PageData &mutablePage(Pfn pfn);

    /** An all-default chunk: a spare one when a fork has one. */
    std::unique_ptr<Chunk> newChunk();

    /** A dense page, left for the caller to fill: a spare one if any. */
    std::unique_ptr<DensePage> newDensePage();

    /** Drop @p slot's dense page, giving it back when forked. */
    void dropDensePage(PageData &slot);

    /**
     * When forked, reset every present slot of @p blocks and give the
     * chunks and their dense pages back in one locked step; otherwise
     * leave them for the caller to free.
     */
    void giveBack(std::vector<std::unique_ptr<Chunk>> &blocks);

    /** Construction-time geometry. */
    const uint64_t totalBytes;
    /**
     * The spares this backend's forks recycle through; a fork shares
     * its template's.
     */
    // hh-lint: allow(snapshot-field-coverage) -- storage, not state
    const std::shared_ptr<Spares> spares;
    /** Takes from and gives back to spares (a fork-side backend). */
    const bool recycles;
    /** One entry per 2 MiB; null until the chunk's first write. */
    std::vector<std::unique_ptr<Chunk>> chunks;
    /** Present slots across all chunks. */
    size_t touched = 0;
    /** Blocks allocated rather than taken (allocatedBlocks()). */
    // hh-lint: allow(snapshot-field-coverage) -- diagnostics, not state
    size_t allocated = 0;
};

} // namespace hh::dram

#endif // HYPERHAMMER_DRAM_MEMORY_BACKEND_H
