#include "memory_backend.h"

#include <utility>

#include "base/log.h"

namespace hh::dram {

namespace {

constexpr uint16_t
wordIndex(HostPhysAddr addr)
{
    return static_cast<uint16_t>((addr.value() & (kPageSize - 1)) / 8);
}

/** Move the last block out of a spare list; null when it is empty. */
template <typename Block>
std::unique_ptr<Block>
popBack(std::vector<std::unique_ptr<Block>> &list)
{
    if (list.empty())
        return nullptr;
    std::unique_ptr<Block> block = std::move(list.back());
    list.pop_back();
    return block;
}

/** Move every non-null block of @p from to the end of @p to. */
template <typename Block>
void
moveAll(std::vector<std::unique_ptr<Block>> &from,
        std::vector<std::unique_ptr<Block>> &to)
{
    for (std::unique_ptr<Block> &block : from) {
        if (block)
            to.push_back(std::move(block));
    }
}

} // namespace

std::unique_ptr<MemoryBackend::Chunk>
MemoryBackend::Spares::takeChunk()
{
    base::MutexLock lock(mutex);
    return popBack(chunks);
}

std::unique_ptr<MemoryBackend::DensePage>
MemoryBackend::Spares::takePage()
{
    base::MutexLock lock(mutex);
    return popBack(pages);
}

void
MemoryBackend::Spares::givePage(std::unique_ptr<DensePage> page)
{
    base::MutexLock lock(mutex);
    pages.push_back(std::move(page));
}

void
MemoryBackend::Spares::give(
    std::vector<std::unique_ptr<Chunk>> &chunk_list,
    std::vector<std::unique_ptr<DensePage>> &page_list)
{
    base::MutexLock lock(mutex);
    moveAll(chunk_list, chunks);
    moveAll(page_list, pages);
}

MemoryBackend::MemoryBackend(uint64_t total_bytes)
    : totalBytes(total_bytes), spares(std::make_shared<Spares>()),
      recycles(false),
      chunks((pageCount() + kChunkPages - 1) / kChunkPages)
{}

MemoryBackend::MemoryBackend(uint64_t total_bytes,
                             std::shared_ptr<Spares> from)
    : totalBytes(total_bytes), spares(std::move(from)), recycles(true),
      chunks((pageCount() + kChunkPages - 1) / kChunkPages)
{
    HH_ASSERT(spares != nullptr);
}

MemoryBackend::~MemoryBackend()
{
    giveBack(chunks);
}

void
MemoryBackend::PageData::set(uint16_t idx, uint64_t value,
                             MemoryBackend &store)
{
    if (words) {
        (*words)[idx] = value;
    } else if (wordIdx == kNoWord || wordIdx == idx) {
        // The inline word holds only a value other than the fill.
        wordIdx = value != fill ? idx : kNoWord;
        word = value;
    } else if (value != fill) {
        words = store.newDensePage();
        words->fill(fill);
        (*words)[wordIdx] = word;
        (*words)[idx] = value;
    }
}

std::unique_ptr<MemoryBackend::Chunk>
MemoryBackend::newChunk()
{
    if (recycles) {
        if (std::unique_ptr<Chunk> chunk = spares->takeChunk())
            return chunk;
    }
    ++allocated;
    return std::make_unique<Chunk>();
}

std::unique_ptr<MemoryBackend::DensePage>
MemoryBackend::newDensePage()
{
    if (recycles) {
        if (std::unique_ptr<DensePage> page = spares->takePage())
            return page;
    }
    ++allocated;
    return std::make_unique<DensePage>();
}

void
MemoryBackend::dropDensePage(PageData &slot)
{
    if (recycles && slot.words)
        spares->givePage(std::move(slot.words));
    slot.words.reset();
}

void
MemoryBackend::giveBack(std::vector<std::unique_ptr<Chunk>> &blocks)
{
    if (!recycles)
        return;
    // An absent slot is already a default PageData, so resetting the
    // present ones hands each chunk back as make_unique built it.
    std::vector<std::unique_ptr<DensePage>> pages;
    for (const std::unique_ptr<Chunk> &chunk : blocks) {
        if (!chunk)
            continue;
        for (PageData &slot : *chunk) {
            if (!slot.present)
                continue;
            if (slot.words)
                pages.push_back(std::move(slot.words));
            slot = PageData{};
        }
    }
    spares->give(blocks, pages);
}

const MemoryBackend::PageData *
MemoryBackend::lookup(Pfn pfn) const
{
    const Chunk *chunk = chunks[pfn / kChunkPages].get();
    return chunk != nullptr ? &(*chunk)[pfn % kChunkPages] : nullptr;
}

MemoryBackend::PageData &
MemoryBackend::mutablePage(Pfn pfn)
{
    std::unique_ptr<Chunk> &chunk = chunks[pfn / kChunkPages];
    if (!chunk)
        chunk = newChunk();
    PageData &slot = (*chunk)[pfn % kChunkPages];
    if (!slot.present) {
        slot.present = true;
        ++touched;
    }
    return slot;
}

uint64_t
MemoryBackend::read64(HostPhysAddr addr) const
{
    HH_ASSERT(contains(addr));
    const PageData *slot = lookup(addr.pfn());
    return slot != nullptr ? slot->at(wordIndex(addr)) : 0;
}

void
MemoryBackend::write64(HostPhysAddr addr, uint64_t value)
{
    HH_ASSERT(contains(addr));
    mutablePage(addr.pfn()).set(wordIndex(addr), value, *this);
}

void
MemoryBackend::clearPage(Pfn pfn)
{
    HH_ASSERT(pfn < pageCount());
    Chunk *chunk = chunks[pfn / kChunkPages].get();
    if (chunk == nullptr)
        return;
    PageData &slot = (*chunk)[pfn % kChunkPages];
    if (slot.present)
        --touched;
    dropDensePage(slot);
    slot = PageData{};
}

void
MemoryBackend::fillPage(Pfn pfn, uint64_t pattern)
{
    HH_ASSERT(pfn < pageCount());
    if (pattern == 0) {
        // Identical to untouched memory; reclaim the metadata.
        clearPage(pfn);
        return;
    }
    PageData &slot = mutablePage(pfn);
    slot.fill = pattern;
    slot.wordIdx = kNoWord;
    dropDensePage(slot);
}

uint64_t
MemoryBackend::flipBit(HostPhysAddr addr, unsigned bit_in_word)
{
    HH_ASSERT(bit_in_word < 64);
    const uint64_t value = read64(addr) ^ (1ull << bit_in_word);
    write64(addr, value);
    return value;
}

std::vector<uint16_t>
MemoryBackend::mismatchedWords(Pfn pfn, uint64_t expected_fill) const
{
    HH_ASSERT(pfn < pageCount());
    std::vector<uint16_t> mismatches;
    static const PageData kUntouched;
    const PageData *found = lookup(pfn);
    const PageData &slot = found != nullptr ? *found : kUntouched;
    if (slot.fill == expected_fill) {
        // Only words that differ from the fill can mismatch.
        slot.forEachDiffering(
            [&](uint16_t idx, uint64_t) { mismatches.push_back(idx); });
        return mismatches;
    }
    for (uint16_t i = 0; i < kWordsPerPage; ++i) {
        if (slot.at(i) != expected_fill)
            mismatches.push_back(i);
    }
    return mismatches;
}

void
MemoryBackend::saveState(base::ArchiveWriter &w) const
{
    w.u64(touched);
    for (size_t c = 0; c < chunks.size(); ++c) {
        if (!chunks[c])
            continue;
        for (size_t s = 0; s < kChunkPages; ++s) {
            const PageData &slot = (*chunks[c])[s];
            if (!slot.present)
                continue;
            w.u64(c * kChunkPages + s);
            w.u64(slot.fill);
            uint64_t differing = 0;
            slot.forEachDiffering([&](uint16_t, uint64_t) { ++differing; });
            w.u64(differing);
            slot.forEachDiffering([&](uint16_t idx, uint64_t value) {
                w.u16(idx);
                w.u64(value);
            });
        }
    }
}

} // namespace hh::dram
