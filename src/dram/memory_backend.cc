#include "memory_backend.h"

#include <algorithm>

#include "base/log.h"

namespace hh::dram {

namespace {

constexpr uint16_t
wordIndex(HostPhysAddr addr)
{
    return static_cast<uint16_t>((addr.value() & (kPageSize - 1)) / 8);
}

struct IdxLess
{
    bool
    operator()(const std::pair<uint16_t, uint64_t> &entry,
               uint16_t idx) const
    {
        return entry.first < idx;
    }
};

} // namespace

MemoryBackend::MemoryBackend(uint64_t total_bytes)
    : totalBytes(total_bytes),
      chunks((pageCount() + kChunkPages - 1) / kChunkPages)
{}

std::vector<std::pair<uint16_t, uint64_t>>::const_iterator
MemoryBackend::PageData::find(uint16_t idx) const
{
    auto it = std::lower_bound(overrides.begin(), overrides.end(), idx,
                               IdxLess{});
    if (it != overrides.end() && it->first == idx)
        return it;
    return overrides.end();
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
        chunk = std::make_unique<Chunk>();
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
    if (slot == nullptr)
        return 0;
    const auto ov = slot->find(wordIndex(addr));
    return ov != slot->overrides.end() ? ov->second : slot->fill;
}

void
MemoryBackend::write64(HostPhysAddr addr, uint64_t value)
{
    HH_ASSERT(contains(addr));
    PageData &slot = mutablePage(addr.pfn());
    const uint16_t idx = wordIndex(addr);
    auto it = std::lower_bound(slot.overrides.begin(),
                               slot.overrides.end(), idx, IdxLess{});
    if (it != slot.overrides.end() && it->first == idx)
        it->second = value; // may now equal the fill; the slot stays
    else if (value != slot.fill)
        slot.overrides.insert(it, {idx, value});
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
    slot.overrides.clear();
    slot.overrides.shrink_to_fit();
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
        // Only overridden words can mismatch.
        for (const auto &[idx, value] : slot.overrides) {
            if (value != expected_fill)
                mismatches.push_back(idx);
        }
        return mismatches;
    }
    // Every word mismatches unless overridden back to expected.
    auto ov = slot.overrides.begin();
    for (uint16_t i = 0; i < kPageSize / 8; ++i) {
        const bool overridden =
            ov != slot.overrides.end() && ov->first == i;
        const uint64_t value = overridden ? ov->second : slot.fill;
        if (overridden)
            ++ov;
        if (value != expected_fill)
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
            const auto differs = [&slot](const auto &entry) {
                return entry.second != slot.fill;
            };
            w.u64(static_cast<uint64_t>(std::count_if(
                slot.overrides.begin(), slot.overrides.end(), differs)));
            for (const auto &entry : slot.overrides) {
                if (differs(entry)) {
                    w.u16(entry.first);
                    w.u64(entry.second);
                }
            }
        }
    }
}

base::Status
MemoryBackend::loadState(base::ArchiveReader &r)
{
    std::vector<std::unique_ptr<Chunk>> loaded(chunks.size());
    const uint64_t page_count = r.count(16);
    Pfn prev_pfn = 0;
    for (uint64_t i = 0; i < page_count && r.ok(); ++i) {
        const Pfn pfn = r.u64();
        // saveState() writes each in-range frame once, in PFN order: a
        // repeated PFN would append unsorted overrides to its slot.
        if (pfn >= pageCount() || (i > 0 && pfn <= prev_pfn)) {
            r.fail();
            break;
        }
        prev_pfn = pfn;
        std::unique_ptr<Chunk> &chunk = loaded[pfn / kChunkPages];
        if (!chunk)
            chunk = std::make_unique<Chunk>();
        PageData &slot = (*chunk)[pfn % kChunkPages];
        slot.present = true;
        slot.fill = r.u64();
        const uint64_t override_count = r.count(10);
        slot.overrides.reserve(override_count);
        uint32_t prev_idx = 0;
        for (uint64_t j = 0; j < override_count && r.ok(); ++j) {
            const uint16_t idx = r.u16();
            const uint64_t value = r.u64();
            // Overrides must be sorted, unique, in-page: find() relies
            // on it, so reject rather than rebuild.
            if (idx >= kPageSize / 8 || (j > 0 && idx <= prev_idx)) {
                r.fail();
                break;
            }
            prev_idx = idx;
            slot.overrides.emplace_back(idx, value);
        }
    }
    if (!r.ok())
        return r.status();
    chunks = std::move(loaded);
    touched = page_count;
    return base::Status::success();
}

} // namespace hh::dram
