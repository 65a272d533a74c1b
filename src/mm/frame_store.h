/**
 * @file
 * Chunked copy-on-write storage for the buddy allocator's frame
 * database.
 *
 * A 16 GB host has 4 M PageFrame records (~128 MB); deep-copying them
 * per Monte-Carlo trial dominated the clone cost. FrameStore splits the
 * flat array into fixed-size chunks held by shared_ptr: fork() copies
 * only the chunk pointer table, and the first write to a shared chunk
 * copies that one chunk (write-time unsharing). A trial that touches
 * N frames pays O(N / kChunkFrames) chunk copies, not O(total frames).
 *
 * Thread safety matches the trial engine's needs: a frozen template's
 * chunks are only ever read, each fork owns its pointer table
 * exclusively, and mut() copies before the first write whenever a chunk
 * is still shared -- concurrent forks never write the same chunk.
 */

#ifndef HYPERHAMMER_MM_FRAME_STORE_H
#define HYPERHAMMER_MM_FRAME_STORE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "mm/page.h"

namespace hh::mm {

/** Copy-on-write array of PageFrame records, indexed by PFN. */
class FrameStore
{
  public:
    /** Frames per chunk (4096 frames == 16 MiB of managed memory). */
    static constexpr unsigned kChunkShift = 12;
    static constexpr uint64_t kChunkFrames = 1ull << kChunkShift;

    /** @p count value-initialized frames (all defaults). */
    explicit FrameStore(uint64_t count) : frameCount(count)
    {
        chunks.resize((count + kChunkFrames - 1) / kChunkFrames);
        for (auto &chunk : chunks)
            chunk = std::make_shared<Chunk>();
    }

    /** Deep copies are banned: clone via fork(). */
    FrameStore(const FrameStore &) = delete;
    FrameStore &operator=(const FrameStore &) = delete;
    FrameStore(FrameStore &&) = default;
    FrameStore &operator=(FrameStore &&) = default;

    uint64_t size() const { return frameCount; }

    /** Read-only access; never unshares. */
    const PageFrame &
    operator[](Pfn pfn) const
    {
        HH_ASSERT(pfn < frameCount);
        return chunks[pfn >> kChunkShift]->f[pfn & (kChunkFrames - 1)];
    }

    /**
     * Writable access: copies the containing chunk first when it is
     * still shared with a template or another fork.
     */
    PageFrame &
    mut(Pfn pfn)
    {
        HH_ASSERT(pfn < frameCount);
        std::shared_ptr<Chunk> &chunk = chunks[pfn >> kChunkShift];
        if (chunk.use_count() > 1)
            chunk = std::make_shared<Chunk>(*chunk);
        return chunk->f[pfn & (kChunkFrames - 1)];
    }

    /**
     * A copy-on-write clone: shares every chunk. O(chunks), i.e.
     * ~1/4096th of the frame count.
     */
    FrameStore
    fork() const
    {
        FrameStore forked;
        forked.frameCount = frameCount;
        forked.chunks = chunks;
        return forked;
    }

  private:
    struct Chunk
    {
        std::array<PageFrame, kChunkFrames> f{};
    };

    FrameStore() = default;

    uint64_t frameCount = 0;
    std::vector<std::shared_ptr<Chunk>> chunks;
};

} // namespace hh::mm

#endif // HYPERHAMMER_MM_FRAME_STORE_H
