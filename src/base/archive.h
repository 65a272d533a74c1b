/**
 * @file
 * Binary archive writer, bounds-checked reader and crash-safe files.
 *
 * Every stateful component serializes itself to a little-endian byte
 * stream through ArchiveWriter (DESIGN.md section 3.4). For a world
 * the stream is its canonical identity: fork-vs-fresh tests compare
 * streams and the campaign fingerprint hashes config and defense
 * streams; nothing reads a world's stream back. Only range records
 * are persisted, framed by a magic number, a format version and an
 * FNV-1a checksum. Writing is infallible (an
 * in-memory buffer); reading never trusts the input: every primitive
 * read is bounds-checked and a failed read latches a sticky error flag
 * instead of invoking UB, so a corrupted or truncated file degrades to
 * a rejected load, never a crash.
 *
 * File I/O is crash-safe: saveArchiveFile() writes a temporary file,
 * fsync()s it, and rename()s it into place, so a kill at any instant
 * leaves either the old file or the new one, never a torn file.
 */

#ifndef HYPERHAMMER_BASE_ARCHIVE_H
#define HYPERHAMMER_BASE_ARCHIVE_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"

namespace hh::base {

/** 64-bit FNV-1a over a byte range (file checksums, fingerprints). */
uint64_t fnv1a64(const uint8_t *data, size_t size);

/**
 * Append-only little-endian serializer. All writes succeed; a buffer
 * that is persisted is framed and checksummed by saveArchiveFile().
 */
class ArchiveWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf.push_back(v);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    /** Doubles travel as their IEEE-754 bit pattern: exact round-trip. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf.insert(buf.end(), s.begin(), s.end());
    }

    void
    u64vec(const std::vector<uint64_t> &v)
    {
        u64(v.size());
        for (uint64_t x : v)
            u64(x);
    }

    void
    rngState(const std::array<uint64_t, 4> &state)
    {
        for (uint64_t word : state)
            u64(word);
    }

    const std::vector<uint8_t> &buffer() const { return buf; }

    /** Checksum of everything written so far (config fingerprints). */
    uint64_t
    fingerprint() const
    {
        return fnv1a64(buf.data(), buf.size());
    }

  private:
    std::vector<uint8_t> buf;
};

/**
 * Bounds-checked little-endian deserializer over a borrowed buffer,
 * with the primitives the persisted records use.
 *
 * Reads past the end return zero values and latch the sticky error
 * flag; callers deserialize a whole record and check ok() once at the
 * end. No read ever touches memory outside the buffer.
 */
class ArchiveReader
{
  public:
    explicit ArchiveReader(const std::vector<uint8_t> &buffer)
        : data(buffer.data()), size(buffer.size())
    {}

    uint8_t
    u8()
    {
        if (pos + 1 > size) {
            failed = true;
            return 0;
        }
        return data[pos++];
    }

    bool boolean() { return u8() != 0; }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        for (unsigned shift = 0; shift < 32; shift += 8)
            v |= static_cast<uint32_t>(u8()) << shift;
        return v;
    }

    uint64_t
    u64()
    {
        const uint64_t lo = u32();
        const uint64_t hi = u32();
        return lo | (hi << 32);
    }

    /**
     * Element count prefix, validated against the bytes that remain:
     * a corrupted length can never drive a multi-gigabyte allocation.
     * @param elem_bytes minimum serialized size of one element
     */
    uint64_t
    count(uint64_t elem_bytes)
    {
        const uint64_t n = u64();
        if (failed || elem_bytes == 0 || n > (size - pos) / elem_bytes) {
            failed = true;
            return 0;
        }
        return n;
    }

    /** True while every read so far succeeded. */
    bool ok() const { return !failed; }
    bool atEnd() const { return failed || pos == size; }

  private:
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool failed = false;
};

/**
 * Atomically write @p payload to @p path framed as
 * [magic u64 | version u32 | payload size u64 | FNV-1a u64 | payload].
 * The bytes go to "<path>.tmp" first, are fsync()ed, and rename() then
 * publishes them -- a crash leaves the previous file intact.
 */
[[nodiscard]] Status saveArchiveFile(const std::string &path,
                                     uint64_t magic, uint32_t version,
                                     const std::vector<uint8_t> &payload);

/**
 * Load and validate an archive written by saveArchiveFile() and
 * return its payload. Fails with NotFound when the file does not
 * exist and InvalidArgument (with a logged reason) on a wrong magic,
 * a version other than @p version, a truncated body, or a checksum
 * mismatch.
 */
[[nodiscard]] Expected<std::vector<uint8_t>>
loadArchiveFile(const std::string &path, uint64_t magic,
                uint32_t version);

} // namespace hh::base

#endif // HYPERHAMMER_BASE_ARCHIVE_H
