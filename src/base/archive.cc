#include "base/archive.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "base/log.h"

namespace hh::base {

uint64_t
fnv1a64(const uint8_t *data, size_t size)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace {

// File frame: magic u64 | version u32 | payload size u64 | FNV-1a u64.
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 8;

void
putLe64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
putLe32(uint8_t *out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t
getLe64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(in[i]) << (8 * i);
    return v;
}

uint32_t
getLe32(const uint8_t *in)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(in[i]) << (8 * i);
    return v;
}

} // namespace

Status
saveArchiveFile(const std::string &path, uint64_t magic,
                uint32_t version, const std::vector<uint8_t> &payload)
{
    std::array<uint8_t, kHeaderBytes> header{};
    putLe64(header.data(), magic);
    putLe32(header.data() + 8, version);
    putLe64(header.data() + 12, payload.size());
    putLe64(header.data() + 20, fnv1a64(payload.data(), payload.size()));

    const std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        warn("archive: cannot open %s for writing: %s", tmp.c_str(),
             std::strerror(errno));
        return Status(ErrorCode::Denied);
    }
    bool ok = std::fwrite(header.data(), 1, header.size(), f) ==
              header.size();
    if (ok && !payload.empty())
        ok = std::fwrite(payload.data(), 1, payload.size(), f) ==
             payload.size();
    // Crash safety: the rename below must publish fully-durable bytes,
    // so flush libc buffers and fsync before the close.
    if (ok)
        ok = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    if (std::fclose(f) != 0)
        ok = false;
    if (!ok) {
        warn("archive: short write to %s: %s", tmp.c_str(),
             std::strerror(errno));
        (void)std::remove(tmp.c_str());
        return Status(ErrorCode::NoMemory);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("archive: rename %s -> %s failed: %s", tmp.c_str(),
             path.c_str(), std::strerror(errno));
        (void)std::remove(tmp.c_str());
        return Status(ErrorCode::Denied);
    }
    return Status::success();
}

Expected<std::vector<uint8_t>>
loadArchiveFile(const std::string &path, uint64_t magic,
                uint32_t version)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return ErrorCode::NotFound;

    std::array<uint8_t, kHeaderBytes> header{};
    if (std::fread(header.data(), 1, header.size(), f) != header.size()) {
        std::fclose(f);
        warn("archive: %s is shorter than the %zu-byte header",
             path.c_str(), kHeaderBytes);
        return ErrorCode::InvalidArgument;
    }
    const uint64_t file_magic = getLe64(header.data());
    const uint32_t file_version = getLe32(header.data() + 8);
    const uint64_t payload_size = getLe64(header.data() + 12);
    const uint64_t checksum = getLe64(header.data() + 20);

    if (file_magic != magic) {
        std::fclose(f);
        warn("archive: %s has magic %016llx, expected %016llx",
             path.c_str(), (unsigned long long)file_magic,
             (unsigned long long)magic);
        return ErrorCode::InvalidArgument;
    }
    if (file_version != version) {
        std::fclose(f);
        warn("archive: %s has format version %u, expected %u",
             path.c_str(), file_version, version);
        return ErrorCode::InvalidArgument;
    }

    // Validate the declared size against the actual file length before
    // allocating, so a corrupted header cannot drive a huge allocation.
    const long body_start = std::ftell(f);
    if (body_start < 0 || std::fseek(f, 0, SEEK_END) != 0) {
        std::fclose(f);
        return ErrorCode::InvalidArgument;
    }
    const long file_end = std::ftell(f);
    if (file_end < body_start ||
        payload_size != static_cast<uint64_t>(file_end - body_start)) {
        std::fclose(f);
        warn("archive: %s declares %llu payload bytes but holds %lld",
             path.c_str(), (unsigned long long)payload_size,
             (long long)(file_end - body_start));
        return ErrorCode::InvalidArgument;
    }
    if (std::fseek(f, body_start, SEEK_SET) != 0) {
        std::fclose(f);
        return ErrorCode::InvalidArgument;
    }

    std::vector<uint8_t> payload(payload_size);
    if (payload_size != 0 &&
        std::fread(payload.data(), 1, payload_size, f) != payload_size) {
        std::fclose(f);
        warn("archive: truncated read of %s", path.c_str());
        return ErrorCode::InvalidArgument;
    }
    std::fclose(f);

    const uint64_t actual = fnv1a64(payload.data(), payload.size());
    if (actual != checksum) {
        warn("archive: %s checksum mismatch (stored %016llx, computed "
             "%016llx)",
             path.c_str(), (unsigned long long)checksum,
             (unsigned long long)actual);
        return ErrorCode::InvalidArgument;
    }
    return payload;
}

} // namespace hh::base
