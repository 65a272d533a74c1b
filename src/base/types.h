/**
 * @file
 * Fundamental address/size types and constants shared across the
 * HyperHammer simulation stack.
 *
 * The simulator distinguishes three address spaces, mirroring the paper's
 * terminology (Section 2.2):
 *   - host physical addresses (HPA), the "real" DRAM addresses;
 *   - guest physical addresses (GPA), what the VM believes is physical;
 *   - I/O virtual addresses (IOVA), the vIOMMU-translated device space.
 *
 * Strong typedef wrappers prevent accidental mixing of the spaces, which
 * is exactly the confusion the attack exploits in the real system.
 */

#ifndef HYPERHAMMER_BASE_TYPES_H
#define HYPERHAMMER_BASE_TYPES_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace hh {

/** 4 KB base page: the granule of the buddy allocator and of EPT leaves. */
constexpr uint64_t kPageSize = 4096;
/** log2 of the base page size. */
constexpr unsigned kPageShift = 12;
/** 2 MB hugepage: THP granule, virtio-mem sub-block, order-9 block. */
constexpr uint64_t kHugePageSize = 2u * 1024 * 1024;
/** log2 of the hugepage size. */
constexpr unsigned kHugePageShift = 21;
/** Number of 4 KB pages per 2 MB hugepage. */
constexpr uint64_t kPagesPerHugePage = kHugePageSize / kPageSize;
/** Number of 64-bit entries in one page-table (or EPT, or IOPT) page. */
constexpr uint64_t kEntriesPerTable = 512;

/** Size literals. */
constexpr uint64_t operator""_KiB(unsigned long long v) { return v << 10; }
constexpr uint64_t operator""_MiB(unsigned long long v) { return v << 20; }
constexpr uint64_t operator""_GiB(unsigned long long v) { return v << 30; }

namespace base {

/**
 * Strongly-typed 64-bit address. The Tag parameter makes HostPhysAddr,
 * GuestPhysAddr and IoVirtAddr mutually unassignable while keeping the
 * arithmetic convenient.
 */
template <typename Tag>
class TypedAddr
{
  public:
    constexpr TypedAddr() = default;
    constexpr explicit TypedAddr(uint64_t value) : _value(value) {}

    /** Raw numeric value of the address. */
    constexpr uint64_t value() const { return _value; }

    /** Page frame number (address >> 12). */
    constexpr uint64_t pfn() const { return _value >> kPageShift; }

    /** Offset within the 4 KB page. */
    constexpr uint64_t pageOffset() const { return _value & (kPageSize - 1); }

    /** Offset within the 2 MB hugepage. */
    constexpr uint64_t
    hugePageOffset() const
    {
        return _value & (kHugePageSize - 1);
    }

    /** Address rounded down to its 4 KB page boundary. */
    constexpr TypedAddr
    pageBase() const
    {
        return TypedAddr(_value & ~(kPageSize - 1));
    }

    /** Address rounded down to its 2 MB hugepage boundary. */
    constexpr TypedAddr
    hugePageBase() const
    {
        return TypedAddr(_value & ~(kHugePageSize - 1));
    }

    /** True when the address is 4 KB aligned. */
    constexpr bool pageAligned() const { return pageOffset() == 0; }

    /** True when the address is 2 MB aligned. */
    constexpr bool hugePageAligned() const { return hugePageOffset() == 0; }

    constexpr TypedAddr
    operator+(uint64_t delta) const
    {
        return TypedAddr(_value + delta);
    }

    constexpr TypedAddr
    operator-(uint64_t delta) const
    {
        return TypedAddr(_value - delta);
    }

    constexpr uint64_t
    operator-(TypedAddr other) const
    {
        return _value - other._value;
    }

    constexpr TypedAddr &
    operator+=(uint64_t delta)
    {
        _value += delta;
        return *this;
    }

    constexpr auto operator<=>(const TypedAddr &) const = default;

  private:
    uint64_t _value = 0;
};

struct HostPhysTag {};
struct GuestPhysTag {};
struct IoVirtTag {};

} // namespace base

/** Host physical address (HPA): indexes real (simulated) DRAM. */
using HostPhysAddr = base::TypedAddr<base::HostPhysTag>;
/** Guest physical address (GPA): what the VM sees as physical memory. */
using GuestPhysAddr = base::TypedAddr<base::GuestPhysTag>;
/** I/O virtual address (IOVA): input to the (v)IOMMU. */
using IoVirtAddr = base::TypedAddr<base::IoVirtTag>;

/** Host page frame number; frame i covers HPA [i*4K, (i+1)*4K). */
using Pfn = uint64_t;

/** An invalid/unset PFN sentinel. */
constexpr Pfn kInvalidPfn = ~0ull;

} // namespace hh

namespace std {

template <typename Tag>
struct hash<hh::base::TypedAddr<Tag>>
{
    size_t
    operator()(const hh::base::TypedAddr<Tag> &a) const noexcept
    {
        return std::hash<uint64_t>{}(a.value());
    }
};

} // namespace std

#endif // HYPERHAMMER_BASE_TYPES_H
