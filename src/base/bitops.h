/**
 * @file
 * Small bit-manipulation helpers used by the DRAM address mapping and the
 * EPT entry format code.
 */

#ifndef HYPERHAMMER_BASE_BITOPS_H
#define HYPERHAMMER_BASE_BITOPS_H

#include <bit>
#include <cstdint>

namespace hh::base {

/** Extract bit @p pos (0-based) of @p value. */
constexpr uint64_t
bit(uint64_t value, unsigned pos)
{
    return (value >> pos) & 1;
}

/** Extract bits [lo, hi] (inclusive, hi >= lo) of @p value. */
constexpr uint64_t
bits(uint64_t value, unsigned hi, unsigned lo)
{
    const unsigned width = hi - lo + 1;
    if (width >= 64)
        return value >> lo;
    return (value >> lo) & ((1ull << width) - 1);
}

/** XOR-parity of all bits of @p value that are set in @p mask. */
constexpr unsigned
maskParity(uint64_t value, uint64_t mask)
{
    return static_cast<unsigned>(std::popcount(value & mask) & 1);
}

/** Integer ceil(log2(v)); returns 0 for v <= 1. */
constexpr unsigned
ceilLog2(uint64_t v)
{
    if (v <= 1)
        return 0;
    return 64 - std::countl_zero(v - 1);
}

/** Integer floor(log2(v)); undefined for v == 0. */
constexpr unsigned
floorLog2(uint64_t v)
{
    return 63 - std::countl_zero(v);
}

/** True when v is a power of two (v != 0). */
constexpr bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Round @p v down to a multiple of @p align (power of two). */
constexpr uint64_t
alignDown(uint64_t v, uint64_t align)
{
    return v & ~(align - 1);
}

} // namespace hh::base

#endif // HYPERHAMMER_BASE_BITOPS_H
