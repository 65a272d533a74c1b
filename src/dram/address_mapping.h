/**
 * @file
 * DRAM address mapping: physical address -> (bank, row, column).
 *
 * Modern Intel memory controllers compute the bank index as XOR folds of
 * physical-address bits and take the row index from a contiguous bit
 * range. Section 5.1 of the paper reports the reverse-engineered
 * functions for the two evaluation machines:
 *
 *   Core i3-10100: bank bits (17,21) (16,20) (15,19) (14,18) (6,13),
 *   Xeon E3-2124:  bank bits (17,20) (16,19) (15,18) (7,14)
 *                  (8,9,12,13,18,19),
 *   both: row = physical address bits 18..33.
 *
 * Both presets are built in; arbitrary XOR-mask functions can be
 * configured for other systems or for the DRAMDig recovery tests.
 */

#ifndef HYPERHAMMER_DRAM_ADDRESS_MAPPING_H
#define HYPERHAMMER_DRAM_ADDRESS_MAPPING_H

#include <cstdint>
#include <string>
#include <vector>

#include "base/log.h"
#include "base/types.h"

namespace hh::dram {

/** Bank index within the (single-channel, single-rank) simulated DIMM. */
using BankId = uint32_t;
/** Row index within a bank. */
using RowId = uint64_t;

/**
 * XOR-fold based DRAM address mapping.
 *
 * Each bank bit i is the XOR parity of the physical-address bits selected
 * by bankMasks[i]. The row index is the contiguous bit range
 * [rowLoBit, rowHiBit]. Everything below the row bits that is not used
 * for bank selection forms the column.
 */
class AddressMapping
{
  public:
    /**
     * @param bank_masks one bit-mask per bank-index bit; bank bit i is
     *                   the parity of addr & bank_masks[i]
     * @param row_lo_bit lowest physical-address bit of the row index
     * @param row_hi_bit highest physical-address bit of the row index
     */
    AddressMapping(std::vector<uint64_t> bank_masks, unsigned row_lo_bit,
                   unsigned row_hi_bit);

    /** Mapping of the Intel Core i3-10100 (paper system S1). */
    static AddressMapping i3_10100();

    /** Mapping of the Intel Xeon E3-2124 (paper system S2). */
    static AddressMapping xeonE3_2124();

    /**
     * A simple textbook mapping (bank = bits [6..6+n), no XOR) used by
     * unit tests and by the DRAMDig recovery tests.
     */
    static AddressMapping linear(unsigned bank_bits);

    /** Number of bank-index bits. */
    unsigned bankBits() const { return bankMaskList.size(); }

    /** Number of banks (2^bankBits). */
    uint32_t bankCount() const { return 1u << bankBits(); }

    /** Bank index of a physical address. */
    BankId bankOf(HostPhysAddr addr) const;

    /** Row index of a physical address. */
    RowId
    rowOf(HostPhysAddr addr) const
    {
        return (addr.value() >> rowLo) & rowMask;
    }

    /**
     * Physical address of byte @p byte_in_row of (bank, row): the
     * inverse of bankOf() and rowOf(). A row's bytes in one bank run
     * through that bank's granules in increasing address order, so
     * byte 0 is the bank's lowest address in the row. Panics when the
     * row holds no such byte of the bank (an unbalanced function).
     */
    HostPhysAddr
    address(BankId bank, RowId row, uint64_t byte_in_row = 0) const
    {
        const std::vector<uint32_t> &offsets =
            classOffsets(bank ^ rowClass(row));
        const uint64_t granule = byte_in_row >> interleave;
        if (granule >= offsets.size())
            base::panic("no byte %llu of bank %u in row %llu",
                        static_cast<unsigned long long>(byte_in_row),
                        bank, static_cast<unsigned long long>(row));
        return HostPhysAddr(
            (row << rowLo)
            | (static_cast<uint64_t>(offsets[granule]) << interleave)
            | (byte_in_row & ((1ull << interleave) - 1)));
    }

    /** Lowest physical-address bit of the row index. */
    unsigned rowLoBit() const { return rowLo; }
    /** Highest physical-address bit of the row index. */
    unsigned rowHiBit() const { return rowHi; }

    /**
     * Bytes of one row *stripe*: the span of addresses sharing a row
     * index (2^rowLoBit). With row bits 18..33 this is 256 KB, spread
     * over all banks (Section 5.1).
     */
    uint64_t rowStripeBytes() const { return 1ull << rowLo; }

    /** Bytes of one row within a single bank (stripe / banks). */
    uint64_t
    rowBytesPerBank() const
    {
        return rowStripeBytes() / bankCount();
    }

    /**
     * True when every address bit used by the bank function is below
     * @p preserved_bits or inside the row range -- i.e. whether knowing
     * the low @p preserved_bits bits (THP) plus relative row positions
     * suffices to compute bank indices (Section 4.1).
     */
    bool bankBitsPreservedBy(unsigned preserved_bits) const;

    /** The raw bank masks. */
    const std::vector<uint64_t> &bankMasks() const { return bankMaskList; }

    /**
     * Bank-class of an intra-stripe offset: the parity contribution of
     * address bits below rowLoBit. For a fixed row r the set of offsets
     * hitting bank b is { o : offsetClass(o) == b ^ rowClass(r) }.
     */
    BankId offsetClass(uint64_t offset) const;

    /** Parity contribution of the row bits (and above) to the bank. */
    BankId rowClass(RowId row) const;

    /**
     * Interleave granularity: the lowest address bit any bank mask uses.
     * Cells below this granule always share a bank.
     */
    unsigned interleaveShift() const { return interleave; }

    /**
     * All intra-stripe offsets (in interleave-granules) belonging to
     * offset class @p cls, in increasing order. Precomputed; address()
     * reads a (bank, row)'s addresses from it.
     */
    const std::vector<uint32_t> &classOffsets(BankId cls) const;

    /** Equality of the mapping function (used by DRAMDig tests). */
    bool operator==(const AddressMapping &other) const;

    /** Short human-readable description. */
    std::string describe() const;

  private:
    std::vector<uint64_t> bankMaskList;
    unsigned rowLo;
    unsigned rowHi;
    uint64_t rowMask;
    unsigned interleave;
    /** classTable[cls] = sorted granule offsets with offsetClass == cls. */
    std::vector<std::vector<uint32_t>> classTable;
};

} // namespace hh::dram

#endif // HYPERHAMMER_DRAM_ADDRESS_MAPPING_H
