#include "address_mapping.h"

#include <algorithm>
#include <initializer_list>
#include <sstream>

#include "base/bitops.h"
#include "base/log.h"

namespace hh::dram {

namespace {

/** Build a mask from a list of bit positions. */
uint64_t
maskOf(std::initializer_list<unsigned> bit_positions)
{
    uint64_t mask = 0;
    for (unsigned pos : bit_positions)
        mask |= 1ull << pos;
    return mask;
}

} // namespace

AddressMapping::AddressMapping(std::vector<uint64_t> bank_masks,
                               unsigned row_lo_bit, unsigned row_hi_bit)
    : bankMaskList(std::move(bank_masks)),
      rowLo(row_lo_bit),
      rowHi(row_hi_bit),
      rowMask((1ull << (row_hi_bit - row_lo_bit + 1)) - 1)
{
    HH_ASSERT(!bankMaskList.empty());
    HH_ASSERT(rowHi > rowLo);

    // The interleave granule is set by the lowest bank-function bit;
    // the fault model requires it to be at least a 64-byte line.
    uint64_t all_bits = 0;
    for (uint64_t mask : bankMaskList) {
        HH_ASSERT(mask != 0);
        all_bits |= mask;
    }
    interleave = std::countr_zero(all_bits);
    if (interleave < 6)
        base::fatal("bank functions below 64-byte granularity "
                    "are not supported (lowest bit %u)", interleave);

    // Precompute, for every offset class, the intra-stripe granule
    // offsets that fall into it. The intra-stripe space is
    // [0, 2^rowLo) bytes, i.e. 2^(rowLo - interleave) granules.
    const uint32_t granules = 1u << (rowLo - interleave);
    classTable.assign(bankCount(), {});
    for (uint32_t g = 0; g < granules; ++g) {
        const uint64_t offset = static_cast<uint64_t>(g) << interleave;
        classTable[offsetClass(offset)].push_back(g);
    }

    // Sanity: XOR folding spreads offsets evenly across classes only if
    // the bank bits are linearly independent over the intra-stripe
    // space; warn (rather than reject) otherwise so experiments with
    // degenerate functions still run.
    const size_t expected = granules / bankCount();
    for (BankId cls = 0; cls < bankCount(); ++cls) {
        if (classTable[cls].size() != expected) {
            base::warn("bank function is unbalanced: class %u has %zu "
                       "granules (expected %zu)", cls,
                       classTable[cls].size(), expected);
            break;
        }
    }
}

AddressMapping
AddressMapping::i3_10100()
{
    return AddressMapping({
        maskOf({6, 13}),
        maskOf({14, 18}),
        maskOf({15, 19}),
        maskOf({16, 20}),
        maskOf({17, 21}),
    }, 18, 33);
}

AddressMapping
AddressMapping::xeonE3_2124()
{
    return AddressMapping({
        maskOf({7, 14}),
        maskOf({8, 9, 12, 13, 18, 19}),
        maskOf({15, 18}),
        maskOf({16, 19}),
        maskOf({17, 20}),
    }, 18, 33);
}

AddressMapping
AddressMapping::linear(unsigned bank_bits)
{
    std::vector<uint64_t> masks;
    for (unsigned i = 0; i < bank_bits; ++i)
        masks.push_back(1ull << (6 + i));
    return AddressMapping(std::move(masks), 18, 33);
}

BankId
AddressMapping::bankOf(HostPhysAddr addr) const
{
    BankId bank = 0;
    for (size_t i = 0; i < bankMaskList.size(); ++i)
        bank |= base::maskParity(addr.value(), bankMaskList[i]) << i;
    return bank;
}

BankId
AddressMapping::offsetClass(uint64_t offset) const
{
    const uint64_t low_mask = (1ull << rowLo) - 1;
    BankId cls = 0;
    for (size_t i = 0; i < bankMaskList.size(); ++i)
        cls |= base::maskParity(offset, bankMaskList[i] & low_mask) << i;
    return cls;
}

BankId
AddressMapping::rowClass(RowId row) const
{
    const uint64_t high_part = row << rowLo;
    const uint64_t high_mask = ~((1ull << rowLo) - 1);
    BankId cls = 0;
    for (size_t i = 0; i < bankMaskList.size(); ++i)
        cls |= base::maskParity(high_part, bankMaskList[i] & high_mask) << i;
    return cls;
}

bool
AddressMapping::bankBitsPreservedBy(unsigned preserved_bits) const
{
    for (uint64_t mask : bankMaskList) {
        const uint64_t high = mask >> preserved_bits;
        // Bits above the preserved range are tolerable only when they
        // are row bits (the attacker controls relative row indices).
        uint64_t allowed = 0;
        for (unsigned b = rowLo; b <= rowHi; ++b)
            allowed |= 1ull << b;
        if ((high << preserved_bits) & ~allowed)
            return false;
    }
    return true;
}

const std::vector<uint32_t> &
AddressMapping::classOffsets(BankId cls) const
{
    HH_ASSERT(cls < classTable.size());
    return classTable[cls];
}

bool
AddressMapping::operator==(const AddressMapping &other) const
{
    // Two mappings are equivalent iff they have the same row range and
    // the same *set* of bank masks (bank-bit order is irrelevant to
    // bank conflicts).
    if (rowLo != other.rowLo || rowHi != other.rowHi)
        return false;
    auto a = bankMaskList;
    auto b = other.bankMaskList;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
}

std::string
AddressMapping::describe() const
{
    std::ostringstream out;
    out << bankCount() << " banks, fn={";
    for (size_t i = 0; i < bankMaskList.size(); ++i) {
        if (i)
            out << ", ";
        out << "(";
        bool first = true;
        for (unsigned b = 0; b < 64; ++b) {
            if ((bankMaskList[i] >> b) & 1) {
                if (!first)
                    out << ",";
                out << b;
                first = false;
            }
        }
        out << ")";
    }
    out << "}, row bits " << rowLo << ".." << rowHi;
    return out.str();
}

} // namespace hh::dram
