/**
 * @file
 * Unit and property tests for the DRAM address mapping: the published
 * bank functions of both evaluation CPUs, the offset/row class
 * decomposition the fault model relies on, and the THP bit-preservation
 * property the attack depends on (Section 5.1).
 */

#include <gtest/gtest.h>

#include <set>

#include "base/rng.h"
#include "dram/address_mapping.h"

namespace hh::dram {
namespace {

TEST(AddressMapping, I3Preset)
{
    const AddressMapping map = AddressMapping::i3_10100();
    EXPECT_EQ(map.bankBits(), 5u);
    EXPECT_EQ(map.bankCount(), 32u);
    EXPECT_EQ(map.rowLoBit(), 18u);
    EXPECT_EQ(map.rowHiBit(), 33u);
    EXPECT_EQ(map.rowStripeBytes(), 256u * 1024);
    EXPECT_EQ(map.rowBytesPerBank(), 8192u);
}

TEST(AddressMapping, XeonPreset)
{
    const AddressMapping map = AddressMapping::xeonE3_2124();
    EXPECT_EQ(map.bankCount(), 32u);
    EXPECT_EQ(map.rowLoBit(), 18u);
    // The 6-bit mask (8,9,12,13,18,19) must be present.
    bool has_wide_mask = false;
    for (uint64_t mask : map.bankMasks())
        has_wide_mask |= std::popcount(mask) == 6;
    EXPECT_TRUE(has_wide_mask);
}

TEST(AddressMapping, RowOfExtractsBits18To33)
{
    const AddressMapping map = AddressMapping::i3_10100();
    EXPECT_EQ(map.rowOf(HostPhysAddr(0)), 0u);
    EXPECT_EQ(map.rowOf(HostPhysAddr(1ull << 18)), 1u);
    EXPECT_EQ(map.rowOf(HostPhysAddr((1ull << 18) - 1)), 0u);
    EXPECT_EQ(map.rowOf(HostPhysAddr(7ull << 18)), 7u);
    // Bits above 33 do not contribute.
    EXPECT_EQ(map.rowOf(HostPhysAddr(1ull << 34)), 0u);
}

TEST(AddressMapping, BankOfMatchesPaperExample)
{
    const AddressMapping map = AddressMapping::i3_10100();
    // Bank bit 0 is parity of bits (6, 13).
    EXPECT_EQ(map.bankOf(HostPhysAddr(1ull << 6)) & 1u, 1u);
    EXPECT_EQ(map.bankOf(HostPhysAddr((1ull << 6) | (1ull << 13))) & 1u,
              0u);
    // Bank bit 4 is parity of bits (17, 21).
    EXPECT_EQ((map.bankOf(HostPhysAddr(1ull << 17)) >> 4) & 1u, 1u);
    EXPECT_EQ((map.bankOf(HostPhysAddr(1ull << 21)) >> 4) & 1u, 1u);
}

/** Property: bankOf(addr) == offsetClass(low bits) ^ rowClass(row). */
class MappingDecomposition
    : public ::testing::TestWithParam<const char *>
{
  protected:
    AddressMapping
    mapping() const
    {
        const std::string name = GetParam();
        if (name == "i3")
            return AddressMapping::i3_10100();
        if (name == "xeon")
            return AddressMapping::xeonE3_2124();
        return AddressMapping::linear(4);
    }
};

TEST_P(MappingDecomposition, ClassDecompositionHolds)
{
    const AddressMapping map = mapping();
    base::Rng rng(99);
    for (int i = 0; i < 5'000; ++i) {
        const HostPhysAddr addr(rng.below(16_GiB));
        const uint64_t low =
            addr.value() & (map.rowStripeBytes() - 1);
        const BankId expected =
            map.offsetClass(low) ^ map.rowClass(map.rowOf(addr));
        // rowClass only covers bits >= rowLo, but bits above rowHi
        // are not part of the row; mask them off for the check.
        const uint64_t masked = addr.value()
            & ((1ull << (map.rowHiBit() + 1)) - 1);
        EXPECT_EQ(map.bankOf(HostPhysAddr(masked)), expected);
    }
}

TEST_P(MappingDecomposition, ClassOffsetsPartitionTheStripe)
{
    const AddressMapping map = mapping();
    const uint64_t granules = map.rowStripeBytes()
        >> map.interleaveShift();
    std::set<uint32_t> all;
    for (BankId cls = 0; cls < map.bankCount(); ++cls) {
        for (uint32_t g : map.classOffsets(cls)) {
            EXPECT_TRUE(all.insert(g).second) << "duplicate granule";
            // The granule really belongs to this class.
            EXPECT_EQ(map.offsetClass(static_cast<uint64_t>(g)
                                      << map.interleaveShift()),
                      cls);
        }
    }
    EXPECT_EQ(all.size(), granules);
}

TEST_P(MappingDecomposition, ClassesBalanced)
{
    const AddressMapping map = mapping();
    const uint64_t granules = map.rowStripeBytes()
        >> map.interleaveShift();
    for (BankId cls = 0; cls < map.bankCount(); ++cls)
        EXPECT_EQ(map.classOffsets(cls).size(),
                  granules / map.bankCount());
}

TEST_P(MappingDecomposition, AddressInvertsBankOfAndRowOf)
{
    const AddressMapping map = mapping();
    const uint64_t granule = 1ull << map.interleaveShift();
    const uint64_t rows = 1ull << (map.rowHiBit() - map.rowLoBit() + 1);
    base::Rng rng(7);
    for (int i = 0; i < 5'000; ++i) {
        const BankId bank = static_cast<BankId>(rng.below(map.bankCount()));
        const RowId row = rng.below(rows);
        const uint64_t byte = rng.below(map.rowBytesPerBank());
        const HostPhysAddr addr = map.address(bank, row, byte);
        EXPECT_EQ(map.bankOf(addr), bank);
        EXPECT_EQ(map.rowOf(addr), row);
        EXPECT_EQ(addr.value() % granule, byte % granule);
    }
    // One (bank, row)'s granules are distinct and increasing.
    for (uint64_t byte = granule; byte < map.rowBytesPerBank();
         byte += granule)
        EXPECT_LT(map.address(5, 3, byte - granule), map.address(5, 3, byte));
}

INSTANTIATE_TEST_SUITE_P(Presets, MappingDecomposition,
                         ::testing::Values("i3", "xeon", "linear"));

TEST(AddressMapping, AddressPanicsForAnEmptyBank)
{
    // A repeated mask makes both bank bits equal: banks 1 and 2 hold
    // no address at all.
    const AddressMapping map({1ull << 6, 1ull << 6}, 18, 33);
    EXPECT_EQ(map.bankOf(map.address(3, 4)), 3u);
    EXPECT_DEATH((void)map.address(1, 4), "no byte 0 of bank 1");
}

TEST(AddressMapping, BankBitsPreservedByThp)
{
    // Both paper CPUs: every bank-function bit is either below 21 or a
    // row bit, so the attacker can reason about banks from hugepage
    // offsets (Section 5.1).
    EXPECT_TRUE(AddressMapping::i3_10100().bankBitsPreservedBy(21));
    EXPECT_TRUE(AddressMapping::xeonE3_2124().bankBitsPreservedBy(21));
}

TEST(AddressMapping, BankBitsNotPreservedForHighMask)
{
    // A function using bit 35 (neither low nor row bit) breaks the
    // THP trick.
    AddressMapping map({(1ull << 6) | (1ull << 35)}, 18, 33);
    EXPECT_FALSE(map.bankBitsPreservedBy(21));
}

TEST(AddressMapping, LinearMapping)
{
    const AddressMapping map = AddressMapping::linear(3);
    EXPECT_EQ(map.bankCount(), 8u);
    EXPECT_EQ(map.bankOf(HostPhysAddr(0)), 0u);
    EXPECT_EQ(map.bankOf(HostPhysAddr(0b111ull << 6)), 7u);
}

TEST(AddressMapping, EqualityIsMaskSetBased)
{
    EXPECT_TRUE(AddressMapping::i3_10100()
                == AddressMapping::i3_10100());
    EXPECT_FALSE(AddressMapping::i3_10100()
                 == AddressMapping::xeonE3_2124());
}

TEST(AddressMapping, DescribeMentionsGeometry)
{
    const std::string desc = AddressMapping::i3_10100().describe();
    EXPECT_NE(desc.find("32 banks"), std::string::npos);
    EXPECT_NE(desc.find("18..33"), std::string::npos);
}

TEST(AddressMapping, SameBankPairsExistAcrossAdjacentRows)
{
    // The profiler's core assumption: for any two adjacent rows there
    // is, within each bank, at least one address in each row.
    const AddressMapping map = AddressMapping::i3_10100();
    for (RowId row = 0; row < 16; ++row) {
        for (BankId bank = 0; bank < map.bankCount(); ++bank) {
            const BankId cls0 = bank ^ map.rowClass(row);
            const BankId cls1 = bank ^ map.rowClass(row + 1);
            EXPECT_FALSE(map.classOffsets(cls0).empty());
            EXPECT_FALSE(map.classOffsets(cls1).empty());
        }
    }
}

} // namespace
} // namespace hh::dram
