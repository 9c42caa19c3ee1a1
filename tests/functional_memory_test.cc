/**
 * @file
 * Tests for the sparse functional backing store.
 */

#include <gtest/gtest.h>

#include "axi/axi_types.h"
#include "base/rng.h"
#include "dram/functional_memory.h"

namespace beethoven
{
namespace
{

TEST(FunctionalMemory, UnwrittenReadsAsZero)
{
    FunctionalMemory mem;
    u8 buf[16];
    std::fill(std::begin(buf), std::end(buf), 0xFF);
    mem.read(0x123456, sizeof(buf), buf);
    for (u8 b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.numPages(), 0u) << "reads must not materialize pages";
}

TEST(FunctionalMemory, WriteReadRoundTrip)
{
    FunctionalMemory mem;
    const std::vector<u8> data = {1, 2, 3, 4, 5};
    mem.write(100, data.size(), data.data());
    std::vector<u8> out(5);
    mem.read(100, 5, out.data());
    EXPECT_EQ(out, data);
}

TEST(FunctionalMemory, CrossPageAccess)
{
    FunctionalMemory mem;
    // Span three pages.
    std::vector<u8> data(2 * FunctionalMemory::pageBytes + 100);
    Rng rng(5);
    for (auto &b : data)
        b = static_cast<u8>(rng.next());
    const Addr base = FunctionalMemory::pageBytes - 50;
    mem.write(base, data.size(), data.data());
    std::vector<u8> out(data.size());
    mem.read(base, out.size(), out.data());
    EXPECT_EQ(out, data);
    EXPECT_EQ(mem.numPages(), 4u);
}

TEST(FunctionalMemory, TypedAccessors)
{
    FunctionalMemory mem;
    mem.writeValue<u64>(0x1000, 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(mem.readValue<u64>(0x1000), 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(mem.readValue<u32>(0x1000), 0xCAFEF00Du);
    mem.writeValue<double>(0x2000, 3.25);
    EXPECT_EQ(mem.readValue<double>(0x2000), 3.25);
}

TEST(FunctionalMemory, MaskedWriteOnlyTouchesEnabledBytes)
{
    FunctionalMemory mem;
    const std::vector<u8> base(8, 0xAA);
    mem.write(64, base.size(), base.data());

    const Payload data = {1, 2, 3, 4, 5, 6, 7, 8};
    const u64 strb = 0b10000101; // bytes 0, 2 and 7
    mem.writeMasked(64, data, strb);

    std::vector<u8> out(8);
    mem.read(64, 8, out.data());
    EXPECT_EQ(out, (std::vector<u8>{1, 0xAA, 3, 0xAA, 0xAA, 0xAA, 0xAA,
                                    8}));
}

TEST(FunctionalMemory, EmptyStrobeWritesEverything)
{
    FunctionalMemory mem;
    // A beat whose strobe was never set enables every byte.
    WriteBeat beat;
    beat.data = {9, 8, 7};
    mem.writeMasked(0, beat.data, beat.strb);
    std::vector<u8> out(3);
    mem.read(0, 3, out.data());
    EXPECT_EQ(out, (std::vector<u8>{9, 8, 7}));
}

TEST(FunctionalMemory, RandomSparseTraffic)
{
    FunctionalMemory mem;
    Rng rng(77);
    std::map<Addr, u8> model;
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.nextBounded(1ull << 30);
        const u8 v = static_cast<u8>(rng.next());
        mem.write(addr, 1, &v);
        model[addr] = v;
    }
    for (const auto &[addr, v] : model) {
        u8 got = 0;
        mem.read(addr, 1, &got);
        ASSERT_EQ(got, v) << "addr " << addr;
    }
}

} // namespace
} // namespace beethoven
