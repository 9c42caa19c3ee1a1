/**
 * @file
 * The per-cycle path is allocation-free: once a pipeline is warm, its
 * queues, flits and transaction state reuse fixed storage, so stepping
 * it makes no heap allocation at all, and the event kernel's wake wheel
 * allocates nothing after construction. The live AXI protocol checker
 * that watches the DRAM port is allocation-free once warm as well. Counted with the process-wide
 * operator new counters (perf/kpi.h).
 */

#include <gtest/gtest.h>

#include <memory>

#include "axi/timeline.h"
#include "dram/controller.h"
#include "mem/reader.h"
#include "mem/scratchpad.h"
#include "mem/writer.h"
#include "perf/kpi.h"

namespace beethoven
{
namespace
{

constexpr Cycle warmupCycles = 2000;
constexpr Cycle measuredCycles = 1000;

/** Allocations made while the simulator steps @p n cycles. */
u64
allocsOver(Simulator &sim, Cycle n)
{
    const u64 before = allocCounters().allocs;
    sim.run(n);
    return allocCounters().allocs - before;
}

/** Keeps one scratchpad port busy: a read (or every fourth cycle a
 *  write) per cycle, draining every response. */
struct SpadDriver : Module
{
    Scratchpad &spad;
    u32 next = 0;
    u64 responses = 0;
    u64 checksum = 0;

    SpadDriver(Simulator &s, Scratchpad &sp)
        : Module(s, "driver"), spad(sp)
    {}

    void
    tick() override
    {
        if (spad.respPort(0).canPop()) {
            checksum += spad.respPort(0).pop().data[0];
            ++responses;
        }
        if (!spad.reqPort(0).canPush())
            return;
        SpadRequest req;
        req.row = next % spad.params().nDatas;
        if (next % 4 == 3) {
            req.write = true;
            req.data.assign(spad.params().rowBytes(),
                            static_cast<u8>(next));
        }
        spad.reqPort(0).push(req);
        ++next;
    }
};

TEST(AllocFree, ScratchpadReadLoop)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 512; // the widest row a payload carries
    p.nDatas = 64;
    p.latency = 2;
    p.supportsInit = false;
    Scratchpad spad(sim, "spad", p, nullptr);
    SpadDriver driver(sim, spad);

    sim.run(warmupCycles);
    const u64 before = driver.responses;
    EXPECT_EQ(allocsOver(sim, measuredCycles), 0u);
    EXPECT_GT(driver.responses - before, measuredCycles / 2)
        << "the read loop must actually stream";
}

/** Moves every Reader word to the Writer's data port. */
struct WordPump : Module
{
    Reader &reader;
    Writer &writer;
    u64 words = 0;

    WordPump(Simulator &s, Reader &r, Writer &w)
        : Module(s, "pump"), reader(r), writer(w)
    {}

    void
    tick() override
    {
        if (reader.dataPort().canPop() && writer.dataPort().canPush()) {
            writer.dataPort().push(reader.dataPort().pop());
            ++words;
        }
    }
};

TEST(AllocFree, ReaderDramWriterStream)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.axi.dataBytes = 64;
    DramController ctrl(sim, "ddr", cfg, mem);
    ReaderParams rp;
    rp.dataBytes = 64;
    rp.burstBeats = 16;
    WriterParams wp;
    wp.dataBytes = 64;
    wp.burstBeats = 16;
    Reader reader(sim, "reader", rp, cfg.axi, 0, &ctrl.arPort(),
                  &ctrl.rPort());
    Writer writer(sim, "writer", wp, cfg.axi, rp.maxInflight,
                  &ctrl.wPort(), &ctrl.bPort());
    WordPump pump(sim, reader, writer);

    // Long enough to outlast warm-up plus the measured window. The
    // host writes both buffers first: the functional store materializes
    // a page on its first touch, which is backing-store setup, not
    // stream traffic.
    const u64 len = 256_KiB;
    const Addr src = 0x100000;
    const Addr dst = 0x800000;
    const std::vector<u8> fill(len, 0x5A);
    mem.write(src, len, fill.data());
    mem.write(dst, len, std::vector<u8>(len, 0).data());
    reader.cmdPort().push({src, len});
    writer.cmdPort().push({dst, len});

    sim.run(warmupCycles);
    const u64 before = pump.words;
    EXPECT_EQ(allocsOver(sim, measuredCycles), 0u);
    EXPECT_GT(pump.words - before, measuredCycles / 4)
        << "the stream must actually move data";
    EXPECT_LT(pump.words * rp.dataBytes, len)
        << "the stream must still be running at the end of the window";
}

TEST(AllocFree, AxiProtocolCheckerStream)
{
    // Eight IDs with a read and a write burst each in flight while the
    // previous round's R beats and B responses retire.
    AxiProtocolChecker checker;
    constexpr u32 ids = 8, beats = 4;
    checker.setIdBounds(ids, ids);
    auto feed = [&](AxiChannel ch, u32 id, u64 tag, u32 n, bool last) {
        AxiEvent e;
        e.channel = ch;
        e.id = id;
        e.tag = tag;
        e.beats = n;
        e.last = last;
        const std::string err = checker.observe(e);
        if (!err.empty())
            ADD_FAILURE() << err;
    };
    auto read_tag = [](u64 round, u32 id) { return (round * ids + id) * 2; };
    auto write_tag = [&](u64 round, u32 id) {
        return read_tag(round, id) + 1;
    };
    auto round = [&](u64 r, bool issue) {
        for (u32 id = 0; id < ids && issue; ++id) {
            feed(AxiChannel::AR, id, read_tag(r, id), beats, false);
            feed(AxiChannel::AW, id, write_tag(r, id), beats, false);
            for (u32 b = 1; b <= beats; ++b)
                feed(AxiChannel::W, id, write_tag(r, id), 0, b == beats);
        }
        for (u32 id = 0; id < ids && r > 0; ++id) {
            for (u32 b = 1; b <= beats; ++b)
                feed(AxiChannel::R, id, read_tag(r - 1, id), 0, b == beats);
            feed(AxiChannel::B, id, write_tag(r - 1, id), 0, false);
        }
    };

    constexpr u64 warmupRounds = 16, measuredRounds = 200;
    for (u64 r = 0; r < warmupRounds; ++r)
        round(r, true);
    const u64 events_before = checker.eventsSeen();
    const u64 allocs_before = allocCounters().allocs;
    for (u64 r = warmupRounds; r < warmupRounds + measuredRounds; ++r)
        round(r, true);
    EXPECT_EQ(allocCounters().allocs - allocs_before, 0u);
    EXPECT_GE(checker.eventsSeen() - events_before, 10'000u);
    EXPECT_EQ(checker.outstandingReads(), ids);
    round(warmupRounds + measuredRounds, false);
    EXPECT_TRUE(checker.quiescent());
}

/**
 * Sleeps until a self-armed wake @p period cycles out, every time. A
 * group sharing one period wakes together, more of them than one wheel
 * slot holds.
 */
struct Beacon : Module
{
    Cycle period;
    u64 ticks = 0;

    Beacon(Simulator &s, Cycle p) : Module(s, "beacon"), period(p)
    {
        declareSleepable();
        declareSelfWake();
    }

    void
    tick() override
    {
        ++ticks;
        requestWakeAt(sim().cycle() + period);
        requestSleep();
    }
};

TEST(AllocFree, WakeWheelScheduleDrain)
{
    // Near wakes (ring slots, 20 of them per slot so some spill into
    // the heap) and far ones (past the 1,024-cycle ring), through the
    // awake bitmap, with no warm-up: the wheel and the bitmap are sized
    // when they are built.
    Simulator sim;
    std::vector<std::unique_ptr<Beacon>> beacons;
    for (const Cycle period : {1, 3, 7, 1000, 1500, 5000})
        beacons.push_back(std::make_unique<Beacon>(sim, period));
    for (int i = 0; i < 20; ++i)
        beacons.push_back(std::make_unique<Beacon>(sim, 16));
    sim.setKernel(SimKernel::Event);

    constexpr Cycle cycles = 10'000;
    EXPECT_EQ(allocsOver(sim, cycles), 0u);
    for (const auto &b : beacons)
        EXPECT_EQ(b->ticks, (cycles - 1) / b->period + 1) << b->period;
}

} // namespace
} // namespace beethoven
