/**
 * @file
 * Tests for the DRAM controller: address mapping, protocol legality
 * under random traffic, same-ID ordering, row-hit timing benefits,
 * TLP bandwidth behaviour and write-data integrity.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "base/rng.h"
#include "dram/controller.h"

namespace beethoven
{
namespace
{

TEST(DramMapping, RotatesBanksAcrossBeats)
{
    DramGeometry g;
    std::set<unsigned> banks;
    for (unsigned beat = 0; beat < g.numBanks(); ++beat)
        banks.insert(mapAddress(g, beat * g.interleaveBytes).bank);
    EXPECT_EQ(banks.size(), g.numBanks())
        << "consecutive beats must hit distinct banks";
}

TEST(DramMapping, RowCoversContiguousSpan)
{
    DramGeometry g;
    const auto first = mapAddress(g, 0);
    // Same bank, next column: one full rotation later.
    const auto next_col =
        mapAddress(g, u64(g.numBanks()) * g.interleaveBytes);
    EXPECT_EQ(next_col.bank, first.bank);
    EXPECT_EQ(next_col.row, first.row);
    EXPECT_EQ(next_col.column, first.column + 1);
    // Past the row: row increments.
    const u64 row_span = u64(g.numBanks()) * g.rowBytesPerBank;
    const auto next_row = mapAddress(g, row_span);
    EXPECT_EQ(next_row.bank, first.bank);
    EXPECT_EQ(next_row.row, first.row + 1);
}

struct CtrlHarness
{
    Simulator sim;
    FunctionalMemory mem;
    DramController ctrl;

    explicit CtrlHarness(unsigned data_bytes = 64)
        : ctrl(sim, "ddr", makeConfig(data_bytes), mem)
    {
        ctrl.timeline().setEnabled(true);
    }

    static DramController::Config
    makeConfig(unsigned data_bytes)
    {
        DramController::Config cfg;
        cfg.axi.dataBytes = data_bytes;
        return cfg;
    }

    /** Issue a read and wait for all beats; returns (latency, data). */
    std::pair<Cycle, std::vector<u8>>
    blockingRead(u32 id, Addr addr, u32 beats)
    {
        ReadRequest req{id, addr, beats, nextGlobalTag()};
        while (!ctrl.arPort().canPush())
            sim.step();
        ctrl.arPort().push(req);
        const Cycle start = sim.cycle();
        std::vector<u8> data;
        u32 got = 0;
        while (got < beats) {
            if (ctrl.rPort().canPop()) {
                ReadBeat b = ctrl.rPort().pop();
                EXPECT_EQ(b.tag, req.tag);
                data.insert(data.end(), b.data.begin(), b.data.end());
                ++got;
                EXPECT_EQ(b.last, got == beats);
            } else {
                sim.step();
                if (sim.cycle() - start > 100000u) {
                    ADD_FAILURE() << "read hung";
                    return {0, {}};
                }
            }
        }
        return {sim.cycle() - start, data};
    }

    /** Issue a full write burst and wait for B. */
    void
    blockingWrite(u32 id, Addr addr, const std::vector<u8> &bytes)
    {
        const unsigned bus = ctrl.config().axi.dataBytes;
        const u32 beats = static_cast<u32>(bytes.size() / bus);
        const u64 tag = nextGlobalTag();
        for (u32 b = 0; b < beats; ++b) {
            WriteFlit flit;
            if (b == 0) {
                flit.hasHeader = true;
                flit.header = {id, addr, beats, tag};
            }
            flit.beat.data.assign(bytes.begin() + b * bus,
                                  bytes.begin() + (b + 1) * bus);
            flit.beat.last = b + 1 == beats;
            while (!ctrl.wPort().canPush())
                sim.step();
            ctrl.wPort().push(std::move(flit));
            sim.step();
        }
        const Cycle start = sim.cycle();
        while (true) {
            if (ctrl.bPort().canPop()) {
                EXPECT_EQ(ctrl.bPort().pop().tag, tag);
                return;
            }
            sim.step();
            ASSERT_LT(sim.cycle() - start, 100000u) << "write hung";
        }
    }
};

TEST(DramController, ReadReturnsWrittenData)
{
    CtrlHarness h;
    std::vector<u8> bytes(4096);
    Rng rng(3);
    for (auto &b : bytes)
        b = static_cast<u8>(rng.next());
    h.mem.write(0x10000, bytes.size(), bytes.data());
    auto [latency, data] = h.blockingRead(0, 0x10000, 64);
    EXPECT_EQ(data, bytes);
}

TEST(DramController, WriteLandsInMemoryExactly)
{
    CtrlHarness h;
    std::vector<u8> bytes(1024);
    Rng rng(4);
    for (auto &b : bytes)
        b = static_cast<u8>(rng.next());
    // Surround with sentinels to catch overwrites.
    std::vector<u8> sentinel(64, 0x5A);
    h.mem.write(0x20000 - 64, 64, sentinel.data());
    h.mem.write(0x20000 + 1024, 64, sentinel.data());

    h.blockingWrite(1, 0x20000, bytes);
    std::vector<u8> out(1024);
    h.mem.read(0x20000, 1024, out.data());
    EXPECT_EQ(out, bytes);
    std::vector<u8> before(64), after(64);
    h.mem.read(0x20000 - 64, 64, before.data());
    h.mem.read(0x20000 + 1024, 64, after.data());
    EXPECT_EQ(before, sentinel);
    EXPECT_EQ(after, sentinel);
}

TEST(DramController, RowHitFasterThanRowMiss)
{
    CtrlHarness h;
    const DramGeometry g = h.ctrl.config().geometry;
    // Warm a row. Use distinct AXI IDs and idle gaps so the same-ID
    // reorder-slot recycle does not contaminate the comparison.
    h.blockingRead(0, 0, 1);
    h.sim.run(64);
    const auto [hit_latency, d1] = h.blockingRead(1, 0, 1);
    // Different row in the same bank.
    h.sim.run(64);
    const Addr other_row = u64(g.numBanks()) * g.rowBytesPerBank * 7;
    ASSERT_EQ(mapAddress(g, other_row).bank, mapAddress(g, 0ull).bank);
    const auto [miss_latency, d2] = h.blockingRead(2, other_row, 1);
    EXPECT_LT(hit_latency, miss_latency);
}

TEST(DramController, SameIdReadsReturnInRequestOrder)
{
    CtrlHarness h;
    // Queue several reads on one ID to scattered rows; responses must
    // come back in request order regardless of row state.
    std::vector<u64> tags;
    Rng rng(8);
    for (int i = 0; i < 6; ++i) {
        ReadRequest req;
        req.id = 3;
        req.addr = (rng.nextBounded(64)) * 1_MiB;
        req.beats = 4;
        req.tag = nextGlobalTag();
        while (!h.ctrl.arPort().canPush())
            h.sim.step();
        h.ctrl.arPort().push(req);
        tags.push_back(req.tag);
        h.sim.step();
    }
    std::vector<u64> seen;
    const Cycle start = h.sim.cycle();
    while (seen.size() < tags.size()) {
        if (h.ctrl.rPort().canPop()) {
            ReadBeat b = h.ctrl.rPort().pop();
            if (b.last)
                seen.push_back(b.tag);
        } else {
            h.sim.step();
        }
        ASSERT_LT(h.sim.cycle() - start, 100000u);
    }
    EXPECT_EQ(seen, tags);
}

TEST(DramController, RandomTrafficIsAxiLegal)
{
    CtrlHarness h;
    Rng rng(123);
    for (int i = 0; i < 40; ++i) {
        if (rng.nextBounded(2) == 0) {
            h.blockingRead(static_cast<u32>(rng.nextBounded(8)),
                           rng.nextBounded(256) * 4096,
                           1 + static_cast<u32>(rng.nextBounded(16)));
        } else {
            std::vector<u8> data(
                64 * (1 + rng.nextBounded(8)));
            for (auto &b : data)
                b = static_cast<u8>(rng.next());
            h.blockingWrite(static_cast<u32>(rng.nextBounded(8)),
                            rng.nextBounded(256) * 4096, data);
        }
    }
    EXPECT_EQ(checkAxiProtocol(h.ctrl.timeline().events()), "");
}

TEST(DramController, DistinctIdsOverlapSameIdsSerialize)
{
    // Aggregate bandwidth with 4 outstanding reads: distinct IDs must
    // beat one shared ID (the paper's central TLP claim).
    auto run = [](bool distinct) {
        CtrlHarness h;
        h.ctrl.timeline().setEnabled(false);
        const unsigned txns = 64, beats = 16;
        unsigned issued = 0, retired = 0;
        const Cycle start = h.sim.cycle();
        std::map<u64, u32> outstanding;
        while (retired < txns) {
            if (issued < txns && outstanding.size() < 4 &&
                h.ctrl.arPort().canPush()) {
                ReadRequest req;
                req.id = distinct ? (issued % 4) : 0;
                req.addr = Addr(issued) * 1024;
                req.beats = beats;
                req.tag = nextGlobalTag();
                h.ctrl.arPort().push(req);
                outstanding[req.tag] = 0;
                ++issued;
            }
            if (h.ctrl.rPort().canPop()) {
                ReadBeat b = h.ctrl.rPort().pop();
                if (b.last) {
                    outstanding.erase(b.tag);
                    ++retired;
                }
            }
            h.sim.step();
        }
        return h.sim.cycle() - start;
    };
    const Cycle distinct = run(true);
    const Cycle same = run(false);
    EXPECT_LT(distinct * 5, same * 4)
        << "TLP should be >25% faster (distinct=" << distinct
        << " same=" << same << ")";
}

/** FNV-1a over @p n bytes, continuing from @p h. */
u64
fnv1a(u64 h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const u8 *>(p);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ b[i]) * 0x100000001b3ULL;
    return h;
}

struct PinnedRun
{
    u64 timelineHash = 0xcbf29ce484222325ULL;
    u64 statsHash = 0;
    std::size_t events = 0;
    double refreshes = 0, turnarounds = 0, rowMisses = 0, queueWait = 0;
};

/**
 * Seeded multi-ID read/write traffic against a bare controller: random
 * IDs (so same-ID successors pay the recycle gate), bursts of 1-16 and
 * 64 beats over a few rows per bank (row hits and misses), phases that
 * alternate read- and write-heavy mixes (drain-mode flips and bus
 * turnarounds), gaps in W delivery and R/B back-pressure, long enough
 * for several refresh windows, then a full drain.
 */
PinnedRun
runPinnedTraffic(unsigned bank_groups, unsigned banks_per_group,
                 unsigned window, u64 seed)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.geometry.nBankGroups = bank_groups;
    cfg.geometry.banksPerGroup = banks_per_group;
    cfg.schedulerWindow = window;
    DramController ctrl(sim, "ddr", cfg, mem);
    ctrl.timeline().setEnabled(true);
    const u64 row_span =
        u64(cfg.geometry.numBanks()) * cfg.geometry.rowBytesPerBank;
    Rng rng(seed);
    auto random_addr = [&] {
        return rng.nextBounded(6) * row_span + rng.nextBounded(96) * 64;
    };
    auto random_beats = [&] {
        return rng.nextBounded(8) == 0
                   ? 64u
                   : 1u + static_cast<u32>(rng.nextBounded(16));
    };
    u64 tag = 1;
    u64 reads_out = 0, writes_out = 0;
    u32 w_left = 0, w_beats = 0;
    WriteRequest w_header;
    u64 data_hash = 0;
    const Cycle traffic_cycles = 24000;
    while (true) {
        const Cycle now = sim.cycle();
        const bool traffic = now < traffic_cycles;
        const bool write_heavy = (now / 3000) % 2 == 1;
        if (traffic && ctrl.arPort().canPush() &&
            rng.nextBounded(write_heavy ? 12 : 3) == 0) {
            ReadRequest req{static_cast<u32>(rng.nextBounded(6)),
                            random_addr(), random_beats(), tag++};
            ctrl.arPort().push(req);
            ++reads_out;
        }
        if (w_left == 0 && traffic &&
            rng.nextBounded(write_heavy ? 4 : 24) == 0) {
            w_beats = w_left = random_beats();
            w_header = {static_cast<u32>(rng.nextBounded(6)), random_addr(),
                        w_beats, tag++};
            ++writes_out;
        }
        if (w_left != 0 && ctrl.wPort().canPush() &&
            rng.nextBounded(6) != 0) {
            WriteFlit flit;
            flit.hasHeader = w_left == w_beats;
            if (flit.hasHeader)
                flit.header = w_header;
            flit.beat.data.resize(cfg.axi.dataBytes);
            for (std::size_t i = 0; i < flit.beat.data.size(); ++i)
                flit.beat.data[i] = static_cast<u8>(rng.next());
            flit.beat.last = --w_left == 0;
            ctrl.wPort().push(std::move(flit));
        }
        if (ctrl.rPort().canPop() && rng.nextBounded(5) != 0) {
            const ReadBeat b = ctrl.rPort().pop();
            data_hash = fnv1a(data_hash, b.data.data(), b.data.size());
            if (b.last)
                --reads_out;
        }
        if (ctrl.bPort().canPop() && rng.nextBounded(5) != 0) {
            ctrl.bPort().pop();
            --writes_out;
        }
        if (!traffic && w_left == 0 && reads_out == 0 && writes_out == 0)
            break;
        if (now > traffic_cycles + 200000) {
            ADD_FAILURE() << "pinned traffic did not drain";
            break;
        }
        sim.step();
    }

    PinnedRun run;
    for (const AxiEvent &e : ctrl.timeline().events()) {
        const u64 fields[] = {e.cycle,
                              static_cast<u64>(e.channel),
                              e.id,
                              e.tag,
                              e.addr,
                              e.beats,
                              static_cast<u64>(e.last)};
        run.timelineHash = fnv1a(run.timelineHash, fields, sizeof(fields));
    }
    run.timelineHash = fnv1a(run.timelineHash, &data_hash, sizeof(data_hash));
    run.events = ctrl.timeline().events().size();
    std::ostringstream json;
    sim.stats().dumpJson(json);
    const std::string dump = json.str();
    run.statsHash = fnv1a(0xcbf29ce484222325ULL, dump.data(), dump.size());
    StatGroup &g = sim.stats().group("ddr");
    run.refreshes = ctrl.refreshes();
    run.rowMisses = ctrl.activates();
    run.turnarounds = g.scalar("turnarounds").value();
    for (int id = 0; id < 6; ++id) {
        run.queueWait += g.group("ids")
                             .group("rd" + std::to_string(id))
                             .scalar("queueWait")
                             .value();
    }
    return run;
}

// Every scheduling decision of the controller, pinned: the AXI event
// sequence (cycle, channel, ID, tag, address, burst, last), the read
// data and the full stats dump must match the values recorded before
// the scheduler's candidate search was rewritten. A change to these
// constants is a change to modeled behaviour, not a refactor.
TEST(DramController, SchedulingDecisionsPinned)
{
    struct Case
    {
        unsigned groups, perGroup, window;
        u64 seed;
        u64 timelineHash, statsHash;
        std::size_t events;
    };
    const Case cases[] = {
        {4, 4, 16, 19, 0xcc030399cb95a4ecULL, 0x9ed246b9dc0e781fULL, 22760},
        {2, 2, 16, 23, 0x2393ef24cece6a4fULL, 0xde55627bc0e5de78ULL, 22495},
        {4, 4, 4, 29, 0xa2746f378bca9be8ULL, 0x6940437160c0e2feULL, 20739},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::to_string(c.groups * c.perGroup) + " banks, window " +
                     std::to_string(c.window));
        const PinnedRun run =
            runPinnedTraffic(c.groups, c.perGroup, c.window, c.seed);
        // The traffic reaches every mechanism the scheduler arbitrates.
        EXPECT_GE(run.refreshes, 10.0);
        EXPECT_GT(run.turnarounds, 100.0);
        EXPECT_GT(run.rowMisses, 100.0);
        EXPECT_GT(run.queueWait, 100.0);
        EXPECT_EQ(run.events, c.events);
        EXPECT_EQ(run.timelineHash, c.timelineHash);
        EXPECT_EQ(run.statsHash, c.statsHash);
    }
}

TEST(DramController, RejectsOversizedBursts)
{
    CtrlHarness h;
    ReadRequest req{0, 0, 65, nextGlobalTag()}; // max is 64
    h.ctrl.arPort().push(req);
    EXPECT_DEATH({ h.sim.run(4); }, "illegal read burst");
}

} // namespace
} // namespace beethoven
