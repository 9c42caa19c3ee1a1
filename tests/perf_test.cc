/**
 * @file
 * Host-performance observability tests (DESIGN.md 4e): profiler
 * conservation and sampling accuracy, the non-interference guarantee
 * (profiled runs are bit-identical to unprofiled ones), run-level KPI
 * sources, the BENCH_<label>.json schema round-trip, and the
 * perf_compare verdict rules.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "accel/vecadd.h"
#include "base/json.h"
#include "base/log.h"
#include "base/rng.h"
#include "perf/bench_json.h"
#include "perf/compare.h"
#include "perf/host_clock.h"
#include "perf/host_profiler.h"
#include "perf/kpi.h"
#include "perf/trend.h"
#include "platform/sim_platform.h"
#include "runtime/fpga_handle.h"
#include "sim/module.h"
#include "sim/simulator.h"

namespace beethoven
{
namespace
{

/** A module that burns a calibrated amount of host time per tick. */
class SpinModule : public Module
{
  public:
    SpinModule(Simulator &sim, std::string name, unsigned spins)
        : Module(sim, std::move(name)), _spins(spins)
    {
        // Module's constructor registered us with the simulator.
    }

    void tick() override
    {
        // Data-dependent loop the optimizer can't delete; the volatile
        // sink keeps the host-time cost roughly proportional to _spins.
        volatile u64 acc = 0;
        for (unsigned i = 0; i < _spins; ++i)
            acc = acc + i;
        _sink = acc;
    }

    u64 result() const { return _sink; }

  private:
    unsigned _spins;
    u64 _sink = 0;
};

// ---- profiler: conservation & attribution --------------------------

TEST(HostProfiler, ScopedComponentTimesSumToAtMostTotal)
{
    Simulator sim;
    SpinModule heavy(sim, "heavy", 4000);
    SpinModule light(sim, "light", 100);
    HostProfiler prof(1);
    sim.attachHostProfiler(&prof);

    for (int i = 0; i < 2000; ++i)
        sim.step();

    // Every cycle was measured, per-component slices are disjoint
    // sub-intervals of the step-loop total, so the sum is conserved.
    ASSERT_EQ(prof.sampledCycles(), 2000u);
    EXPECT_EQ(prof.seenCycles(), 2000u);
    u64 sum = 0;
    for (const auto &c : prof.components())
        sum += c.ns;
    EXPECT_LE(sum, prof.totalNs());
    EXPECT_GT(prof.totalNs(), 0u);

    // The heavy module must dominate the breakdown, and the builtin
    // commit bucket must exist (empty here: no Committables).
    const auto top = prof.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].name, "heavy");
    EXPECT_GT(prof.share(top[0]), 0.5);
}

TEST(HostProfiler, SamplingAgreesWithScopedShares)
{
    // Same two-module workload measured both ways; the sampled share
    // estimate must land near the exhaustive one. Tolerance is
    // generous (15 points) because a 1-in-8 sample of 4000 cycles is
    // noisy under CI scheduling.
    auto measure = [](u32 period) {
        Simulator sim;
        SpinModule heavy(sim, "heavy", 4000);
        SpinModule light(sim, "light", 400);
        HostProfiler prof(period);
        sim.attachHostProfiler(&prof);
        for (int i = 0; i < 4000; ++i)
            sim.step();
        for (const auto &c : prof.components())
            if (c.name == "heavy")
                return prof.share(c);
        return 0.0;
    };

    // The two passes are timed back to back, so a scheduler preemption
    // landing in just one of them skews the comparison. Retry a few
    // times and require one clean agreement instead of widening the
    // tolerance until the assertion is vacuous.
    double scoped = 0.0, sampled = 0.0;
    for (int attempt = 0; attempt < 5; ++attempt) {
        scoped = measure(1);
        sampled = measure(8);
        if (scoped > 0.5 && std::abs(sampled - scoped) <= 0.15)
            break;
    }
    EXPECT_GT(scoped, 0.5);
    EXPECT_GT(sampled, 0.0);
    EXPECT_NEAR(sampled, scoped, 0.15);
}

TEST(HostProfiler, SamplingMeasuresOneInPeriodCycles)
{
    Simulator sim;
    SpinModule m(sim, "m", 10);
    HostProfiler prof(64);
    sim.attachHostProfiler(&prof);
    for (int i = 0; i < 6400; ++i)
        sim.step();
    EXPECT_EQ(prof.seenCycles(), 6400u);
    EXPECT_EQ(prof.sampledCycles(), 6400u / 64);
}

TEST(HostProfiler, KpiOnlyModeNeverTimesComponents)
{
    Simulator sim;
    SpinModule m(sim, "m", 10);
    HostProfiler prof(0);
    sim.attachHostProfiler(&prof);
    for (int i = 0; i < 1000; ++i)
        sim.step();
    EXPECT_EQ(prof.seenCycles(), 1000u);
    EXPECT_EQ(prof.sampledCycles(), 0u);
    EXPECT_EQ(prof.totalNs(), 0u);
}

TEST(HostProfiler, HeartbeatStaysBoundedOnLongRuns)
{
    // hb_period=1 records a point every cycle until the coalescing
    // kicks in: past kMaxHeartbeatPoints the window doubles and every
    // other point is dropped, so the series stays bounded no matter
    // how long the run is.
    HostProfiler prof(0, 1);
    for (u64 i = 0; i < 100000; ++i)
        prof.onCycle();
    EXPECT_FALSE(prof.heartbeat().empty());
    EXPECT_LE(prof.heartbeat().size(), HostProfiler::kMaxHeartbeatPoints);
    EXPECT_GT(prof.heartbeatPeriod(), 1u);
    // Cumulative series: cycle counts strictly increase.
    const auto &hb = prof.heartbeat();
    for (std::size_t i = 1; i < hb.size(); ++i)
        EXPECT_LT(hb[i - 1].cycles, hb[i].cycles);
}

TEST(HostProfiler, ComponentsAccumulateAcrossAttachments)
{
    // Benches build one SoC per configuration but reuse the profiler;
    // same-named components must merge rather than duplicate.
    HostProfiler prof(1);
    for (int round = 0; round < 2; ++round) {
        Simulator sim;
        SpinModule m(sim, "ddr", 100);
        sim.attachHostProfiler(&prof);
        for (int i = 0; i < 100; ++i)
            sim.step();
    }
    unsigned ddr_count = 0;
    for (const auto &c : prof.components())
        if (c.name == "ddr")
            ++ddr_count;
    EXPECT_EQ(ddr_count, 1u);
    EXPECT_EQ(prof.seenCycles(), 200u);
}

// ---- non-interference ----------------------------------------------

/** One vecadd run's stats digest and the module ticks it executed. */
struct VecAddRun
{
    std::string digest;
    u64 moduleTicks = 0;
};

/**
 * Canonical vecadd workload on the event kernel; the digest is the
 * full stats-tree JSON plus the final cycle count (same shape as
 * determinism_test.cc). When @p prof is non-null the run is profiled.
 */
VecAddRun
vecAddRun(u64 seed, HostProfiler *prof)
{
    const u64 ticks_before = globalModuleTicks();
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(2));
    AcceleratorSoc soc(std::move(cfg), platform);
    soc.sim().setKernel(SimKernel::Event);
    if (prof != nullptr)
        soc.sim().attachHostProfiler(prof);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    Rng rng(seed);
    const unsigned n = 128;
    std::vector<remote_ptr> bufs;
    for (unsigned c = 0; c < 2; ++c) {
        remote_ptr mem = handle.malloc(n * sizeof(u32));
        auto *vals = mem.as<u32>();
        for (unsigned i = 0; i < n; ++i)
            vals[i] = static_cast<u32>(rng.next());
        handle.copy_to_fpga(mem);
        bufs.push_back(mem);
    }
    std::vector<response_handle<u64>> handles;
    for (unsigned c = 0; c < 2; ++c) {
        handles.push_back(handle.invoke(
            "MyAcceleratorSystem", "my_accel", c,
            {seed & 0xFFFF, bufs[c].getFpgaAddr(), n}));
    }
    for (auto &h : handles)
        h.get();

    soc.sim().publishStallStats();
    std::ostringstream os;
    soc.sim().stats().dumpJson(os);
    os << "@" << soc.sim().cycle();
    return {os.str(), globalModuleTicks() - ticks_before};
}

TEST(HostProfiler, ProfiledRunIsBitIdenticalToUnprofiled)
{
    // The profiler must observe the kernel the run selected: same
    // digest and the same module ticks (sleepers stay asleep) at the
    // default sampling period and when every cycle is measured.
    const VecAddRun plain = vecAddRun(0xD5EED, nullptr);
    EXPECT_FALSE(plain.digest.empty());
    EXPECT_GT(plain.moduleTicks, 0u);
    for (const u32 period : {64u, 1u}) {
        HostProfiler prof(period);
        const VecAddRun profiled = vecAddRun(0xD5EED, &prof);
        EXPECT_EQ(plain.digest, profiled.digest) << "period " << period;
        EXPECT_EQ(plain.moduleTicks, profiled.moduleTicks)
            << "period " << period;
        // And the profiler really ran: it timed some cycles.
        EXPECT_GT(prof.sampledCycles(), 0u) << "period " << period;
        EXPECT_GT(prof.totalNs(), 0u) << "period " << period;
    }
}

// ---- run-level KPI sources -----------------------------------------

TEST(Kpi, PeakRssIsPositive)
{
    // VmHWM (or the getrusage fallback) must report something for a
    // live process.
    EXPECT_GT(peakRssKb(), 0u);
}

TEST(Kpi, AllocCountersTrackHeapChurn)
{
    const AllocCounters before = allocCounters();
    {
        std::vector<std::string> v;
        for (int i = 0; i < 256; ++i)
            v.emplace_back(128, 'x');
    }
    const AllocCounters after = allocCounters();
    EXPECT_GT(after.allocs, before.allocs);
    EXPECT_GT(after.frees, before.frees);
    EXPECT_GT(after.bytes, before.bytes);
}

TEST(Kpi, HostClockIsMonotonic)
{
    const u64 a = hostNowNs();
    const u64 b = hostNowNs();
    EXPECT_LE(a, b);
}

TEST(Kpi, PerfJsonIsParseableAndCarriesKpis)
{
    HostProfiler prof(1);
    Simulator sim;
    SpinModule m(sim, "m", 50);
    sim.attachHostProfiler(&prof);
    for (int i = 0; i < 100; ++i)
        sim.step();

    std::ostringstream os;
    writePerfJson(os, "unit_bench", true, 1000000, 100, 100, &prof);
    const JsonValue v = parseJson(os.str());
    ASSERT_TRUE(v.isObject());
    ASSERT_NE(v.find("schema"), nullptr);
    EXPECT_EQ(v.find("schema")->string, "beethoven-perf-1");
    EXPECT_EQ(v.find("bench")->string, "unit_bench");
    EXPECT_DOUBLE_EQ(v.find("sim_cycles")->number, 100.0);
    EXPECT_GT(v.find("cycles_per_sec")->number, 0.0);
    ASSERT_NE(v.find("host_profile"), nullptr);
    EXPECT_EQ(v.find("host_profile")->find("mode")->string, "scoped");
}

// ---- BENCH suite schema round-trip ---------------------------------

BenchSuite
sampleSuite()
{
    BenchSuite s;
    s.label = "unit \"quoted\" label";
    s.quick = true;
    s.runs = 3;
    BenchPerfRecord r;
    r.name = "fig4_memcpy";
    r.wallMs = 123.5;
    r.simCycles = 500000;
    r.cyclesPerSec = 4048582.9;
    r.peakRssKb = 20480;
    r.moduleTicks = 9000000;
    r.hostTop.push_back({"ddr", 400000, 0.4});
    r.hostTop.push_back({"(commit)", 100000, 0.1});
    s.benches.push_back(r);
    BenchPerfRecord zero;
    zero.name = "table1_machsuite";
    zero.wallMs = 5.0;
    s.benches.push_back(zero);
    return s;
}

TEST(BenchJson, WriteParseRoundTrip)
{
    const BenchSuite in = sampleSuite();
    std::ostringstream os;
    writeBenchSuiteJson(os, in);

    const BenchSuite out = parseBenchSuite(parseJson(os.str()));
    EXPECT_EQ(out.label, in.label);
    EXPECT_EQ(out.quick, in.quick);
    EXPECT_EQ(out.runs, in.runs);
    ASSERT_EQ(out.benches.size(), in.benches.size());
    const BenchPerfRecord *r = out.find("fig4_memcpy");
    ASSERT_NE(r, nullptr);
    EXPECT_DOUBLE_EQ(r->wallMs, 123.5);
    EXPECT_EQ(r->simCycles, 500000u);
    EXPECT_EQ(r->peakRssKb, 20480u);
    EXPECT_EQ(r->moduleTicks, 9000000u);
    ASSERT_EQ(r->hostTop.size(), 2u);
    EXPECT_EQ(r->hostTop[0].component, "ddr");
    EXPECT_EQ(r->hostTop[0].ns, 400000u);
    EXPECT_DOUBLE_EQ(r->hostTop[1].share, 0.1);
    EXPECT_NE(out.find("table1_machsuite"), nullptr);
    EXPECT_EQ(out.find("no_such_bench"), nullptr);
}

TEST(BenchJson, ParserRejectsWrongSchema)
{
    EXPECT_THROW(parseBenchSuite(parseJson("{\"schema\":\"other\"}")),
                 ConfigError);
    EXPECT_THROW(parseBenchSuite(parseJson("{\"p95\": 3}")), ConfigError);
    // Missing required per-bench key.
    EXPECT_THROW(
        parseBenchSuite(parseJson(
            "{\"schema\":\"beethoven-bench-1\",\"label\":\"x\","
            "\"quick\":false,\"runs\":1,"
            "\"benches\":[{\"name\":\"b\"}]}")),
        ConfigError);
}

TEST(BenchJson, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---- compare verdict rules -----------------------------------------

BenchPerfRecord
cpsRecord(const std::string &name, double cps, double wall_ms)
{
    BenchPerfRecord r;
    r.name = name;
    r.cyclesPerSec = cps;
    r.wallMs = wall_ms;
    r.simCycles = cps > 0.0 ? 1000000 : 0;
    return r;
}

TEST(PerfCompare, FlagsSlowdownsPastToleranceOnly)
{
    BenchSuite base, cand;
    base.benches.push_back(cpsRecord("fast_enough", 1000.0, 500));
    cand.benches.push_back(cpsRecord("fast_enough", 950.0, 520));
    base.benches.push_back(cpsRecord("too_slow", 1000.0, 500));
    cand.benches.push_back(cpsRecord("too_slow", 800.0, 640));

    CompareOptions opt;
    opt.tolerance = 0.10;
    const CompareResult res = compareSuites(base, cand, opt);
    ASSERT_EQ(res.deltas.size(), 2u);
    EXPECT_EQ(res.deltas[0].verdict, BenchVerdict::Ok);
    EXPECT_EQ(res.deltas[1].verdict, BenchVerdict::Regressed);
    EXPECT_NEAR(res.deltas[1].deltaPct, -20.0, 0.01);
    EXPECT_TRUE(res.regressed());
}

TEST(PerfTrend, SeriesAlignAcrossCommitsWithAbsenceSentinel)
{
    BenchSuite a, b, c;
    a.label = "seed";
    b.label = "pr1";
    c.label = "pr2";
    a.benches.push_back(cpsRecord("steady", 1000.0, 500));
    b.benches.push_back(cpsRecord("steady", 1100.0, 450));
    c.benches.push_back(cpsRecord("steady", 1200.0, 400));
    // Coverage added at pr1: the seed point records the sentinel and
    // the delta spans pr1 -> pr2 only.
    b.benches.push_back(cpsRecord("late", 2000.0, 100));
    c.benches.push_back(cpsRecord("late", 1000.0, 200));

    const TrendReport rep = buildTrend({a, b, c});
    ASSERT_EQ(rep.labels.size(), 3u);
    ASSERT_EQ(rep.benches.size(), 2u);
    EXPECT_EQ(rep.benches[0].name, "steady");
    EXPECT_NEAR(rep.benches[0].deltaPct, 20.0, 0.01);
    EXPECT_EQ(rep.benches[1].cps[0], BenchTrend::kAbsent);
    EXPECT_NEAR(rep.benches[1].deltaPct, -50.0, 0.01);
    EXPECT_NEAR(rep.worstDropPct(), 50.0, 0.01);
}

TEST(PerfTrend, ElaborationOnlyBenchesNeverFeedTheDelta)
{
    BenchSuite a, b;
    a.label = "seed";
    b.label = "pr1";
    a.benches.push_back(cpsRecord("elab", 0.0, 5));
    b.benches.push_back(cpsRecord("elab", 0.0, 9));
    const TrendReport rep = buildTrend({a, b});
    ASSERT_EQ(rep.benches.size(), 1u);
    EXPECT_EQ(rep.benches[0].deltaPct, 0.0);
    EXPECT_EQ(rep.worstDropPct(), 0.0);
}

TEST(PerfTrend, JsonCarriesSchemaAndNullsAbsences)
{
    BenchSuite a, b;
    a.label = "seed";
    b.label = "pr1";
    a.benches.push_back(cpsRecord("only_seed", 1000.0, 500));
    b.benches.push_back(cpsRecord("only_pr1", 2000.0, 250));
    std::ostringstream os;
    writeTrendJson(os, buildTrend({a, b}));
    const std::string doc = os.str();
    EXPECT_NE(doc.find("beethoven-perf-trend-1"), std::string::npos);
    EXPECT_NE(doc.find("null"), std::string::npos);
    // The document must round-trip through the project's own parser.
    EXPECT_NO_THROW(parseJson(doc));
}

TEST(PerfCompare, FasterCandidateIsNeverARegression)
{
    BenchSuite base, cand;
    base.benches.push_back(cpsRecord("b", 1000.0, 500));
    cand.benches.push_back(cpsRecord("b", 5000.0, 100));
    EXPECT_FALSE(compareSuites(base, cand, {}).regressed());
}

TEST(PerfCompare, MissingBenchCountsAsRegression)
{
    BenchSuite base, cand;
    base.benches.push_back(cpsRecord("gone", 1000.0, 500));
    const CompareResult res = compareSuites(base, cand, {});
    ASSERT_EQ(res.deltas.size(), 1u);
    EXPECT_EQ(res.deltas[0].verdict, BenchVerdict::Missing);
    EXPECT_TRUE(res.regressed());
}

TEST(PerfCompare, NewBenchIsInformationalOnly)
{
    BenchSuite base, cand;
    cand.benches.push_back(cpsRecord("fresh", 1000.0, 500));
    const CompareResult res = compareSuites(base, cand, {});
    ASSERT_EQ(res.deltas.size(), 1u);
    EXPECT_EQ(res.deltas[0].verdict, BenchVerdict::New);
    EXPECT_FALSE(res.regressed());
}

TEST(PerfCompare, ZeroCycleBenchUsesWallTimeAboveFloor)
{
    BenchSuite base, cand;
    base.benches.push_back(cpsRecord("elab", 0.0, 500));
    cand.benches.push_back(cpsRecord("elab", 0.0, 900));
    CompareOptions opt;
    opt.tolerance = 0.10;
    const CompareResult res = compareSuites(base, cand, opt);
    ASSERT_EQ(res.deltas.size(), 1u);
    EXPECT_EQ(res.deltas[0].verdict, BenchVerdict::Regressed);
    EXPECT_EQ(res.deltas[0].note, "wall-time basis");
}

TEST(PerfCompare, ZeroCycleBenchBelowFloorIsAlwaysOk)
{
    // A 5ms elaboration bench tripling to 15ms is scheduler noise,
    // not a regression.
    BenchSuite base, cand;
    base.benches.push_back(cpsRecord("tiny", 0.0, 5));
    cand.benches.push_back(cpsRecord("tiny", 0.0, 15));
    const CompareResult res = compareSuites(base, cand, {});
    ASSERT_EQ(res.deltas.size(), 1u);
    EXPECT_EQ(res.deltas[0].verdict, BenchVerdict::Ok);
    EXPECT_FALSE(res.regressed());
}

// ---- global KPI counters -------------------------------------------

TEST(Kpi, GlobalCycleCountersAdvanceWithSteps)
{
    const u64 cycles_before = globalSimCycles();
    const u64 ticks_before = globalModuleTicks();
    Simulator sim;
    SpinModule a(sim, "a", 1);
    SpinModule b(sim, "b", 1);
    for (int i = 0; i < 50; ++i)
        sim.step();
    EXPECT_EQ(globalSimCycles() - cycles_before, 50u);
    EXPECT_EQ(globalModuleTicks() - ticks_before, 100u);
}

} // namespace
} // namespace beethoven
