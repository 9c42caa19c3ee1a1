/**
 * @file
 * Benchmark harness: runs one seeded closed-loop workload through the
 * public runtime API and reports what it measured as JSON lines on
 * stdout. perfbench/run.py builds this binary, drives it and turns the
 * lines into metrics; see perfbench/README.md for the workloads.
 *
 *   soc_workload --workload=W --seed=N --seconds=S [--trace-out=FILE]
 *                [--window=N]
 *
 * The harness repeats rounds until S seconds have passed (at least one
 * round, two when tracing). Every round builds a fresh SoC from the
 * same inputs: fit search (MachSuite workloads), elaboration, runtime
 * server, malloc and input DMA (the "setup" phase); a closed loop of
 * commands (the "run" phase: each core keeps two commands outstanding,
 * responses are collected in issue order and the freed core gets the
 * next command); and read-back, golden compare and the final
 * invariant check (the "verify" phase). Every round uses the default
 * event kernel with SocInvariants armed and no trace sink, host
 * profiler or power meter attached.
 *
 * With --trace-out, even rounds additionally record a span around
 * every invoke() and get() (odd rounds stay untraced, so the two can
 * be compared in one process); all spans are kept in memory and
 * written to FILE at exit.
 *
 * Output lines (one JSON object each, in order):
 *   {"kind":"meta", ...}        build type, compiler, workload plan
 *   {"kind":"run_start", ...}   a round's command count, before its
 *                               first invoke
 *   {"kind":"op", ...}          after every completed get(), so a
 *                               process killed at a deadline still
 *                               tells how many commands finished
 *   {"kind":"round", ...}       a round's host times, modeled
 *                               counters and its final stats tree
 *   {"kind":"done", ...}        peak RSS, once at exit
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/machsuite/nw.h"
#include "accel/memcpy_core.h"
#include "base/log.h"
#include "baselines/machsuite_golden.h"
#include "perf/kpi.h"
#include "platform/aws_f1.h"
#include "power/power.h"
#include "runtime/fpga_handle.h"
#include "sim/simulator.h"
#include "verify/invariants.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace beethoven;
using namespace beethoven::machsuite;

namespace
{

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** SplitMix64: the benchmark's own input generator, independent of
 *  the simulator's Rng so that library changes never move inputs. */
class SplitMix
{
  public:
    explicit SplitMix(u64 seed) : _s(seed) {}

    u64
    next()
    {
        u64 z = (_s += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    u64 bounded(u64 n) { return next() % n; }

  private:
    u64 _s;
};

/** One host span: a public API call or a phase around several. */
struct Span
{
    std::string name;
    int parent = -1;
    int cmd = -1; ///< command id shared by cmd/invoke/get spans
    int round = -1;
    u64 t0 = 0, t1 = 0; ///< host ns since process start
    i64 c0 = -1, c1 = -1; ///< simulated cycle (-1: no SoC yet)
};

class Spans
{
  public:
    explicit Spans(u64 origin) : _origin(origin) {}

    int
    begin(const char *name, int parent, int round, i64 cycle,
          int cmd = -1)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.round = round;
        s.cmd = cmd;
        s.c0 = cycle;
        s.t0 = nowNs() - _origin;
        _spans.push_back(std::move(s));
        return static_cast<int>(_spans.size()) - 1;
    }

    void
    end(int id, i64 cycle)
    {
        _spans[id].t1 = nowNs() - _origin;
        _spans[id].c1 = cycle;
    }

    /** Close every span still open (after an exception). */
    void
    endOpen(i64 cycle)
    {
        for (Span &s : _spans) {
            if (s.t1 == 0) {
                s.t1 = nowNs() - _origin;
                s.c1 = cycle;
            }
        }
    }

    const std::vector<Span> &all() const { return _spans; }

  private:
    u64 _origin;
    std::vector<Span> _spans;
};

/** One command of the closed loop. */
struct Command
{
    unsigned core = 0;
    std::vector<std::size_t> inputs; ///< indices into Plan::buffers
    std::size_t outBytes = 0;
    std::size_t expected = 0; ///< index into Plan::expected
    u64 scalar = 0;           ///< trailing argument (length or N)
};

/** Everything a round needs; generated once from the seed. */
struct Plan
{
    std::string workload;
    std::string system;
    std::string command;
    double clockMhz = 0;
    unsigned coreCap = 0;
    bool fitSearch = false;
    std::function<AcceleratorSystemConfig(unsigned)> config;
    std::vector<std::vector<u8>> buffers;  ///< input buffer contents
    std::vector<std::vector<u8>> expected; ///< golden output bytes
    std::vector<std::vector<Command>> perCore; ///< closed-loop ops
    /** Seeded padding (bytes) allocated before each core's buffers:
     *  the device-memory layout is part of the workload's input. */
    std::vector<u64> gaps;
    /** Outstanding commands per core (Fig. 6's depth). --window=N
     *  changes it only to reproduce the dispatch hang (README, "Known
     *  defect"). */
    unsigned window = 2;
};

/** Setup-only repetitions per process: setup_s is a median over these
 *  and the full rounds, because a round's setup is short and noisy. */
constexpr int kSetupReps = 8;

std::vector<u8>
toBytes(const std::vector<i32> &v)
{
    std::vector<u8> b(v.size() * sizeof(i32));
    std::memcpy(b.data(), v.data(), b.size());
    return b;
}

void
addGaps(Plan &p, SplitMix &rng)
{
    for (unsigned c = 0; c < p.coreCap; ++c)
        p.gaps.push_back(64 * (1 + rng.bounded(64)));
}

/**
 * memcpy_stream: 4 memcpy cores, AWS F1 at 250 MHz, TLP with 16-beat
 * bursts. Each core copies 8 buffers of seeded lengths (64 KiB and up,
 * log-uniform weights, 4 KiB granules) that sum to 4 MiB, so the
 * command count and the bytes moved are the same for every seed.
 */
Plan
memcpyPlan(SplitMix &rng)
{
    constexpr u64 kGranule = 4096, kMinGranules = 16; // 64 KiB
    constexpr u64 kPerCoreGranules = 1024;             // 4 MiB
    constexpr unsigned kCopies = 8;
    Plan p;
    p.workload = "memcpy_stream";
    p.system = "MemcpySystem";
    p.command = "do_memcpy";
    p.clockMhz = 250;
    p.coreCap = 4;
    p.config = [](unsigned n) {
        return MemcpyCore::systemConfig(n, MemcpyCore::Variant{});
    };
    p.perCore.resize(p.coreCap);
    for (unsigned c = 0; c < p.coreCap; ++c) {
        double weights[kCopies];
        double total = 0;
        for (double &w : weights) {
            w = std::exp2(6.0 * double(rng.bounded(1 << 20)) / (1 << 20));
            total += w;
        }
        const u64 spare = kPerCoreGranules - kCopies * kMinGranules;
        u64 left = kPerCoreGranules;
        for (unsigned k = 0; k < kCopies; ++k) {
            const u64 granules =
                k + 1 == kCopies
                    ? left
                    : kMinGranules + u64(double(spare) * weights[k] / total);
            left -= granules;
            const u64 len = granules * kGranule;
            std::vector<u8> src(len);
            for (u64 i = 0; i < len; i += 8) {
                const u64 w = rng.next();
                std::memcpy(src.data() + i, &w, 8);
            }
            Command cmd;
            cmd.core = c;
            cmd.inputs = {p.buffers.size()};
            cmd.outBytes = len;
            cmd.expected = p.expected.size();
            cmd.scalar = len;
            p.expected.push_back(src);
            p.buffers.push_back(std::move(src));
            p.perCore[c].push_back(std::move(cmd));
        }
    }
    addGaps(p, rng);
    return p;
}

/**
 * nw_dispatch: the Fig. 6 NW composition (fit-searched cores, at most
 * 32, at 125 MHz) with many short commands per core, each aligning its
 * own seeded sequence pair. Pair lengths are seeded in 248..256 (the
 * core's maximum), so command lengths vary as real alignment inputs do.
 */
Plan
nwPlan(SplitMix &rng)
{
    constexpr unsigned kN = 256, kCap = 32, kPerCore = 8;
    Plan p;
    p.workload = "nw_dispatch";
    p.system = "NwSystem";
    p.command = "nw";
    p.clockMhz = 125;
    p.coreCap = kCap;
    p.fitSearch = true;
    p.config = [](unsigned n) { return NwCore::systemConfig(n); };
    p.perCore.resize(kCap);
    for (unsigned c = 0; c < kCap; ++c) {
        for (unsigned k = 0; k < kPerCore; ++k) {
            const unsigned n = kN - static_cast<unsigned>(rng.bounded(9));
            std::vector<u8> a(n), b(n);
            for (unsigned i = 0; i < n; ++i) {
                a[i] = static_cast<u8>("ACGT"[rng.bounded(4)]);
                b[i] = static_cast<u8>("ACGT"[rng.bounded(4)]);
            }
            Command cmd;
            cmd.core = c;
            cmd.inputs = {p.buffers.size(), p.buffers.size() + 1};
            cmd.outBytes = (n + 1) * sizeof(i32);
            cmd.expected = p.expected.size();
            cmd.scalar = n;
            p.expected.push_back(toBytes(goldenNw(a, b, n)));
            p.buffers.push_back(std::move(a));
            p.buffers.push_back(std::move(b));
            p.perCore[c].push_back(std::move(cmd));
        }
    }
    addGaps(p, rng);
    return p;
}

/** Fig. 6's fit search: binary search on elaboration success. */
unsigned
maxCoresThatFit(const Plan &plan, const Platform &platform,
                unsigned &probes)
{
    auto fits = [&](unsigned n) {
        ++probes;
        try {
            AcceleratorSoc soc(AcceleratorConfig(plan.config(n)),
                               platform);
            return true;
        } catch (const ConfigError &) {
            return false;
        }
    };
    if (!fits(1))
        return 0;
    unsigned lo = 1, hi = 256;
    while (lo < hi) {
        const unsigned mid = (lo + hi + 1) / 2;
        if (fits(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

void
emitLine(const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

/** What one round measured, beyond its spans. */
struct RoundResult
{
    unsigned cores = 0;
    unsigned fitProbes = 0;
    std::size_t modules = 0;
    u64 ops = 0;
    u64 okOps = 0;
    i64 cmdStartCycle = 0;
    i64 cmdEndCycle = 0;
    u64 cmdTicks = 0;
    u64 cmdAllocs = 0;
    u64 cmdAllocBytes = 0;
    double cmdJoules = 0;
    double staticWatts = 0;
    bool hygiene = false;
    std::string error;
    std::string stats;
};

/**
 * One round: setup, run and verify on a fresh SoC. With @p setup_only
 * the SoC is torn down after setup (a "setup_rep": extra setup samples
 * that cost no command phase).
 */
RoundResult
runRound(const Plan &plan, int round, bool setup_only, bool traced,
         Spans &spans, int root)
{
    RoundResult r;
    const int round_span = spans.begin(setup_only ? "setup_rep" : "round",
                                       root, round, -1);
    AwsF1Platform platform;
    platform.setClockMHz(plan.clockMhz);
    std::unique_ptr<AcceleratorSoc> soc;
    std::unique_ptr<SocInvariants> invariants;
    std::unique_ptr<RuntimeServer> server;
    auto cycle = [&]() -> i64 {
        return soc ? static_cast<i64>(soc->sim().cycle()) : -1;
    };
    try {
        const int setup = spans.begin("setup", round_span, round, -1);
        r.cores = plan.coreCap;
        if (plan.fitSearch) {
            const int fit = spans.begin("fit", setup, round, -1);
            r.cores = std::min(
                maxCoresThatFit(plan, platform, r.fitProbes), r.cores);
            spans.end(fit, -1);
            if (r.cores == 0)
                throw ConfigError("no core fits the device");
        }
        const int elab = spans.begin("elab", setup, round, -1);
        soc = std::make_unique<AcceleratorSoc>(
            AcceleratorConfig(plan.config(r.cores)), platform);
        invariants = std::make_unique<SocInvariants>(*soc);
        server = std::make_unique<RuntimeServer>(*soc);
        Simulator &sim = soc->sim();
        sim.setKernel(SimKernel::Event);
        r.modules = sim.numModules();
        r.hygiene = sim.trace() == nullptr &&
                    sim.hostProfiler() == nullptr &&
                    sim.powerMeter() == nullptr &&
                    sim.kernel() == SimKernel::Event;
        fpga_handle_t handle(*server);
        spans.end(elab, cycle());

        // Every command gets its own input and output buffers.
        std::vector<const Command *> cmds;
        for (unsigned c = 0; c < r.cores; ++c)
            for (const Command &cmd : plan.perCore[c])
                cmds.push_back(&cmd);
        r.ops = cmds.size();

        const int alloc = spans.begin("malloc", setup, round, cycle());
        std::vector<remote_ptr> inputs(plan.buffers.size());
        std::vector<remote_ptr> outputs(cmds.size());
        for (unsigned c = 0; c < r.cores; ++c) {
            handle.malloc(plan.gaps[c]);
            for (const Command &cmd : plan.perCore[c])
                for (std::size_t i : cmd.inputs)
                    inputs[i] = handle.malloc(plan.buffers[i].size());
        }
        for (std::size_t k = 0; k < cmds.size(); ++k)
            outputs[k] = handle.malloc(cmds[k]->outBytes);
        spans.end(alloc, cycle());

        const int dma = spans.begin("dma_in", setup, round, cycle());
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (!inputs[i].valid())
                continue;
            std::memcpy(inputs[i].getHostAddr(), plan.buffers[i].data(),
                        plan.buffers[i].size());
            handle.copy_to_fpga(inputs[i]);
        }
        spans.end(dma, cycle());
        spans.end(setup, cycle());
        if (setup_only) {
            spans.end(round_span, cycle());
            return r;
        }

        {
            std::ostringstream os;
            os << "{\"kind\":\"run_start\",\"round\":" << round
               << ",\"ops\":" << r.ops << "}";
            emitLine(os.str());
        }

        auto argsOf = [&](std::size_t k) {
            std::vector<u64> args;
            for (std::size_t i : cmds[k]->inputs)
                args.push_back(inputs[i].getFpgaAddr());
            args.push_back(outputs[k].getFpgaAddr());
            args.push_back(cmds[k]->scalar);
            return args;
        };
        struct InFlight
        {
            std::size_t slot;
            int span;
            response_handle<u64> handle;
        };
        std::deque<InFlight> window;
        auto issue = [&](std::size_t k, int parent) {
            const int cs = traced ? spans.begin("cmd", parent, round,
                                                cycle(), int(k))
                                  : -1;
            const int is = traced ? spans.begin("invoke", cs, round,
                                                cycle(), int(k))
                                  : -1;
            auto h = handle.invoke(plan.system, plan.command,
                                   cmds[k]->core, argsOf(k));
            if (traced)
                spans.end(is, cycle());
            window.push_back({k, cs, std::move(h)});
        };
        u64 done = 0;
        auto collect = [&]() {
            InFlight f = std::move(window.front());
            window.pop_front();
            const int gs = traced ? spans.begin("get", f.span, round,
                                                cycle(), int(f.slot))
                                  : -1;
            f.handle.get();
            if (traced) {
                spans.end(gs, cycle());
                spans.end(f.span, cycle());
            }
            ++done;
            std::ostringstream os;
            os << "{\"kind\":\"op\",\"round\":" << round
               << ",\"done\":" << done << "}";
            emitLine(os.str());
            return f.slot;
        };

        const PowerLedger &ledger = soc->power();
        r.staticWatts = ledger.staticWatts();
        const AllocCounters a0 = allocCounters();
        const u64 ticks0 = globalModuleTicks();
        const double j0 = ledger.totalJoules(sim.cycle());
        r.cmdStartCycle = cycle();
        const int run = spans.begin("run", round_span, round, cycle());
        std::size_t k = 0;
        // Closed loop: prime each core's window, then re-issue to the
        // core whose oldest command just returned.
        std::vector<std::size_t> next(r.cores), first(r.cores);
        for (unsigned c = 0; c < r.cores; ++c) {
            first[c] = next[c] = k;
            k += plan.perCore[c].size();
        }
        auto issueNext = [&](unsigned c) {
            if (next[c] - first[c] < plan.perCore[c].size())
                issue(next[c]++, run);
        };
        for (unsigned w = 0; w < plan.window; ++w)
            for (unsigned c = 0; c < r.cores; ++c)
                issueNext(c);
        while (!window.empty())
            issueNext(cmds[collect()]->core);
        spans.end(run, cycle());
        r.cmdEndCycle = cycle();
        r.cmdJoules = ledger.totalJoules(sim.cycle()) - j0;
        r.cmdTicks = globalModuleTicks() - ticks0;
        const AllocCounters a1 = allocCounters();
        r.cmdAllocs = a1.allocs - a0.allocs;
        r.cmdAllocBytes = a1.bytes - a0.bytes;

        const int verify =
            spans.begin("verify", round_span, round, cycle());
        for (std::size_t s = 0; s < cmds.size(); ++s) {
            handle.copy_from_fpga(outputs[s]);
            const std::vector<u8> &want = plan.expected[cmds[s]->expected];
            if (want.size() == outputs[s].size() &&
                std::memcmp(outputs[s].getHostAddr(), want.data(),
                            want.size()) == 0)
                ++r.okOps;
        }
        invariants->checkFinal();
        spans.end(verify, cycle());
        spans.end(round_span, cycle());

        sim.publishStallStats();
        // Full precision: the default six digits would round counters
        // above 10^6 and hide small modeled changes from the digest.
        std::ostringstream os;
        os.precision(17);
        sim.stats().dumpJson(os);
        r.stats = os.str();
    } catch (const std::exception &e) {
        // An invariant fatal or a runtime timeout leaves the SoC in an
        // unknown state: every command of the round counts as failed.
        r.error = e.what();
        r.okOps = 0;
        spans.endOpen(cycle());
    }
    return r;
}

void
emitRound(const Plan &plan, int round, bool setup_only, bool traced,
          const RoundResult &r, const Spans &spans)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"kind\":\"" << (setup_only ? "setup_rep" : "round")
       << "\",\"round\":" << round
       << ",\"traced\":" << (traced ? "true" : "false")
       << ",\"system\":";
    writeEscaped(os, plan.system);
    os << ",\"cores\":" << r.cores << ",\"fit_probes\":" << r.fitProbes
       << ",\"modules\":" << r.modules << ",\"ops\":" << r.ops
       << ",\"ok_ops\":" << r.okOps << ",\"clock_mhz\":" << plan.clockMhz
       << ",\"cmd_start_cycle\":" << r.cmdStartCycle
       << ",\"cmd_end_cycle\":" << r.cmdEndCycle
       << ",\"cmd_ticks\":" << r.cmdTicks
       << ",\"cmd_allocs\":" << r.cmdAllocs
       << ",\"cmd_alloc_bytes\":" << r.cmdAllocBytes
       << ",\"cmd_joules\":" << r.cmdJoules
       << ",\"static_watts\":" << r.staticWatts
       << ",\"hygiene\":" << (r.hygiene ? "true" : "false")
       << ",\"error\":";
    writeEscaped(os, r.error);
    // Phase seconds straight from this round's spans.
    os << ",\"phases\":{";
    bool first = true;
    for (const Span &s : spans.all()) {
        if (s.round != round || s.cmd >= 0 || s.t1 == 0)
            continue;
        os << (first ? "" : ",") << '"' << s.name
           << "\":" << double(s.t1 - s.t0) * 1e-9;
        first = false;
    }
    os << "},\"stats\":" << (r.stats.empty() ? "{}" : r.stats) << "}";
    emitLine(os.str());
}

void
writeSpans(const std::string &path, const Plan &plan, u64 seed,
           const Spans &spans)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
        return;
    }
    f << "{\"workload\":\"" << plan.workload << "\",\"seed\":" << seed
      << ",\"spans\":[\n";
    const auto &all = spans.all();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        f << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"parent\":" << s.parent << ",\"cmd\":" << s.cmd
          << ",\"round\":" << s.round << ",\"t0\":" << s.t0
          << ",\"t1\":" << s.t1 << ",\"c0\":" << s.c0 << ",\"c1\":" << s.c1
          << "}";
    }
    f << "\n]}\n";
}

bool
flagValue(const char *arg, const char *name, std::string &out)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    out = arg + n + 1;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const u64 origin = nowNs();
    std::string workload, seed_s = "1", seconds_s = "10", trace_out;
    std::string window_s = "2";
    for (int i = 1; i < argc; ++i) {
        if (!flagValue(argv[i], "--workload", workload) &&
            !flagValue(argv[i], "--seed", seed_s) &&
            !flagValue(argv[i], "--seconds", seconds_s) &&
            !flagValue(argv[i], "--trace-out", trace_out) &&
            !flagValue(argv[i], "--window", window_s)) {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }
    const u64 seed = std::strtoull(seed_s.c_str(), nullptr, 10);
    const double seconds = std::strtod(seconds_s.c_str(), nullptr);
    const bool tracing = !trace_out.empty();
    setInformEnabled(false);

    SplitMix rng(seed * 0x2545F4914F6CDD1Dull + 1);
    Plan plan;
    if (workload == "memcpy_stream")
        plan = memcpyPlan(rng);
    else if (workload == "nw_dispatch")
        plan = nwPlan(rng);
    else {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    plan.window =
        static_cast<unsigned>(std::strtoul(window_s.c_str(), nullptr, 10));
    if (plan.window == 0) {
        std::fprintf(stderr, "--window must be at least 1\n");
        return 2;
    }

    {
        std::ostringstream os;
        os << "{\"kind\":\"meta\",\"workload\":\"" << plan.workload
           << "\",\"seed\":" << seed << ",\"build_type\":";
        writeEscaped(os, PERFBENCH_BUILD_TYPE);
        os << ",\"compiler\":";
        writeEscaped(os, PERFBENCH_COMPILER);
        os << ",\"kernel\":\"event\",\"invariants\":true"
           << ",\"core_cap\":" << plan.coreCap << "}";
        emitLine(os.str());
    }

    Spans spans(origin);
    const int root = spans.begin("workload", -1, -1, -1);
    const u64 start = nowNs();
    // Setup-only repetitions first, then full rounds until the time is
    // up; ids number both kinds in order.
    const int min_rounds = kSetupReps + (tracing ? 2 : 1);
    bool failed = false;
    for (int round = 0; !failed; ++round) {
        if (round >= min_rounds &&
            double(nowNs() - start) * 1e-9 >= seconds)
            break;
        const bool setup_only = round < kSetupReps;
        const bool traced =
            tracing && !setup_only && (round - kSetupReps) % 2 == 0;
        const RoundResult r =
            runRound(plan, round, setup_only, traced, spans, root);
        emitRound(plan, round, setup_only, traced, r, spans);
        failed = !r.error.empty();
    }
    spans.end(root, -1);
    if (tracing)
        writeSpans(trace_out, plan, seed, spans);

    std::ostringstream os;
    os << "{\"kind\":\"done\",\"peak_rss_kb\":" << peakRssKb() << "}";
    emitLine(os.str());
    return 0;
}
