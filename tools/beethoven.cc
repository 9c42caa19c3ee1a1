/**
 * @file
 * beethoven — the command-line tool. One executable, one subcommand per
 * job, one flag parser (base/args.h):
 *
 *   beethoven lint        check a composition without running it
 *   beethoven fuzz        randomized composition fuzzer
 *   beethoven json-check  validate the JSON files the benches write
 *   beethoven bottleneck  rank cycle sinks from a --stats-json file
 *   beethoven power       render a --power-json energy report
 *
 * `beethoven CMD --help` prints a subcommand's usage and exit codes.
 * An unknown or malformed flag exits with the subcommand's usage code.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "accel/machsuite/gemm.h"
#include "accel/memcpy_core.h"
#include "base/args.h"
#include "base/json.h"
#include "base/log.h"
#include "core/soc.h"
#include "platform/aws_f1.h"
#include "power/power_json.h"
#include "sim/graph_record.h"
#include "trace/bottleneck.h"
#include "verify/fuzz.h"
#include "verify/random_soc.h"
#include "verify/traffic.h"

using namespace beethoven;
using namespace beethoven::verify;

namespace
{

using Args = std::span<const Arg>;

// --- lint ------------------------------------------------------------

const char kLintUsage[] =
    "usage: beethoven lint [--json] [--werror] [--list-codes] CASE.json\n"
    "       beethoven lint [--json] [--werror] --preset=fig4|fig6\n"
    "\n"
    "Elaborate a composition with zero cycles and print every finding\n"
    "of the composition checker (DESIGN.md §5c).\n"
    "\n"
    "  --json          emit {\"report\": ...} as JSON\n"
    "  --werror        treat warnings as blocking findings\n"
    "  --list-codes    print the diagnostic code registry and exit\n"
    "  --preset=NAME   check a built-in composition instead of a case\n"
    "                  file (fig4: memcpy on AWS F1; fig6: 4-core GEMM)\n"
    "\n"
    "CASE.json uses the fuzz repro format (platform shape + systems);\n"
    "traffic ops, if present, are ignored. A nonzero\n"
    "\"plant_wake_violation\" suppresses that push-wake arming.\n"
    "\n"
    "Exit: 0 clean (warnings alone pass without --werror), 2 blocking\n"
    "findings, 3 usage error, unreadable or malformed input, or an\n"
    "elaboration failure without a diagnostic code.\n";

int
runLint(Args args)
{
    bool as_json = false;
    bool werror = false;
    bool list_codes = false;
    std::string path;
    std::string preset;
    for (const Arg &arg : args) {
        if (arg.value("preset", preset))
            continue;
        if (arg.flag("json")) {
            as_json = true;
        } else if (arg.flag("werror")) {
            werror = true;
        } else if (arg.flag("list-codes")) {
            list_codes = true;
        } else if (arg.positional() && path.empty()) {
            path = arg.text();
        } else {
            arg.reject();
        }
    }
    if (list_codes) {
        for (const auto &info : lint::diagnosticRegistry()) {
            std::cout << info.code << "  "
                      << lint::severityName(info.severity) << "  ["
                      << info.layer << "] " << info.summary << "\n";
        }
        return 0;
    }
    if (path.empty() == preset.empty())
        throw UsageError("need exactly one of CASE.json or --preset");

    AcceleratorConfig cfg;
    std::unique_ptr<Platform> platform;
    u64 plant_wake = 0;
    if (!preset.empty()) {
        auto aws = std::make_unique<AwsF1Platform>();
        if (preset == "fig4") {
            cfg.systems.push_back(
                MemcpyCore::systemConfig(1, MemcpyCore::Variant{}));
        } else if (preset == "fig6") {
            aws->setClockMHz(125.0);
            cfg.systems.push_back(machsuite::GemmCore::systemConfig(4));
        } else {
            throw UsageError("unknown preset '" + preset + "'");
        }
        platform = std::move(aws);
    } else {
        try {
            const FuzzCase c = loadReproFile(path);
            // buildAcceleratorConfig rejects cases the checker never
            // sees (e.g. no systems at all); that is malformed input.
            cfg = buildAcceleratorConfig(c);
            platform = std::make_unique<FuzzPlatform>(c.platform);
            plant_wake = c.plantWakeViolation;
        } catch (const ConfigError &e) {
            std::cerr << "beethoven lint: " << e.what() << "\n";
            return 3;
        }
    }

    // Elaborate without running a cycle: the constructor runs every
    // checker pass and either keeps the findings or throws them.
    lint::DiagnosticReport report;
    plantMissingPushWake(plant_wake);
    try {
        const AcceleratorSoc soc(std::move(cfg), *platform);
        report = soc.diagnostics();
    } catch (const lint::CompositionError &e) {
        report = e.report();
    } catch (const ConfigError &e) {
        plantMissingPushWake(0);
        std::cerr << "beethoven lint: " << e.what() << "\n";
        return 3;
    }
    plantMissingPushWake(0);

    if (as_json) {
        std::cout << "{\n\"report\": " << report.toJson() << "}\n";
    } else {
        std::cout << report.format();
        std::cout << (path.empty() ? "--preset=" + preset : path) << ": "
                  << report.errorCount() << " error(s), "
                  << report.warningCount() << " warning(s)\n";
    }

    const bool blocking =
        report.hasErrors() || (werror && report.warningCount() > 0);
    return blocking ? 2 : 0;
}

// --- fuzz ------------------------------------------------------------

const char kFuzzUsage[] =
    "usage: beethoven fuzz [--seed=N] [--iterations=N] [--max-cycles=N]\n"
    "                      [--max-ops=N] [--repro-out=PATH] [--no-shrink]\n"
    "                      [--differential] [--sim-kernel=tick|event]\n"
    "                      [--plant-violation] [--plant-lint-violation]\n"
    "                      [--plant-power-violation]\n"
    "                      [--plant-lost-wake=N]\n"
    "                      [--plant-wake-violation=N]\n"
    "                      [--replay=PATH] [--verbose]\n"
    "\n"
    "Sample random-but-legal compositions, drive seeded traffic with\n"
    "live invariants armed, and check results against the golden\n"
    "model; shrink a failing case to a minimal repro (DESIGN.md §5b).\n"
    "Every sampled case is first elaborated with zero cycles and must\n"
    "be check-clean.\n"
    "\n"
    "  --seed=N            base RNG seed (default 1)\n"
    "  --iterations=N      cases to run (default 25)\n"
    "  --max-cycles=N      per-case simulated-cycle budget\n"
    "                      (default 2000000)\n"
    "  --max-ops=N         max commands per case (default 8)\n"
    "  --repro-out=PATH    write the shrunk failing case here\n"
    "  --no-shrink         report the raw failing case unshrunk\n"
    "  --differential      run every case under both simulation\n"
    "                      kernels (tick as reference, then event) and\n"
    "                      fail on any digest/cycle/outcome divergence\n"
    "  --sim-kernel=K      kernel for non-differential runs:\n"
    "                      tick (default) or event\n"
    "  --plant-violation   inject a bogus AXI beat into every case\n"
    "                      (self-test of the catch path)\n"
    "  --plant-lint-violation\n"
    "                      append a defective system to every case\n"
    "                      (self-test of the composition checker)\n"
    "  --plant-power-violation\n"
    "                      plant a phantom energy leak in every case's\n"
    "                      power ledger (self-test of the\n"
    "                      energy-conservation invariant)\n"
    "  --plant-lost-wake=N drop every Nth event-kernel wake schedule\n"
    "                      (self-test of the differential catch path)\n"
    "  --plant-wake-violation=N\n"
    "                      suppress the Nth push-wake arming at\n"
    "                      elaboration (self-test of BTH100)\n"
    "  --replay=PATH       run one case from a repro file instead of\n"
    "                      sampling\n"
    "  --verbose           per-iteration progress lines\n"
    "\n"
    "Exit: 0 all iterations clean, 2 usage or IO error, 3 a failure was\n"
    "found (repro written if --repro-out).\n";

int
runFuzz(Args args)
{
    u64 seed = 1;
    u64 iterations = 25;
    u64 max_ops = 8;
    FuzzOptions opt;
    std::string kernel = "tick";
    std::string repro_out;
    std::string replay_path;
    bool do_shrink = true;
    bool plant = false;
    bool plant_lint = false;
    bool plant_power = false;
    u64 plant_lost_wake = 0;
    u64 plant_wake_violation = 0;
    bool verbose = false;

    for (const Arg &arg : args) {
        if (arg.count("seed", seed) ||
            arg.count("iterations", iterations) ||
            arg.count("max-cycles", opt.maxCycles) ||
            arg.count("max-ops", max_ops) ||
            arg.count("plant-lost-wake", plant_lost_wake) ||
            arg.count("plant-wake-violation", plant_wake_violation) ||
            arg.value("sim-kernel", kernel) ||
            arg.value("repro-out", repro_out) ||
            arg.value("replay", replay_path))
            continue;
        if (arg.flag("differential")) {
            opt.differential = true;
        } else if (arg.flag("no-shrink")) {
            do_shrink = false;
        } else if (arg.flag("plant-violation")) {
            plant = true;
        } else if (arg.flag("plant-lint-violation")) {
            plant_lint = true;
        } else if (arg.flag("plant-power-violation")) {
            plant_power = true;
        } else if (arg.flag("verbose")) {
            verbose = true;
        } else {
            arg.reject();
        }
    }
    if (max_ops > std::numeric_limits<unsigned>::max())
        throw UsageError("--max-ops is out of range");
    if (kernel == "tick") {
        opt.kernel = SimKernel::Tick;
    } else if (kernel == "event") {
        opt.kernel = SimKernel::Event;
    } else {
        throw UsageError("bad --sim-kernel '" + kernel +
                         "' (expected tick or event)");
    }

    // Replay mode: one case from disk, no sampling, no shrinking.
    if (!replay_path.empty()) {
        FuzzCase c;
        try {
            c = loadReproFile(replay_path);
        } catch (const ConfigError &e) {
            std::cerr << "beethoven fuzz: " << e.what() << "\n";
            return 2;
        }
        const FuzzResult r = runFuzzCase(c, opt);
        std::cout << "replay " << replay_path << ": "
                  << failKindName(r.kind);
        if (!r.message.empty())
            std::cout << " (" << r.message << ")";
        std::cout << " after " << r.cycles << " cycles, " << r.axiEvents
                  << " AXI events checked\n";
        return r.kind == FailKind::None ? 0 : 3;
    }

    u64 total_cycles = 0, total_axi = 0, total_resps = 0;
    for (u64 it = 0; it < iterations; ++it) {
        const u64 case_seed = seed + it;
        RandomSocBuilder builder(case_seed);
        FuzzCase c = builder.sample();
        RandomTrafficGen traffic(case_seed ^ 0x74726166666963ULL);
        traffic.generate(c, static_cast<unsigned>(max_ops));
        c.plantViolation = plant;
        c.plantLintViolation = plant_lint;
        c.plantPowerViolation = plant_power;
        c.plantLostWake = plant_lost_wake;
        c.plantWakeViolation = plant_wake_violation;

        // Cross-check the sampler against the composition checker:
        // every sampled case must elaborate (zero cycles) without
        // error-severity findings — a finding here is a bug in
        // RandomSocBuilder or a rule drifting from what elaboration
        // accepts — and a planted lint or wake violation must surface
        // in the report the constructor throws. A planted case still
        // falls through to the run below, where elaboration rejects it
        // (BuildError -> exit 3).
        {
            lint::DiagnosticReport rep;
            plantMissingPushWake(c.plantWakeViolation);
            try {
                const FuzzPlatform platform(c.platform);
                const AcceleratorSoc soc(buildAcceleratorConfig(c),
                                         platform);
            } catch (const lint::CompositionError &e) {
                rep = e.report();
            } catch (const ConfigError &e) {
                plantMissingPushWake(0);
                std::cerr << "beethoven fuzz: sampled case (seed "
                          << case_seed
                          << ") failed to elaborate: " << e.what()
                          << "\n";
                return 3;
            }
            plantMissingPushWake(0);
            if (!plant_lint && plant_wake_violation == 0 &&
                rep.hasErrors()) {
                std::cerr << "beethoven fuzz: sampled case (seed "
                          << case_seed << ") is not check-clean:\n"
                          << rep.format();
                return 3;
            }
            if (plant_lint && !rep.hasErrors()) {
                std::cerr << "beethoven fuzz: planted lint violation "
                             "was not caught (seed "
                          << case_seed << ")\n";
                return 2;
            }
            if (plant_wake_violation != 0 && !rep.has("BTH100")) {
                std::cerr << "beethoven fuzz: planted wake violation "
                             "was not caught statically (seed "
                          << case_seed << ")\n";
                return 2;
            }
        }

        const FuzzResult r = runFuzzCase(c, opt);
        total_cycles += r.cycles;
        total_axi += r.axiEvents;
        total_resps += r.responses;
        if (verbose) {
            std::cout << "iter " << it << " seed " << case_seed << ": "
                      << c.systems.size() << " systems, "
                      << c.ops.size() << " ops -> "
                      << failKindName(r.kind) << " in " << r.cycles
                      << " cycles\n";
        }
        if (r.kind == FailKind::None)
            continue;

        std::cerr << "beethoven fuzz: seed " << case_seed << " failed ("
                  << failKindName(r.kind) << "): " << r.message << "\n";
        FuzzCase minimal = c;
        if (do_shrink) {
            unsigned attempts = 0;
            minimal = shrink(c, opt, r.kind, /*max_attempts=*/200,
                             &attempts);
            std::cerr << "beethoven fuzz: shrunk to "
                      << minimal.systems.size() << " systems / "
                      << minimal.ops.size() << " ops in " << attempts
                      << " replays\n";
        }
        if (!repro_out.empty()) {
            try {
                writeReproFile(minimal, repro_out);
                std::cerr << "beethoven fuzz: repro written to "
                          << repro_out << "\n";
            } catch (const ConfigError &e) {
                std::cerr << "beethoven fuzz: " << e.what() << "\n";
                return 2;
            }
        } else {
            std::cerr << fuzzCaseToJson(minimal);
        }
        return 3;
    }

    // The summary line is the digest regression fingerprint that
    // scripts and docs compare verbatim; keep its wording stable.
    std::cout << "soc_fuzz: " << iterations << " iterations clean ("
              << total_cycles << " cycles, " << total_axi
              << " AXI events checked, " << total_resps
              << " responses)\n";
    return 0;
}

// --- json-check ------------------------------------------------------

const char kJsonCheckUsage[] =
    "usage: beethoven json-check [OPTIONS] FILE [[OPTIONS] FILE ...]\n"
    "\n"
    "Check that each FILE is well-formed JSON. OPTIONS apply to the\n"
    "next FILE only:\n"
    "\n"
    "  --require-categories=a,b  FILE is a Chrome trace whose events\n"
    "                            cover every listed category with a\n"
    "                            nonzero-duration span (counter-only\n"
    "                            categories like \"noc\" may instead show\n"
    "                            any event)\n"
    "  --require-key=KEY         some object in FILE contains KEY\n"
    "                            (e.g. \"p95\" for stats exports)\n"
    "\n"
    "Exit: 0 every file passes, 1 a file is unreadable, malformed or\n"
    "misses a requirement, 2 usage error.\n";

bool
containsKey(const JsonValue &v, const std::string &key)
{
    if (v.isObject()) {
        for (const auto &[k, child] : v.object) {
            if (k == key || containsKey(child, key))
                return true;
        }
    } else if (v.isArray()) {
        for (const auto &child : v.array) {
            if (containsKey(child, key))
                return true;
        }
    }
    return false;
}

bool
checkCategories(const JsonValue &root, const std::string &csv,
                const std::string &path)
{
    const JsonValue *events = root.find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        std::fprintf(stderr, "%s: no traceEvents array\n", path.c_str());
        return false;
    }
    std::set<std::string> seen;          // any event
    std::set<std::string> seen_spans;    // nonzero-duration spans
    std::set<std::string> seen_counters; // "C" (counter) events
    for (const JsonValue &e : events->array) {
        const JsonValue *cat = e.find("cat");
        if (cat == nullptr || !cat->isString())
            continue;
        seen.insert(cat->string);
        const JsonValue *ph = e.find("ph");
        const JsonValue *dur = e.find("dur");
        if (ph != nullptr && ph->isString() && ph->string == "X" &&
            dur != nullptr && dur->number > 0)
            seen_spans.insert(cat->string);
        if (ph != nullptr && ph->isString() && ph->string == "C")
            seen_counters.insert(cat->string);
    }
    bool ok = true;
    bool all_counters = true;
    std::stringstream ss(csv);
    std::string want;
    while (std::getline(ss, want, ',')) {
        if (want.empty())
            continue;
        if (!seen_counters.count(want))
            all_counters = false;
        if (seen_spans.count(want))
            continue;
        if (seen.count(want)) {
            // Counter-only categories pass on presence; still demand
            // that *some* category has real spans overall.
            continue;
        }
        std::fprintf(stderr, "%s: no events in category '%s'\n",
                     path.c_str(), want.c_str());
        ok = false;
    }
    // Counter-track files (e.g. --power-trace output) legitimately
    // contain no spans; only demand spans when a required category is
    // not itself a counter track.
    if (ok && seen_spans.empty() && !all_counters) {
        std::fprintf(stderr, "%s: no nonzero-duration spans at all\n",
                     path.c_str());
        ok = false;
    }
    return ok;
}

/** Check one file; failures are reported on stderr. */
bool
checkJsonFile(const std::string &path, const std::string &categories,
              const std::string &key)
{
    std::optional<JsonValue> root;
    try {
        root = parseJsonFile(path);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
        return false;
    }
    if (!root) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return false;
    }
    bool ok = true;
    if (!categories.empty() && !checkCategories(*root, categories, path))
        ok = false;
    if (!key.empty() && !containsKey(*root, key)) {
        std::fprintf(stderr, "%s: key '%s' absent\n", path.c_str(),
                     key.c_str());
        ok = false;
    }
    if (ok)
        std::printf("%s: ok\n", path.c_str());
    return ok;
}

int
runJsonCheck(Args args)
{
    std::string require_categories;
    std::string require_key;
    int failures = 0;
    int files = 0;
    for (const Arg &arg : args) {
        if (arg.value("require-categories", require_categories) ||
            arg.value("require-key", require_key))
            continue;
        if (!arg.positional())
            arg.reject();
        ++files;
        if (!checkJsonFile(std::string(arg.text()), require_categories,
                           require_key))
            ++failures;
        require_categories.clear();
        require_key.clear();
    }
    if (files == 0)
        throw UsageError("no files given");
    return failures == 0 ? 0 : 1;
}

// --- bottleneck ------------------------------------------------------

const char kBottleneckUsage[] =
    "usage: beethoven bottleneck [--top=N] [--json=FILE] STATS.json\n"
    "\n"
    "Read a bench's --stats-json file, rank every stall-instrumented\n"
    "module as a cycle sink (busiest first, ties by attributed stall)\n"
    "and print one table per recorded run.\n"
    "\n"
    "  --top=N       rows per run (default 5)\n"
    "  --json=FILE   also write the full per-class breakdown and\n"
    "                shares as JSON\n"
    "\n"
    "Exit: 0 success, 1 no stall-instrumented modules in the file,\n"
    "2 usage, IO or parse error.\n";

int
runBottleneck(Args args)
{
    u64 top_n = 5;
    std::string json_path;
    std::string stats_path;
    for (const Arg &arg : args) {
        if (arg.count("top", top_n) || arg.value("json", json_path))
            continue;
        if (!arg.positional() || !stats_path.empty())
            arg.reject();
        stats_path = arg.text();
    }
    if (stats_path.empty())
        throw UsageError("no stats file given");

    std::vector<RunStallReport> runs;
    try {
        const std::optional<JsonValue> root = parseJsonFile(stats_path);
        if (!root) {
            std::fprintf(stderr, "%s: cannot open\n", stats_path.c_str());
            return 2;
        }
        runs = analyzeStallStats(*root);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", stats_path.c_str(), e.what());
        return 2;
    }

    writeBottleneckTable(std::cout, runs, top_n);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "%s: cannot open for writing\n",
                         json_path.c_str());
            return 2;
        }
        writeBottleneckJson(out, runs);
    }

    bool any_modules = false;
    for (const RunStallReport &run : runs)
        any_modules |= !run.modules.empty();
    if (!any_modules) {
        std::fprintf(stderr,
                     "%s: no stall-instrumented modules found (was the "
                     "bench built with stall accounting?)\n",
                     stats_path.c_str());
        return 1;
    }
    return 0;
}

// --- power -----------------------------------------------------------

const char kPowerUsage[] =
    "usage: beethoven power [--top=N] POWER.json\n"
    "\n"
    "Render a bench's --power-json file (schema beethoven-power-1):\n"
    "per measured run the joules, avg/peak watts, static floor,\n"
    "energy per op and throughput per watt (when the bench reported an\n"
    "op count), the per-SLR split and the top-N components by energy;\n"
    "then each reference row (published watts + throughput) with every\n"
    "measured run's energy-per-op ratio against it.\n"
    "\n"
    "  --top=N   components per run (default 8)\n"
    "\n"
    "Exit: 0 success, 2 usage or IO error, 3 the file is malformed or\n"
    "not a beethoven-power-1 report.\n";

void
printPowerRun(const PowerRunRecord &run, std::size_t top_n)
{
    std::printf("== %s: %.6g J over %.4g cycles @ %.0f MHz ==\n",
                run.label.c_str(), run.joules, run.cycles, run.clockMhz);
    std::printf("  avg %.3f W  peak %.3f W  static floor %.3f W\n",
                run.avgWatts, run.peakWatts, run.staticWatts);
    if (run.ops > 0.0) {
        const double secs = run.seconds();
        const double ops_per_sec = secs > 0.0 ? run.ops / secs : 0.0;
        std::printf("  %.4g ops: %.4f uJ/op, %.4g ops/s/W\n", run.ops,
                    run.energyPerOpUj(),
                    run.avgWatts > 0.0 ? ops_per_sec / run.avgWatts : 0.0);
    }
    if (!run.slrWatts.empty()) {
        std::printf("  per-SLR avg watts:");
        for (std::size_t s = 0; s < run.slrWatts.size(); ++s)
            std::printf(" slr%zu=%.3f", s, run.slrWatts[s]);
        std::printf("\n");
    }
    std::vector<const PowerComponentRecord *> comps;
    for (const PowerComponentRecord &c : run.components)
        comps.push_back(&c);
    std::sort(comps.begin(), comps.end(),
              [](const PowerComponentRecord *a,
                 const PowerComponentRecord *b) {
                  return a->joules > b->joules;
              });
    const std::size_t n = std::min(top_n, comps.size());
    std::printf("  %-28s %6s %12s %10s %10s\n", "component", "slr",
                "joules", "avg W", "peak W");
    for (std::size_t i = 0; i < n; ++i) {
        const PowerComponentRecord &c = *comps[i];
        const double share =
            run.joules > 0.0 ? 100.0 * c.joules / run.joules : 0.0;
        std::printf("  %-28s %6u %12.6g %10.4f %10.4f  (%.1f%%)\n",
                    c.name.c_str(), c.slr, c.joules, c.avgWatts,
                    c.peakWatts, share);
    }
    if (comps.size() > n)
        std::printf("  ... %zu more components\n", comps.size() - n);
    std::printf("\n");
}

int
runPower(Args args)
{
    u64 top_n = 8;
    std::string path;
    for (const Arg &arg : args) {
        if (arg.count("top", top_n))
            continue;
        if (!arg.positional() || !path.empty())
            arg.reject();
        path = arg.text();
    }
    if (path.empty())
        throw UsageError("no power file given");

    PowerReport report;
    try {
        const std::optional<JsonValue> root = parseJsonFile(path);
        if (!root) {
            std::fprintf(stderr, "%s: cannot open\n", path.c_str());
            return 2;
        }
        report = parsePowerReport(*root);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
        return 3;
    }

    for (const PowerRunRecord &run : report.runs) {
        if (!run.reference)
            printPowerRun(run, top_n);
    }
    for (const PowerRunRecord &ref : report.runs) {
        if (!ref.reference)
            continue;
        std::printf("reference %s: %.1f W @ %.4g ops/s = %.4f uJ/op\n",
                    ref.label.c_str(), ref.avgWatts, ref.opsPerSec,
                    ref.energyPerOpUj());
        for (const PowerRunRecord &run : report.runs) {
            if (run.reference || run.ops <= 0.0)
                continue;
            const double run_uj = run.energyPerOpUj();
            if (run_uj <= 0.0 || ref.energyPerOpUj() <= 0.0)
                continue;
            std::printf("  %s: %.1fx lower energy/op\n",
                        run.label.c_str(), ref.energyPerOpUj() / run_uj);
        }
    }
    return 0;
}

// --- command table and dispatch ------------------------------------

struct Command
{
    const char *name;
    const char *summary;
    const char *usage;
    int usageExit; ///< exit code for an unknown or malformed argument
    int (*run)(Args args);
};

const Command kCommands[] = {
    {"lint", "check a composition without running it", kLintUsage, 3,
     runLint},
    {"fuzz", "randomized composition fuzzer and kernel differential",
     kFuzzUsage, 2, runFuzz},
    {"json-check", "validate the JSON files the benches write",
     kJsonCheckUsage, 2, runJsonCheck},
    {"bottleneck", "rank cycle sinks from a --stats-json file",
     kBottleneckUsage, 2, runBottleneck},
    {"power", "render a --power-json energy report", kPowerUsage, 2,
     runPower},
};

void
overview(std::ostream &os)
{
    os << "usage: beethoven COMMAND [ARGS...]\n\ncommands:\n";
    for (const Command &c : kCommands) {
        os << "  ";
        os.width(12);
        os << std::left << c.name << c.summary << "\n";
    }
    os << "\n'beethoven COMMAND --help' prints a command's flags and exit "
          "codes.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        overview(std::cerr);
        return 2;
    }
    const std::vector<Arg> args(argv + 1, argv + argc);
    if (args[0].flag("help")) {
        overview(std::cout);
        return 0;
    }
    const Command *cmd = nullptr;
    for (const Command &c : kCommands) {
        if (args[0].text() == c.name)
            cmd = &c;
    }
    if (cmd == nullptr) {
        std::cerr << "beethoven: unknown command '" << args[0].text()
                  << "'\n";
        overview(std::cerr);
        return 2;
    }
    const Args rest = Args(args).subspan(1);
    for (const Arg &arg : rest) {
        if (arg.flag("help")) {
            std::cout << cmd->usage;
            return 0;
        }
    }
    try {
        return cmd->run(rest);
    } catch (const UsageError &e) {
        std::cerr << "beethoven " << cmd->name << ": " << e.what()
                  << "\n(see 'beethoven " << cmd->name << " --help')\n";
        return cmd->usageExit;
    }
}
