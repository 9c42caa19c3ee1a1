#include "common/bench_cli.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "base/args.h"
#include "base/json.h"
#include "perf/host_clock.h"
#include "perf/host_profiler.h"
#include "perf/kpi.h"
#include "power/power.h"
#include "sim/simulator.h"
#include "verify/invariants.h"

namespace beethoven
{

namespace
{

/** argv[0] without directories, for the perf-json bench field. */
std::string
benchBasename(const char *argv0)
{
    std::string s = argv0 != nullptr ? argv0 : "bench";
    const std::size_t slash = s.find_last_of('/');
    return slash == std::string::npos ? s : s.substr(slash + 1);
}

/**
 * Parse a --host-profile spec into a sampling period: "" (bare flag)
 * means 64, "scoped" means every cycle, "sample:N" means one cycle in
 * N (N >= 1).
 */
std::unique_ptr<HostProfiler>
makeProfiler(const std::string &spec)
{
    if (spec.empty())
        return std::make_unique<HostProfiler>();
    if (spec == "scoped")
        return std::make_unique<HostProfiler>(1);
    if (spec.starts_with("sample:")) {
        const std::optional<u64> n = parseCount(spec.substr(7));
        if (n && *n >= 1 && *n <= std::numeric_limits<u32>::max())
            return std::make_unique<HostProfiler>(static_cast<u32>(*n));
    }
    throw UsageError("bad --host-profile mode '" + spec +
                     "' (expected scoped or sample:N)");
}

} // namespace

BenchCli::BenchCli(int argc, char **argv)
    : _benchName(benchBasename(argc > 0 ? argv[0] : nullptr)),
      _startNs(hostNowNs())
{
    try {
        bool host_profile = false;
        std::string profile_spec;
        std::string kernel = "event";
        for (int i = 1; i < argc; ++i) {
            const Arg arg(argv[i]);
            if (arg.value("trace", _tracePath) ||
                arg.value("stats-json", _statsPath) ||
                arg.value("perf-json", _perfPath) ||
                arg.value("power-trace", _powerTracePath) ||
                arg.value("power-json", _powerJsonPath) ||
                arg.value("sim-kernel", kernel) ||
                arg.count("watchdog", _watchdog))
                continue;
            if (arg.flag("host-profile") ||
                arg.value("host-profile", profile_spec)) {
                host_profile = true;
            } else if (arg.flag("quick")) {
                _quick = true;
            } else if (arg.flag("no-invariants")) {
                _invariants = false;
            } else {
                arg.reject();
            }
        }
        if (kernel != "event" && kernel != "tick") {
            throw UsageError("bad --sim-kernel '" + kernel +
                             "' (expected tick or event)");
        }
        _tickKernel = kernel == "tick";
        if (host_profile)
            _profiler = makeProfiler(profile_spec);
        else if (!_perfPath.empty())
            // KPIs only: heartbeat without per-component timing.
            _profiler = std::make_unique<HostProfiler>(0);
    } catch (const UsageError &e) {
        std::cerr << _benchName << ": " << e.what() << "\n";
        std::exit(2);
    }

    // Fail unwritable output paths before any simulation runs. The
    // append-mode probe creates missing files but never truncates an
    // existing one another process might still be reading.
    auto probe = [](const std::string &path, const char *what) {
        if (path.empty())
            return;
        std::ofstream f(path, std::ios::app);
        if (!f) {
            std::cerr << "cannot open " << what << " file " << path
                      << " for writing\n";
            std::exit(2);
        }
    };
    probe(_tracePath, "trace");
    probe(_statsPath, "stats");
    probe(_perfPath, "perf json");
    probe(_powerTracePath, "power trace");
    probe(_powerJsonPath, "power json");

    if (!_tracePath.empty())
        _sink = std::make_unique<TraceSink>();
    if (!_powerTracePath.empty() || !_powerJsonPath.empty()) {
        _powerMeter = std::make_unique<PowerMeter>();
        if (!_powerTracePath.empty()) {
            _powerSink = std::make_unique<TraceSink>();
            _powerMeter->attachTrace(_powerSink.get());
        }
    }
}

BenchCli::~BenchCli() = default;

SimKernel
BenchCli::simKernel() const
{
    return _tickKernel ? SimKernel::Tick : SimKernel::Event;
}

void
BenchCli::instrument(Simulator &sim) const
{
    sim.setKernel(simKernel());
    if (_watchdog != 0)
        sim.setWatchdog(_watchdog);
    if (_profiler != nullptr)
        sim.attachHostProfiler(_profiler.get());
    if (_powerMeter != nullptr)
        sim.attachPowerMeter(_powerMeter.get());
}

std::unique_ptr<SocInvariants>
BenchCli::armInvariants(AcceleratorSoc &soc) const
{
    if (!_invariants)
        return nullptr;
    return std::make_unique<SocInvariants>(soc);
}

void
BenchCli::recordStats(const std::string &label, const StatGroup &stats)
{
    if (_statsPath.empty())
        return;
    std::ostringstream oss;
    stats.dumpJson(oss);
    _statsJson.emplace_back(label, oss.str());
}

void
BenchCli::recordStats(const std::string &label, Simulator &sim)
{
    recordStats(label, sim, 0.0);
}

void
BenchCli::recordStats(const std::string &label, Simulator &sim,
                      double ops)
{
    // The power snapshot must happen regardless of whether a stats
    // path was given: --power-json alone is a valid invocation.
    if (_powerMeter != nullptr)
        _powerMeter->recordRun(sim, label, ops);
    sim.publishStallStats();
    recordStats(label, sim.stats());
}

void
BenchCli::addPowerReference(const std::string &label, double watts,
                            double ops_per_sec)
{
    if (_powerMeter != nullptr)
        _powerMeter->addReference(label, watts, ops_per_sec);
}

std::string
BenchCli::combinedStatsJson() const
{
    std::ostringstream oss;
    oss << "{";
    bool first = true;
    for (const auto &[label, json] : _statsJson) {
        if (!first)
            oss << ",\n";
        first = false;
        oss << "\"" << jsonEscape(label) << "\":" << json;
    }
    oss << "}\n";
    return oss.str();
}

int
BenchCli::finish()
{
    int rc = 0;
    if (_sink != nullptr) {
        std::ofstream f(_tracePath);
        if (!f) {
            std::cerr << "cannot open trace file " << _tracePath << "\n";
            rc = 1;
        } else {
            _sink->writeChromeTrace(f);
            std::cerr << "wrote " << _sink->numEvents() << " events to "
                      << _tracePath << "\n";
            _sink->writeSummary(std::cerr);
            _sink->writeProfile(std::cerr);
        }
    }
    if (!_statsPath.empty()) {
        std::ofstream f(_statsPath);
        if (!f) {
            std::cerr << "cannot open stats file " << _statsPath << "\n";
            rc = 1;
        } else {
            f << combinedStatsJson();
        }
    }
    if (!_perfPath.empty()) {
        std::ofstream f(_perfPath);
        if (!f) {
            std::cerr << "cannot open perf json file " << _perfPath
                      << "\n";
            rc = 1;
        } else {
            writePerfJson(f, _benchName, _quick,
                          hostNowNs() - _startNs, globalSimCycles(),
                          globalModuleTicks(), _profiler.get());
        }
    }
    if (!_powerTracePath.empty() && _powerSink != nullptr) {
        std::ofstream f(_powerTracePath);
        if (!f) {
            std::cerr << "cannot open power trace file "
                      << _powerTracePath << "\n";
            rc = 1;
        } else {
            _powerSink->writeChromeTrace(f);
            std::cerr << "wrote " << _powerSink->numEvents()
                      << " power samples to " << _powerTracePath << "\n";
        }
    }
    if (!_powerJsonPath.empty() && _powerMeter != nullptr) {
        std::ofstream f(_powerJsonPath);
        if (!f) {
            std::cerr << "cannot open power json file " << _powerJsonPath
                      << "\n";
            rc = 1;
        } else {
            writePowerReportJson(f, _powerMeter->report());
        }
    }
    if (_profiler != nullptr && _profiler->period() != 0)
        _profiler->writeReport(std::cerr);
    return rc;
}

} // namespace beethoven
