/**
 * @file
 * soc_lint — the composition checker CLI (see DESIGN.md §5c).
 *
 * Elaborates a serialized composition (the same self-contained JSON
 * format soc_fuzz writes for repro files: platform shape + systems;
 * any "ops" array is ignored) or a paper preset without running a
 * single cycle, and prints every finding of the checker: the
 * composition layers first (BTH0xx; lint errors stop before anything
 * is built) and, when those pass, the wake/sleep contract of the
 * elaborated simulation graph (BTH1xx).
 *
 * Usage:
 *   soc_lint [--json] [--werror] [--list-codes] CASE.json
 *   soc_lint [--json] [--werror] --preset=fig4|fig6
 *
 * A nonzero "plant_wake_violation" count in CASE.json suppresses that
 * push-wake arming so the graph pass's catch path is testable. The
 * presets elaborate the paper's Fig. 4 (memcpy on AWS F1) and Fig. 6
 * (4-core GEMM at 125 MHz) compositions.
 *
 * Exit codes: 0 composition is clean (warnings alone are reported but
 * do not fail without --werror), 2 blocking findings, 3 usage error,
 * malformed/unreadable input, or an elaboration failure without a
 * diagnostic code (e.g. the final device fit check).
 */

#include <iostream>
#include <memory>
#include <string>

#include "accel/machsuite/gemm.h"
#include "accel/memcpy_core.h"
#include "base/log.h"
#include "core/soc.h"
#include "platform/aws_f1.h"
#include "sim/graph_record.h"
#include "verify/fuzz.h"
#include "verify/random_soc.h"

using namespace beethoven;
using namespace beethoven::verify;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: soc_lint [--json] [--werror] [--list-codes] "
          "CASE.json\n"
          "       soc_lint [--json] [--werror] --preset=fig4|fig6\n"
          "\n"
          "  --json          emit {\"report\": ...} as JSON\n"
          "  --werror        treat warnings as blocking findings\n"
          "  --list-codes    print the diagnostic code registry and "
          "exit\n"
          "  --preset=NAME   check a built-in composition instead of a "
          "case\n"
          "                  file (fig4: memcpy on AWS F1; fig6: "
          "4-core GEMM)\n"
          "\n"
          "CASE.json uses the soc_fuzz repro format (platform shape +\n"
          "systems); traffic ops, if present, are ignored. A nonzero\n"
          "\"plant_wake_violation\" suppresses that push-wake arming.\n";
}

void
listCodes(std::ostream &os)
{
    for (const auto &info : lint::diagnosticRegistry()) {
        os << info.code << "  " << lint::severityName(info.severity)
           << "  [" << info.layer << "] " << info.summary << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool as_json = false;
    bool werror = false;
    std::string path;
    std::string preset;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            as_json = true;
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--list-codes") {
            listCodes(std::cout);
            return 0;
        } else if (arg.rfind("--preset=", 0) == 0) {
            preset = arg.substr(9);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "soc_lint: unknown argument '" << arg << "'\n";
            usage(std::cerr);
            return 3;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "soc_lint: more than one input file\n";
            usage(std::cerr);
            return 3;
        }
    }
    if (path.empty() == preset.empty()) {
        std::cerr << "soc_lint: need exactly one of CASE.json or "
                     "--preset\n";
        usage(std::cerr);
        return 3;
    }

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
            std::cerr << "soc_lint: unknown preset '" << preset << "'\n";
            return 3;
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
            std::cerr << "soc_lint: " << e.what() << "\n";
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
        std::cerr << "soc_lint: " << e.what() << "\n";
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
