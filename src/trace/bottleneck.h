/**
 * @file
 * Offline analysis of stall-attribution stats.
 *
 * Consumes the JSON a bench writes with --stats-json= (one StatGroup
 * tree per recordStats() label) and extracts, per run, every module
 * that published a "stall" sub-group. Modules are ranked as cycle
 * sinks: busiest first, ties broken by total attributed stall, so the
 * module at the head of the list is the one limiting the run.
 *
 * `beethoven bottleneck` runs it over a --stats-json file;
 * stall_test exercises it directly.
 */

#ifndef BEETHOVEN_TRACE_BOTTLENECK_H
#define BEETHOVEN_TRACE_BOTTLENECK_H

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/types.h"
#include "trace/stall.h"

namespace beethoven
{

struct JsonValue;

/** One module's per-class cycle counts, indexed by StallClass. */
struct StallBreakdown
{
    std::string module;
    std::array<u64, kNumStallClasses> counts{};

    u64 total() const;
    /** Every non-Busy, non-Idle cycle: the module wanted to work. */
    u64 attributedStall() const;
};

/** All instrumented modules of one recordStats() label. */
struct RunStallReport
{
    std::string label;
    u64 cycles = 0; ///< root "cycles" scalar (0 when absent)
    std::vector<StallBreakdown> modules; ///< ranked, top sink first
};

/**
 * Walk a parsed --stats-json document ({label: statsTree, ...}) and
 * build one ranked report per label. Labels without any stall groups
 * produce a report with an empty module list.
 */
std::vector<RunStallReport> analyzeStallStats(const JsonValue &root);

/** Human-readable ranked table, @p top_n modules per run (0 = all). */
void writeBottleneckTable(std::ostream &os,
                          const std::vector<RunStallReport> &runs,
                          std::size_t top_n);

/** Machine-readable report; class keys match stallClassName(). */
void writeBottleneckJson(std::ostream &os,
                         const std::vector<RunStallReport> &runs);

} // namespace beethoven

#endif // BEETHOVEN_TRACE_BOTTLENECK_H
