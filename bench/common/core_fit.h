/**
 * @file
 * Largest core count of one accelerator system that elaborates on a
 * platform, shared by the benches that size designs to the device.
 */

#ifndef BEETHOVEN_BENCH_COMMON_CORE_FIT_H
#define BEETHOVEN_BENCH_COMMON_CORE_FIT_H

#include <functional>

#include "core/config.h"

namespace beethoven
{

class Platform;

/**
 * Binary-search the largest n in [1, @p limit] for which
 * @p make_config(n) elaborates on @p platform (elaboration throws
 * ConfigError when the floorplan does not fit). Assumes fit is
 * monotonic in n. @return 0 when not even one core fits.
 */
unsigned maxCoresThatFit(
    const std::function<AcceleratorSystemConfig(unsigned)> &make_config,
    const Platform &platform, unsigned limit);

} // namespace beethoven

#endif // BEETHOVEN_BENCH_COMMON_CORE_FIT_H
