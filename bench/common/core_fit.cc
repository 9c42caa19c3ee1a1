#include "common/core_fit.h"

#include "base/log.h"
#include "core/soc.h"

namespace beethoven
{

unsigned
maxCoresThatFit(
    const std::function<AcceleratorSystemConfig(unsigned)> &make_config,
    const Platform &platform, unsigned limit)
{
    auto fits = [&](unsigned n) {
        try {
            AcceleratorSoc soc(AcceleratorConfig(make_config(n)),
                               platform);
            return true;
        } catch (const ConfigError &) {
            return false;
        }
    };
    unsigned lo = 1, hi = limit;
    while (lo < hi) {
        const unsigned mid = (lo + hi + 1) / 2;
        if (fits(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    // The search never probes n = 1, so confirm it only when nothing
    // larger fit.
    return lo == 1 && !fits(1) ? 0 : lo;
}

} // namespace beethoven
