#include "base/log.h"

#include <cstdarg>
#include <vector>

namespace beethoven
{

namespace detail
{

std::string
formatMessage(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (needed < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

std::string
fatalText(const char *file, int line, const std::string &msg)
{
    return formatMessage("fatal: %s (at %s:%d)", msg.c_str(), file, line);
}

} // namespace detail

namespace
{
bool informEnabled = true;
} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    throw ConfigError(detail::fatalText(file, line, msg));
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (informEnabled)
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setInformEnabled(bool enabled)
{
    informEnabled = enabled;
}

} // namespace beethoven
