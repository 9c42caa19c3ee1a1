/**
 * @file
 * Status / error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — internal framework invariant violated (a Beethoven bug);
 *            aborts so a debugger or core dump can capture state.
 * fatal()  — the *user's* configuration or input is invalid; throws a
 *            ConfigError so tests (and embedding applications) can catch
 *            and report it without tearing down the process.
 * warn()   — something works but is suspicious; execution continues.
 * inform() — plain status output.
 */

#ifndef BEETHOVEN_BASE_LOG_H
#define BEETHOVEN_BASE_LOG_H

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace beethoven
{

/** Error thrown by fatal() for invalid user configuration or input. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

namespace detail
{

std::string formatMessage(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** The what() text fatal() throws: "fatal: MSG (at FILE:LINE)". */
std::string fatalText(const char *file, int line, const std::string &msg);

} // namespace detail

/**
 * Abort with a message. Use only for conditions that indicate a bug in
 * Beethoven itself, never for user error.
 */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/**
 * Raise a ConfigError for an invalid user configuration.
 */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr. */
void warnImpl(const std::string &msg);

/** Print an informational message to stdout. */
void informImpl(const std::string &msg);

/** Enable/disable inform() output (quiet mode for benchmarks). */
void setInformEnabled(bool enabled);

#define panic(...) \
    ::beethoven::panicImpl(__FILE__, __LINE__, \
                           ::beethoven::detail::formatMessage(__VA_ARGS__))

#define fatal(...) \
    ::beethoven::fatalImpl(__FILE__, __LINE__, \
                           ::beethoven::detail::formatMessage(__VA_ARGS__))

#define warn(...) \
    ::beethoven::warnImpl(::beethoven::detail::formatMessage(__VA_ARGS__))

#define inform(...) \
    ::beethoven::informImpl(::beethoven::detail::formatMessage(__VA_ARGS__))

/** Assert an internal invariant; compiled in all build types. */
#define beethoven_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::beethoven::panicImpl( \
                __FILE__, __LINE__, \
                std::string("assertion failed: " #cond " — ") + \
                    ::beethoven::detail::formatMessage(__VA_ARGS__)); \
        } \
    } while (0)

} // namespace beethoven

#endif // BEETHOVEN_BASE_LOG_H
