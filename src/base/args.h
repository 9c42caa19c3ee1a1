/**
 * @file
 * The one command-line flag parser, shared by the `beethoven` tool's
 * subcommands and the bench binaries. A flag is `--name` or
 * `--name=value`; counts are read strictly (see parseCount), so a
 * malformed number is a usage error instead of a silent zero, and an
 * empty value is a usage error instead of a silently dropped option.
 */

#ifndef BEETHOVEN_BASE_ARGS_H
#define BEETHOVEN_BASE_ARGS_H

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "base/types.h"

namespace beethoven
{

/** An unknown or malformed command-line argument; what() says which. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Read @p text as a count: one or more decimal digits whose value fits
 * in u64. Signs, spaces, any other character, the empty string and
 * overflow all yield nullopt.
 */
std::optional<u64> parseCount(std::string_view text);

/** One command-line argument, matched against flag names. */
class Arg
{
  public:
    explicit Arg(std::string_view text) : _text(text) {}

    std::string_view text() const { return _text; }

    /** True for exactly `--name`. */
    bool flag(std::string_view name) const;

    /**
     * True for `--name=VALUE`; VALUE goes to @p out.
     * @throws UsageError when VALUE is empty (`--name=`).
     */
    bool value(std::string_view name, std::string &out) const;

    /**
     * True for `--name=N`; N goes to @p out.
     * @throws UsageError when N is not a count.
     */
    bool count(std::string_view name, u64 &out) const;

    /** True when the argument is not a flag (no leading '-'). */
    bool positional() const;

    /** @throws UsageError naming this argument as unrecognized. */
    [[noreturn]] void reject() const;

  private:
    /** The value of `--name=VALUE`, or nullopt for any other text. */
    std::optional<std::string_view> valueOf(std::string_view name) const;

    std::string_view _text;
};

} // namespace beethoven

#endif // BEETHOVEN_BASE_ARGS_H
