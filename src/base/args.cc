#include "base/args.h"

#include <limits>

namespace beethoven
{

std::optional<u64>
parseCount(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    u64 v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const u64 digit = static_cast<u64>(c - '0');
        if (v > (std::numeric_limits<u64>::max() - digit) / 10)
            return std::nullopt;
        v = v * 10 + digit;
    }
    return v;
}

std::optional<std::string_view>
Arg::valueOf(std::string_view name) const
{
    if (!_text.starts_with("--"))
        return std::nullopt;
    const std::string_view rest = _text.substr(2);
    if (!rest.starts_with(name) || rest.size() == name.size() ||
        rest[name.size()] != '=')
        return std::nullopt;
    return rest.substr(name.size() + 1);
}

bool
Arg::flag(std::string_view name) const
{
    return _text.starts_with("--") && _text.substr(2) == name;
}

bool
Arg::value(std::string_view name, std::string &out) const
{
    const std::optional<std::string_view> v = valueOf(name);
    if (!v)
        return false;
    if (v->empty())
        throw UsageError("empty --" + std::string(name) + " value");
    out = *v;
    return true;
}

bool
Arg::count(std::string_view name, u64 &out) const
{
    const std::optional<std::string_view> v = valueOf(name);
    if (!v)
        return false;
    const std::optional<u64> n = parseCount(*v);
    if (!n) {
        throw UsageError("bad --" + std::string(name) + " value '" +
                         std::string(*v) +
                         "' (expected a non-negative integer)");
    }
    out = *n;
    return true;
}

bool
Arg::positional() const
{
    return !_text.starts_with('-');
}

void
Arg::reject() const
{
    throw UsageError("unrecognized argument '" + std::string(_text) + "'");
}

} // namespace beethoven
