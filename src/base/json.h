/**
 * @file
 * A minimal JSON parser for validating the substrate's own output
 * (trace files, stats exports) in tests and tooling, and the one string
 * escaper every JSON writer uses. Not a general serialization layer:
 * numbers are doubles, objects preserve insertion order in a vector of
 * pairs.
 */

#ifndef BEETHOVEN_BASE_JSON_H
#define BEETHOVEN_BASE_JSON_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace beethoven
{

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr if absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse @p text as a single JSON value (trailing whitespace allowed).
 * @throws ConfigError on malformed input, including a raw control
 *         character (below 0x20) inside a string (RFC 8259 §7).
 */
JsonValue parseJson(const std::string &text);

/**
 * Read the file at @p path and parse it with parseJson().
 * @return nullopt when the file cannot be opened.
 * @throws ConfigError when its contents are malformed.
 */
std::optional<JsonValue> parseJsonFile(const std::string &path);

/**
 * Escape @p s for embedding in a JSON string literal (no surrounding
 * quotes): `"` and `\` are backslash-escaped, newline, tab and
 * carriage return get their short forms, and every other byte below
 * 0x20 becomes `\u00XX`. Bytes from 0x20 up pass through unchanged.
 */
std::string jsonEscape(const std::string &s);

} // namespace beethoven

#endif // BEETHOVEN_BASE_JSON_H
