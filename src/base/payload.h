/**
 * @file
 * Payload — the inline byte buffer every per-cycle flit carries
 * (scratchpad rows, stream words, AXI data and strobe beats).
 *
 * Hardware moves these as fixed-width fields sized to the bus, so the
 * model does too: a Payload is a 64-byte array plus a length, never a
 * heap buffer. 64 bytes is the widest bus of any platform (aws_f1 and
 * sim are 64, asap7 32, kria 16) and the widest row or channel any
 * shipped core uses (GeMM bmat, NW tb, A3 query/out). A composition
 * that asks for more is rejected by lint rule BTH024 before
 * elaboration; the asserts below only guard direct API misuse.
 */

#ifndef BEETHOVEN_BASE_PAYLOAD_H
#define BEETHOVEN_BASE_PAYLOAD_H

#include <algorithm>
#include <array>
#include <cstring>
#include <initializer_list>
#include <iterator>

#include "base/log.h"
#include "base/types.h"

namespace beethoven
{

class Payload
{
  public:
    /** Widest payload in bytes (the widest bus of any platform). */
    static constexpr std::size_t maxBytes = 64;

    Payload() = default;

    Payload(std::initializer_list<u8> bytes)
    {
        assign(bytes.begin(), bytes.end());
    }

    std::size_t size() const { return _size; }

    u8 *data() { return _bytes.data(); }
    const u8 *data() const { return _bytes.data(); }
    u8 *begin() { return _bytes.data(); }
    u8 *end() { return _bytes.data() + _size; }
    const u8 *begin() const { return _bytes.data(); }
    const u8 *end() const { return _bytes.data() + _size; }

    u8 &operator[](std::size_t i) { return _bytes[i]; }
    u8 operator[](std::size_t i) const { return _bytes[i]; }

    /** Set the length to @p n; bytes past the old length read as 0. */
    void
    resize(std::size_t n)
    {
        checkFits(n);
        if (n > _size)
            std::memset(_bytes.data() + _size, 0, n - _size);
        _size = static_cast<u8>(n);
    }

    /** @p n copies of @p value. */
    void
    assign(std::size_t n, u8 value)
    {
        checkFits(n);
        std::memset(_bytes.data(), value, n);
        _size = static_cast<u8>(n);
    }

    /** The bytes of [first, last). */
    template <std::input_iterator It>
    void
    assign(It first, It last)
    {
        const auto n = static_cast<std::size_t>(std::distance(first, last));
        checkFits(n);
        std::copy(first, last, _bytes.begin());
        _size = static_cast<u8>(n);
    }

  private:
    static void
    checkFits(std::size_t n)
    {
        beethoven_assert(n <= maxBytes,
                         "%zu-byte payload exceeds the %zu-byte inline cap",
                         n, maxBytes);
    }

    std::array<u8, maxBytes> _bytes{};
    u8 _size = 0;
};

/** Byte-enable mask with every byte of a payload on. */
constexpr u64 allBytesMask = ~u64(0);

} // namespace beethoven

#endif // BEETHOVEN_BASE_PAYLOAD_H
