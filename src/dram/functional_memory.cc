#include "dram/functional_memory.h"

#include <cstring>

#include "base/log.h"

namespace beethoven
{

FunctionalMemory::Page &
FunctionalMemory::pageFor(Addr addr)
{
    const u64 pn = addr / pageBytes;
    auto it = _pages.find(pn);
    if (it == _pages.end()) {
        auto page = std::make_unique<Page>();
        page->fill(0);
        it = _pages.emplace(pn, std::move(page)).first;
    }
    return *it->second;
}

const FunctionalMemory::Page *
FunctionalMemory::pageForIfPresent(Addr addr) const
{
    auto it = _pages.find(addr / pageBytes);
    return it == _pages.end() ? nullptr : it->second.get();
}

void
FunctionalMemory::read(Addr addr, std::size_t len, u8 *dst) const
{
    while (len > 0) {
        const std::size_t off = addr % pageBytes;
        const std::size_t chunk = std::min(len, pageBytes - off);
        if (const Page *p = pageForIfPresent(addr))
            std::memcpy(dst, p->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        addr += chunk;
        dst += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::write(Addr addr, std::size_t len, const u8 *src)
{
    while (len > 0) {
        const std::size_t off = addr % pageBytes;
        const std::size_t chunk = std::min(len, pageBytes - off);
        std::memcpy(pageFor(addr).data() + off, src, chunk);
        addr += chunk;
        src += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::writeMasked(Addr addr, const Payload &data, u64 strb)
{
    const std::size_t n = data.size();
    const u64 full = n >= 64 ? allBytesMask : (u64(1) << n) - 1;
    if ((strb & full) == full) {
        write(addr, n, data.data());
        return;
    }
    // Write each run of enabled bytes with one copy.
    std::size_t i = 0;
    while (i < n) {
        if ((strb >> i & 1) == 0) {
            ++i;
            continue;
        }
        std::size_t end = i + 1;
        while (end < n && (strb >> end & 1) != 0)
            ++end;
        write(addr + i, end - i, data.data() + i);
        i = end;
    }
}

} // namespace beethoven
