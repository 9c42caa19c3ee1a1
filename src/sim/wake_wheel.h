/**
 * @file
 * WakeWheel — the pending-wake schedule of the event-driven kernel.
 *
 * A classic timing wheel: near-future wakes land in a ring of slots
 * indexed by cycle modulo the wheel size (O(1) schedule and drain),
 * wakes more than a revolution away overflow into a min-heap. The
 * simulator drains the wheel once per cycle, in cycle order, so a
 * module woken for cycle C is awake before cycle C's tick phase.
 *
 * All storage is sized at construction: the ring is one flat array of
 * fixed-capacity slots, and a wake that finds its slot full spills
 * into the (pre-reserved) heap instead, so scheduling and draining
 * never allocate while the heap stays within its reserve.
 *
 * Entries are (cycle, module) pairs; duplicates are allowed (draining
 * an already-awake module is a harmless no-op), which lets producers
 * re-arm consumers without coordinating.
 */

#ifndef BEETHOVEN_SIM_WAKE_WHEEL_H
#define BEETHOVEN_SIM_WAKE_WHEEL_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "base/log.h"
#include "base/types.h"

namespace beethoven
{

class Module;

class WakeWheel
{
  public:
    /**
     * Wakes one ring slot holds before spilling into the heap. On
     * `fig6_machsuite --quick`, 1.4% of armed wakes find their slot
     * full; 8 keeps the ring at 128 KiB.
     */
    static constexpr std::size_t kSlotCapacity = 8;

    /** Heap entries reserved at construction. */
    static constexpr std::size_t kFarReserve = 1024;

    explicit WakeWheel(std::size_t slots = 1024)
        : _ring(slots * kSlotCapacity), _fill(slots, 0)
    {
        beethoven_assert(slots >= 2, "wake wheel needs >= 2 slots");
        _far.reserve(kFarReserve);
    }

    /**
     * Arm a wake for @p m at cycle @p at. @p now is the current cycle;
     * @p at must be strictly in the future (same-cycle wakes go through
     * the simulator's wakeNow path, not the wheel).
     */
    void
    schedule(Cycle now, Cycle at, Module *m)
    {
        beethoven_assert(at > now, "wheel wake must be in the future");
        if (at - now < _fill.size()) {
            const std::size_t s = at % _fill.size();
            if (_fill[s] < kSlotCapacity) {
                _ring[s * kSlotCapacity + _fill[s]++] = Entry{at, m};
                return;
            }
        }
        _far.push_back(Entry{at, m});
        std::push_heap(_far.begin(), _far.end(), Later{});
    }

    /**
     * Deliver every wake due at or before @p now via @p fn(Module*).
     * Must be called once per cycle in ascending order; entries in the
     * current ring slot that belong to a later revolution are kept.
     */
    template <typename Fn>
    void
    drain(Cycle now, Fn &&fn)
    {
        const std::size_t s = now % _fill.size();
        if (_fill[s] != 0) {
            Entry *slot = &_ring[s * kSlotCapacity];
            unsigned keep = 0;
            for (unsigned i = 0; i < _fill[s]; ++i) {
                if (slot[i].at <= now)
                    fn(slot[i].m);
                else
                    slot[keep++] = slot[i];
            }
            _fill[s] = static_cast<unsigned char>(keep);
        }
        while (!_far.empty() && _far.front().at <= now) {
            // Heap entries (a revolution out, or spilled from a full
            // slot) become due without ever migrating into the ring;
            // deliver them straight away.
            fn(_far.front().m);
            std::pop_heap(_far.begin(), _far.end(), Later{});
            _far.pop_back();
        }
    }

    /** Armed wakes not yet delivered (spurious duplicates included). */
    std::size_t
    pending() const
    {
        std::size_t n = _far.size();
        for (const unsigned char f : _fill)
            n += f;
        return n;
    }

  private:
    struct Entry
    {
        Cycle at = 0;
        Module *m = nullptr;
    };
    struct Later
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            return a.at > b.at;
        }
    };

    /** Slot s holds _fill[s] entries from _ring[s * kSlotCapacity]. */
    std::vector<Entry> _ring;
    std::vector<unsigned char> _fill;
    /** Min-heap on `at` (std::push_heap / pop_heap with Later). */
    std::vector<Entry> _far;
};

} // namespace beethoven

#endif // BEETHOVEN_SIM_WAKE_WHEEL_H
