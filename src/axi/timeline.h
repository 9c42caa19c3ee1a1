/**
 * @file
 * AXI transaction timeline recorder — regenerates the Fig. 5 style
 * annotated timing diagrams and feeds the protocol-legality checker
 * used in tests.
 */

#ifndef BEETHOVEN_AXI_TIMELINE_H
#define BEETHOVEN_AXI_TIMELINE_H

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.h"

namespace beethoven
{

/** Which AXI channel an event occurred on. */
enum class AxiChannel { AR, R, AW, W, B };

const char *axiChannelName(AxiChannel c);

/** One observed channel beat. */
struct AxiEvent
{
    Cycle cycle = 0;
    AxiChannel channel = AxiChannel::AR;
    u32 id = 0;
    u64 tag = 0;
    Addr addr = 0;     ///< meaningful for AR/AW
    u32 beats = 0;     ///< burst length, meaningful for AR/AW
    bool last = false; ///< meaningful for R/W
};

/**
 * Records AXI channel activity at a memory port and renders it.
 *
 * The DRAM controller calls record() as it accepts requests and moves
 * data beats; benches render the trace as an ASCII timing diagram and
 * tests replay it through AxiProtocolChecker.
 */
class AxiTimeline
{
  public:
    using Observer = std::function<void(const AxiEvent &)>;

    void setEnabled(bool enabled) { _enabled = enabled; }
    bool enabled() const { return _enabled; }

    void
    record(const AxiEvent &e)
    {
        // Observers are live even when event storage is off: the always-
        // on protocol invariant checkers subscribe here without paying
        // the memory cost of a full recorded timeline.
        for (const Observer &obs : _observers) {
            if (obs)
                obs(e);
        }
        if (_enabled)
            _events.push_back(e);
    }

    /**
     * Subscribe to every recorded event (storage-independent).
     * @return a token for removeObserver.
     */
    std::size_t
    addObserver(Observer obs)
    {
        _observers.push_back(std::move(obs));
        return _observers.size() - 1;
    }

    /** Detach the observer registered under @p token. */
    void
    removeObserver(std::size_t token)
    {
        if (token < _observers.size())
            _observers[token] = nullptr;
    }

    const std::vector<AxiEvent> &events() const { return _events; }
    void clear() { _events.clear(); }

    /**
     * Render one row per transaction: request issue point, then data
     * beat activity, then completion, against a cycle axis.
     *
     * @param os        output stream
     * @param width     character width of the time axis
     */
    void render(std::ostream &os, unsigned width = 100) const;

  private:
    bool _enabled = false;
    std::vector<AxiEvent> _events;
    std::vector<Observer> _observers;
};

/**
 * Incremental AXI protocol checker, fed one event at a time so a
 * violation surfaces at the event that makes it. Checked rules:
 *  - every R/W beat belongs to an outstanding transaction;
 *  - bursts deliver exactly the requested number of beats, with `last`
 *    on the final beat only;
 *  - transactions on the same ID complete in request order;
 *  - B responses only after the corresponding last W beat;
 *  - with setIdBounds(), AR/R/AW/B IDs stay inside the allocated space.
 *
 * Per-ID FIFOs are rings that keep their storage, so once every ID has
 * been seen at its peak depth, checking allocates nothing. Messages are
 * built only on a violation.
 */
class AxiProtocolChecker
{
  public:
    /**
     * Bound the legal ID space (0 = unchecked). IDs at or above the
     * bound are reported as leaks: they would alias another endpoint's
     * transactions on real hardware.
     */
    void
    setIdBounds(u32 read_ids, u32 write_ids)
    {
        _readIdBound = read_ids;
        _writeIdBound = write_ids;
    }

    /**
     * Feed the next event. @return empty string if still legal, else
     * a description of the violation (checker state is then stale;
     * callers are expected to abort).
     */
    std::string observe(const AxiEvent &e);

    /** True when no read or write transaction is outstanding. */
    bool quiescent() const { return _reads == 0 && _writes == 0; }

    std::size_t outstandingReads() const { return _reads; }
    std::size_t outstandingWrites() const { return _writes; }
    u64 eventsSeen() const { return _eventsSeen; }

  private:
    /** A FIFO that grows by doubling and never shrinks. */
    template <typename T>
    class Ring
    {
      public:
        bool empty() const { return _size == 0; }
        std::size_t size() const { return _size; }
        /** The @p i-th oldest entry. */
        T &at(std::size_t i) { return _buf[(_head + i) % _buf.size()]; }
        T &front() { return at(0); }

        void
        push(const T &v)
        {
            if (_size == _buf.size()) {
                std::vector<T> grown(std::max<std::size_t>(4, 2 * _size));
                for (std::size_t i = 0; i < _size; ++i)
                    grown[i] = at(i);
                _buf.swap(grown);
                _head = 0;
            }
            _buf[(_head + _size++) % _buf.size()] = v;
        }

        /** Remove the @p i-th oldest entry. */
        void
        erase(std::size_t i)
        {
            for (; i != 0; --i)
                at(i) = at(i - 1);
            _head = (_head + 1) % _buf.size();
            --_size;
        }

      private:
        std::vector<T> _buf;
        std::size_t _head = 0;
        std::size_t _size = 0;
    };

    struct Outstanding
    {
        u64 tag = 0;
        u32 beatsExpected = 0;
        u32 beatsSeen = 0;
        bool dataDone = false; ///< writes: the last W beat arrived
    };

    /** Outstanding transactions of one AXI ID, oldest first. */
    struct IdQueues
    {
        u32 id = 0;
        Ring<Outstanding> reads;
        Ring<Outstanding> writes;
    };

    /** A write burst still taking W beats, in AW order. */
    struct OpenWrite
    {
        u64 tag = 0;
        u32 id = 0;
        u32 beatsExpected = 0;
        u32 beatsSeen = 0;
    };

    /** The queues of @p id, created on first use. */
    IdQueues &queues(u32 id);

    std::vector<IdQueues> _ids; ///< sorted by ID
    Ring<OpenWrite> _openWrites;
    std::size_t _reads = 0, _writes = 0;
    u32 _readIdBound = 0, _writeIdBound = 0;
    u64 _eventsSeen = 0;
};

/**
 * Validates a recorded event stream with AxiProtocolChecker. Returns an
 * empty string when legal, else a description of the first violation.
 */
std::string checkAxiProtocol(const std::vector<AxiEvent> &events);

} // namespace beethoven

#endif // BEETHOVEN_AXI_TIMELINE_H
