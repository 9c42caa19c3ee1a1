#include "dram/controller.h"

#include <algorithm>
#include <bit>
#include <ostream>
#include <type_traits>

#include "base/log.h"
#include "trace/trace.h"

namespace beethoven
{

namespace
{

/** First beat at or after @p from whose bit in @p mask is clear, or
 *  @p limit if there is none below it. */
template <typename Mask>
u32
nextClear(const Mask &mask, u32 from, u32 limit)
{
    while (from < limit) {
        const u64 free = ~mask[from / 64] >> (from % 64);
        if (free != 0)
            return std::min(from + static_cast<u32>(std::countr_zero(free)),
                            limit);
        from = (from / 64 + 1) * 64;
    }
    return limit;
}

/** Remove the head in @p heads that holds @p slot. */
template <typename Heads>
void
eraseHead(Heads &heads, u32 slot)
{
    auto it = std::find_if(heads.begin(), heads.end(),
                           [slot](const auto &h) { return h.slot == slot; });
    beethoven_assert(it != heads.end(), "retiring a transaction that was "
                                        "never a schedulable head");
    heads.erase(it);
}

} // namespace

DramController::DramController(Simulator &sim, std::string name,
                               const Config &cfg, FunctionalMemory &mem)
    : Module(sim, std::move(name)),
      _cfg(cfg),
      _mem(mem),
      _arIn(sim, cfg.portDepth),
      _wIn(sim, cfg.portDepth),
      _rOut(sim, cfg.portDepth),
      _bOut(sim, cfg.portDepth),
      _banks(cfg.geometry.numBanks()),
      _stall(sim, Module::name())
{
    // Bank sets are u64 masks and issue flags a 256-bit BeatMask.
    beethoven_assert(cfg.geometry.numBanks() <= 64,
                     "DRAM geometry has %u banks; at most 64 are modeled",
                     cfg.geometry.numBanks());
    beethoven_assert(cfg.axi.maxBurstBeats <= 64 * BeatMask{}.size(),
                     "maxBurstBeats %u exceeds the AXI4 limit of 256",
                     cfg.axi.maxBurstBeats);
    StatGroup &g = sim.stats().group(Module::name());
    _statRowHits = &g.scalar("rowHits");
    _statRowMisses = &g.scalar("rowMisses");
    _statColReads = &g.scalar("colReads");
    _statColWrites = &g.scalar("colWrites");
    _statTurnarounds = &g.scalar("turnarounds");
    _statRefreshes = &g.scalar("refreshes");
    _readLatency = &g.histogram("readLatency");
    _readLatency->configure(64, 16.0);
    _writeLatency = &g.histogram("writeLatency");
    _writeLatency->configure(64, 16.0);
    _nextRefreshAt = cfg.timing.tREFI;
    declareRole("dram");
    declareSleepable();
    declareSelfWake();
    // Event-kernel wiring: new requests and drained output ports wake
    // the controller; refresh timing is self-armed at sleep.
    _arIn.setWakeOnPush(this);
    _wIn.setWakeOnPush(this);
    _rOut.setWakeOnPop(this);
    _bOut.setWakeOnPop(this);
}

void
DramController::tick()
{
    bool did = acceptRequests();
    // All-bank refresh: every tREFI the banks precharge and the device
    // is unavailable for tRFC. Requests keep queueing meanwhile.
    const Cycle now = sim().cycle();
    if (now >= _nextRefreshAt) {
        for (BankState &bank : _banks) {
            bank.open = false;
            bank.actReadyAt = std::max(bank.actReadyAt,
                                       now + _cfg.timing.tRFC);
        }
        _refreshUntil = now + _cfg.timing.tRFC;
        _nextRefreshAt = now + _cfg.timing.tREFI;
        ++*_statRefreshes;
    }
    if (now < _refreshUntil) {
        const ServiceResult rd = sendReadData(); // data may still drain
        const ServiceResult wr = sendWriteResponses();
        if (rd == ServiceResult::Done || wr == ServiceResult::Done)
            did = true;
        accountCycle(did, rd, wr, /*in_refresh=*/true);
        return;
    }
    const bool col = scheduleColumn();
    if (scheduleRowCommands())
        did = true;
    if (col)
        commitColumn();
    const ServiceResult rd = sendReadData();
    const ServiceResult wr = sendWriteResponses();
    if (col || rd == ServiceResult::Done || wr == ServiceResult::Done)
        did = true;
    trackIdWaits(col);
    accountCycle(did, rd, wr, /*in_refresh=*/false);
}

bool
DramController::acceptRequests()
{
    const Cycle now = sim().cycle();
    bool did = false;

    if (_arIn.canPop() && _reads.live < _cfg.maxOutstandingReads) {
        ReadRequest req = _arIn.pop();
        beethoven_assert(req.beats >= 1 &&
                             req.beats <= _cfg.axi.maxBurstBeats,
                         "illegal read burst length %u", req.beats);
        const u32 slot = _reads.acquire();
        ReadTxn &txn = _reads.slots[slot];
        startTxn(txn, req.id, req.tag, req.addr, req.beats);
        txn.beatsSent = 0;
        txn.beatReadyAt.assign(req.beats, 0);
        txn.beatData.resize(req.beats);
        IdState &ids = idState(_readIds, req.id);
        ids.order.push_back(slot);
        if (ids.order.size() == 1) {
            // The newest transaction: it goes last in seq order. Its
            // gate is long open (the ID's previous head issued after it
            // opened, then retired).
            beethoven_assert(now >= ids.readyAt, "recycle gate still set "
                                                 "on an idle read ID");
            addHead(_readHeads, makeHead(txn, slot));
        }
        _timeline.record({now, AxiChannel::AR, req.id, req.tag, req.addr,
                          req.beats, false});
        did = true;
    }

    if (_wIn.canPop()) {
        const WriteFlit &flit = _wIn.front();
        if (flit.hasHeader) {
            if (_writes.live >= _cfg.maxOutstandingWrites)
                return did; // stall the W channel until a slot frees
            beethoven_assert(flit.header.beats >= 1 &&
                                 flit.header.beats <= _cfg.axi.maxBurstBeats,
                             "illegal write burst length %u",
                             flit.header.beats);
            const u32 slot = _writes.acquire();
            WriteTxn &txn = _writes.slots[slot];
            startTxn(txn, flit.header.id, flit.header.tag, flit.header.addr,
                     flit.header.beats);
            _timeline.record({now, AxiChannel::AW, txn.id, txn.tag,
                              txn.addr, txn.beats, false});
            // The header flit carries the first data beat.
            _timeline.record({now, AxiChannel::W, txn.id, txn.tag, 0, 0,
                              flit.beat.last});
            txn.data.clear();
            txn.data.push_back(flit.beat);
            txn.beatsReceived = 1;
            ++_pendingWriteBeats;
            const bool complete = flit.beat.last;
            beethoven_assert(!complete || txn.beats == 1,
                             "write burst ended after 1/%u beats",
                             txn.beats);
            IdState &ids = idState(_writeIds, txn.id);
            ids.order.push_back(slot);
            if (ids.order.size() == 1) {
                beethoven_assert(now >= ids.readyAt, "recycle gate still "
                                                     "set on an idle write ID");
                addHead(_writeHeads, makeHead(txn, slot));
            }
            _fillingWrite = slot;
            _hasFilling = !complete;
            _wIn.pop();
            did = true;
        } else {
            beethoven_assert(_hasFilling,
                             "W data beat with no open write burst");
            WriteTxn &txn = _writes.slots[_fillingWrite];
            _timeline.record({now, AxiChannel::W, txn.id, txn.tag, 0, 0,
                              flit.beat.last});
            const bool last = flit.beat.last;
            txn.data.push_back(flit.beat);
            _wIn.pop();
            ++txn.beatsReceived;
            refreshHead(_writes, _writeHeads, _fillingWrite);
            ++_pendingWriteBeats;
            did = true;
            if (last) {
                beethoven_assert(txn.beatsReceived == txn.beats,
                                 "write burst ended after %u/%u beats",
                                 txn.beatsReceived, txn.beats);
                _hasFilling = false;
            }
        }
    }
    return did;
}

void
DramController::startTxn(TxnBase &txn, u32 id, u64 tag, Addr addr,
                         u32 beats)
{
    txn.seq = _seqCounter++;
    txn.tag = tag;
    txn.id = id;
    txn.acceptedAt = sim().cycle();
    txn.addr = addr;
    txn.beats = beats;
    txn.beatsIssued = 0;
    txn.firstUnissued = 0;
    txn.issued = {};
    txn.beatCoord.resize(beats);
    for (u32 b = 0; b < beats; ++b) {
        txn.beatCoord[b] = mapAddress(
            _cfg.geometry, addr + static_cast<Addr>(b) * _cfg.axi.dataBytes);
    }
}

void
DramController::updateDrainMode()
{
    // Write-drain mode switching (watermark policy): service reads
    // until enough write beats have buffered up (or no reads remain),
    // then drain writes as a batch. This amortizes bus turnarounds the
    // way real DDR controllers do.
    const Cycle now = sim().cycle();
    auto any_exposed = [now](const std::vector<Head> &heads) {
        return std::any_of(heads.begin(), heads.end(), [now](const Head &h) {
            return h.banks(now) != 0;
        });
    };
    const bool reads_exist = any_exposed(_readHeads);
    const bool writes_exist = any_exposed(_writeHeads);
    if (_writeDrainMode) {
        if (!writes_exist)
            _writeDrainMode = false;
    } else {
        if (_pendingWriteBeats >= _cfg.writeDrainHighWatermark ||
            (!reads_exist && writes_exist)) {
            _writeDrainMode = true;
        }
    }
}

template <typename Txn, typename Fn>
bool
DramController::forEachExposed(const Txn &txn, Fn &&fn) const
{
    // AXI same-ID ordering: only the oldest transaction on each ID may
    // occupy the scheduler (the serialization that penalizes single-ID
    // streams, Fig. 5's HLS kernel). Within it, up to schedulerWindow
    // unissued beats are visible at once (the command-queue lookahead
    // of a real controller), which lets the scheduler batch row
    // activations and bus directions.
    const u32 limit = exposable(txn);
    unsigned exposed = 0;
    for (u32 b = nextClear(txn.issued, txn.firstUnissued, limit);
         b < limit && exposed < _cfg.schedulerWindow;
         b = nextClear(txn.issued, b + 1, limit), ++exposed) {
        if (fn(b))
            return true;
    }
    return false;
}

template <typename Txn>
DramController::Head
DramController::makeHead(const Txn &txn, u32 slot) const
{
    Head h;
    h.seq = txn.seq;
    h.slot = slot;
    h.rowLo = txn.beatCoord.front().row;
    h.rowHi = txn.beatCoord.back().row;
    forEachExposed(txn, [&](u32 b) {
        h.exposedBanks |= u64(1) << txn.beatCoord[b].bank;
        return false;
    });
    return h;
}

void
DramController::addHead(std::vector<Head> &heads, const Head &head)
{
    heads.insert(std::upper_bound(heads.begin(), heads.end(), head.seq,
                                  [](u64 key, const Head &h) {
                                      return key < h.seq;
                                  }),
                 head);
}

template <typename Txn>
void
DramController::refreshHead(const TxnPool<Txn> &pool,
                            std::vector<Head> &heads, u32 slot) const
{
    for (Head &h : heads) {
        if (h.slot == slot) {
            h.exposedBanks = makeHead(pool.slots[slot], slot).exposedBanks;
            return;
        }
    }
}

template <typename Txn>
bool
DramController::oldestReadyHit(const TxnPool<Txn> &pool,
                               const std::vector<Head> &heads,
                               u64 ready_banks, ColumnPick &pick) const
{
    // Heads are in seq order and beats in beat order, so the first hit
    // is the FR-FCFS pick: the oldest (seq, beat) ready row hit.
    const Cycle now = sim().cycle();
    for (const Head &h : heads) {
        const u64 ready = h.banks(now) & ready_banks;
        if (ready == 0)
            continue;
        if (h.rowLo == h.rowHi) {
            // One row: a hit needs one of those banks open on it.
            u64 m = ready;
            while (m != 0 && _banks[std::countr_zero(m)].row != h.rowLo)
                m &= m - 1;
            if (m == 0)
                continue;
        }
        const Txn &txn = pool.slots[h.slot];
        const bool found = forEachExposed(txn, [&](u32 b) {
            const DramCoord &c = txn.beatCoord[b];
            if ((ready_banks >> c.bank & 1) == 0 ||
                _banks[c.bank].row != c.row) {
                return false;
            }
            pick.txnSlot = h.slot;
            pick.beatIdx = b;
            return true;
        });
        if (found)
            return true;
    }
    return false;
}

bool
DramController::scheduleColumn()
{
    const Cycle now = sim().cycle();
    if (_anyColIssued && now <= _lastColAt)
        return false; // data bus already used this cycle

    updateDrainMode();

    // Ready row hits: banks open and past tCCD. Bus turnaround:
    // switching direction costs tSwitch idle cycles.
    u64 ready_banks = 0;
    for (std::size_t b = 0; b < _banks.size(); ++b) {
        if (_banks[b].open && now >= _banks[b].colReadyAt)
            ready_banks |= u64(1) << b;
    }
    auto find = [&](bool is_write) {
        if (ready_banks == 0 ||
            (_anyColIssued && is_write != _lastColWasWrite &&
             now < _lastColAt + _cfg.timing.tSwitch)) {
            return false;
        }
        _colPick.isWrite = is_write;
        return is_write
                   ? oldestReadyHit(_writes, _writeHeads, ready_banks, _colPick)
                   : oldestReadyHit(_reads, _readHeads, ready_banks, _colPick);
    };
    // Serve the drain direction; if it has nothing ready this cycle,
    // fall back to the other direction rather than idling the data
    // bus (work-conserving, as real controllers are).
    if (!find(_writeDrainMode) && !find(!_writeDrainMode))
        return false;
    const ColumnPick &chosen = _colPick;

    const DramCoord &coord =
        chosen.isWrite
            ? _writes.slots[chosen.txnSlot].beatCoord[chosen.beatIdx]
            : _reads.slots[chosen.txnSlot].beatCoord[chosen.beatIdx];
    BankState &bank = _banks[coord.bank];
    bank.colReadyAt = now + 1;
    bank.preReadyAt = std::max(bank.preReadyAt, now + 2);
    if (_anyColIssued && chosen.isWrite != _lastColWasWrite)
        ++*_statTurnarounds;
    _lastColAt = now;
    _lastColWasWrite = chosen.isWrite;
    _anyColIssued = true;
    ++*_statRowHits;
    ++_beatsServed;

    if (chosen.isWrite) {
        WriteTxn &txn = _writes.slots[chosen.txnSlot];
        _lastColId = txn.id;
        const WriteBeat &beat = txn.data[chosen.beatIdx];
        _mem.writeMasked(txn.addr + static_cast<Addr>(chosen.beatIdx) *
                                        _cfg.axi.dataBytes,
                         beat.data, beat.strb);
        ++*_statColWrites;
    } else {
        ReadTxn &txn = _reads.slots[chosen.txnSlot];
        _lastColId = txn.id;
        txn.beatReadyAt[chosen.beatIdx] = now + _cfg.timing.tCAS;
        Payload &data = txn.beatData[chosen.beatIdx];
        data.resize(_cfg.axi.dataBytes);
        _mem.read(txn.addr +
                      static_cast<Addr>(chosen.beatIdx) * _cfg.axi.dataBytes,
                  data.size(), data.data());
        ++*_statColReads;
    }
    return true;
}

void
DramController::commitColumn()
{
    auto mark = [this](auto &txn) {
        const u32 b = _colPick.beatIdx;
        txn.issued[b / 64] |= u64(1) << (b % 64);
        ++txn.beatsIssued;
        txn.firstUnissued = nextClear(txn.issued, txn.firstUnissued,
                                      txn.beats);
    };
    if (_colPick.isWrite) {
        mark(_writes.slots[_colPick.txnSlot]);
        refreshHead(_writes, _writeHeads, _colPick.txnSlot);
        --_pendingWriteBeats;
    } else {
        mark(_reads.slots[_colPick.txnSlot]);
        refreshHead(_reads, _readHeads, _colPick.txnSlot);
    }
}

bool
DramController::scheduleRowCommands()
{
    // One row command (ACT or PRE) per cycle. For each bank, only the
    // oldest waiting candidate may steer row state, which keeps younger
    // requests from closing a row an older one is about to use. Banks
    // are served in (drain direction first, then age) order of their
    // oldest candidate, ties (one transaction's beats on several banks)
    // by bank index. The candidates are this cycle's as they were
    // before the column command (commitColumn runs after this); the
    // column issue only moved the chosen bank's colReadyAt/preReadyAt,
    // never open/row.
    const Cycle now = sim().cycle();
    while (_recentActsCount != 0 &&
           _recentActs[_recentActsHead] + _cfg.timing.tFAW <= now) {
        _recentActsHead = (_recentActsHead + 1) % _recentActs.size();
        --_recentActsCount;
    }
    // Activation constraints: per-bank tRP done, global tRRD, tFAW.
    const bool can_act =
        now >= _nextActAt && _recentActsCount < _recentActs.size();
    u64 actionable = 0;
    for (std::size_t b = 0; b < _banks.size(); ++b) {
        const BankState &bank = _banks[b];
        if (bank.open ? now >= bank.preReadyAt
                      : can_act && now >= bank.actReadyAt) {
            actionable |= u64(1) << b;
        }
    }
    // Only banks that could take a command matter: walk the heads in
    // order until each of them has been seen (or one takes a command).
    u64 seen = 0;
    for (const bool on_direction : {true, false}) {
        if ((actionable & ~seen) == 0)
            return false;
        const bool is_write = on_direction == _writeDrainMode;
        if (is_write ? rowCommandFrom(_writes, _writeHeads, on_direction,
                                      actionable, seen)
                     : rowCommandFrom(_reads, _readHeads, on_direction,
                                      actionable, seen)) {
            return true;
        }
    }
    return false;
}

template <typename Txn>
bool
DramController::rowCommandFrom(const TxnPool<Txn> &pool,
                               const std::vector<Head> &heads,
                               bool on_direction, u64 actionable, u64 &seen)
{
    const Cycle now = sim().cycle();
    for (std::size_t i = 0; i < heads.size(); ++i) {
        const Head &h = heads[i];
        // Banks whose oldest candidate is in this transaction: its first
        // exposed beat on each bank not seen in an older one.
        const u64 fresh = h.banks(now) & ~seen;
        seen |= fresh;
        for (u64 m = fresh & actionable; m != 0; m &= m - 1) {
            const auto b = static_cast<unsigned>(std::countr_zero(m));
            BankState &bank = _banks[b];
            u64 row = h.rowLo;
            if (h.rowLo != h.rowHi) {
                const Txn &txn = pool.slots[h.slot];
                forEachExposed(txn, [&](u32 beat) {
                    row = txn.beatCoord[beat].row;
                    return txn.beatCoord[beat].bank == b;
                });
            }
            if (bank.open) {
                // Already a row hit: nothing to do. A bank that still
                // has a pending row hit in the drain direction is not
                // precharged out from under it (younger ones in this
                // pass; an off-direction pass has no drain-direction
                // candidate on the bank at all). Off-direction hits
                // cannot issue until the mode flips, so they must not
                // pin rows: that would deadlock against the drain
                // policy.
                if (bank.row == row ||
                    (on_direction && hitFrom(pool, heads, i, b))) {
                    continue;
                }
                bank.open = false;
                bank.actReadyAt =
                    std::max(bank.actReadyAt, now + _cfg.timing.tRP);
                ++*_statRowMisses;
                return true;
            }
            bank.open = true;
            bank.row = row;
            bank.colReadyAt = now + _cfg.timing.tRCD;
            bank.preReadyAt = now + _cfg.timing.tRAS;
            _nextActAt = now + _cfg.timing.tRRD;
            _recentActs[(_recentActsHead + _recentActsCount++) %
                        _recentActs.size()] = now;
            return true;
        }
        if ((actionable & ~seen) == 0)
            return false;
    }
    return false;
}

template <typename Txn>
bool
DramController::hitFrom(const TxnPool<Txn> &pool,
                        const std::vector<Head> &heads, std::size_t from,
                        unsigned bank) const
{
    const Cycle now = sim().cycle();
    const u64 row = _banks[bank].row;
    for (std::size_t i = from; i < heads.size(); ++i) {
        const Head &h = heads[i];
        if ((h.banks(now) >> bank & 1) == 0 || row < h.rowLo ||
            row > h.rowHi) {
            continue;
        }
        if (h.rowLo == h.rowHi)
            return true;
        const Txn &txn = pool.slots[h.slot];
        if (forEachExposed(txn, [&](u32 b) {
                const DramCoord &c = txn.beatCoord[b];
                return c.bank == bank && c.row == row;
            })) {
            return true;
        }
    }
    return false;
}

DramController::ServiceResult
DramController::sendReadData()
{
    const Cycle now = sim().cycle();
    if (_reads.live == 0)
        return ServiceResult::None;
    auto ready = [&](const IdState &ids) {
        if (ids.order.empty())
            return false;
        const ReadTxn &txn = _reads.slots[ids.order.front()];
        return txn.beatsSent < txn.beats &&
               txn.beatReadyAt[txn.beatsSent] != 0 &&
               now >= txn.beatReadyAt[txn.beatsSent];
    };
    if (!_rOut.canPush()) {
        // Anything ready to go? Then the port is the bottleneck.
        for (const IdState &ids : _readIds) {
            if (ready(ids))
                return ServiceResult::Blocked;
        }
        return ServiceResult::None;
    }
    // Round-robin across IDs; within an ID only the head transaction's
    // in-order next beat may be sent (AXI burst + same-ID ordering).
    const std::size_t n = _readIds.size();
    std::size_t start = static_cast<std::size_t>(
        std::lower_bound(_readIds.begin(), _readIds.end(), _rrReadId,
                         [](const IdState &ids, u32 id) {
                             return ids.id < id;
                         }) -
        _readIds.begin());
    if (start == n)
        start = 0;
    for (std::size_t k = 0; k < n; ++k) {
        IdState &ids = _readIds[(start + k) % n];
        if (!ready(ids))
            continue;
        const u32 slot = ids.order.front();
        ReadTxn &txn = _reads.slots[slot];
        ReadBeat beat;
        beat.id = txn.id;
        beat.tag = txn.tag;
        beat.last = txn.beatsSent + 1 == txn.beats;
        beat.data = txn.beatData[txn.beatsSent];
        _timeline.record({now, AxiChannel::R, beat.id, beat.tag, 0, 0,
                          beat.last});
        ++txn.beatsSent;
        _rOut.push(beat);
        _rrReadId = ids.id + 1;
        if (beat.last) {
            _readLatency->sample(static_cast<double>(now - txn.acceptedAt));
            if (TraceSink *ts = sim().trace()) {
                ts->span("axi", "rd",
                         name() + ".rd.id" + std::to_string(txn.id),
                         txn.acceptedAt, now,
                         {{"addr", txn.addr},
                          {"beats", txn.beats},
                          {"id", txn.id}});
            }
            ids.order.erase(ids.order.begin());
            eraseHead(_readHeads, slot);
            _reads.release(slot);
            // A successor already queued behind the head was held back
            // by the same-ID ordering dependence and pays the
            // reorder-slot recycle; a fresh request arriving later
            // starts with a clean slot.
            if (!ids.order.empty()) {
                ids.readyAt = now + _cfg.sameIdRecycleCycles;
                Head next = makeHead(_reads.slots[ids.order.front()],
                                     ids.order.front());
                next.openAt = ids.readyAt;
                addHead(_readHeads, next);
            }
        }
        return ServiceResult::Done;
    }
    return ServiceResult::None;
}

DramController::ServiceResult
DramController::sendWriteResponses()
{
    const Cycle now = sim().cycle();
    auto complete = [&](const IdState &ids) {
        if (ids.order.empty())
            return false;
        const WriteTxn &txn = _writes.slots[ids.order.front()];
        return txn.beatsReceived == txn.beats &&
               txn.beatsIssued == txn.beats;
    };
    if (!_bOut.canPush()) {
        for (const IdState &ids : _writeIds) {
            if (complete(ids))
                return ServiceResult::Blocked;
        }
        return ServiceResult::None;
    }
    for (IdState &ids : _writeIds) {
        if (!complete(ids))
            continue;
        const u32 slot = ids.order.front();
        const WriteTxn &txn = _writes.slots[slot];
        WriteResponse resp;
        resp.id = txn.id;
        resp.tag = txn.tag;
        _timeline.record({now, AxiChannel::B, resp.id, resp.tag, 0, 0,
                          false});
        _bOut.push(resp);
        _writeLatency->sample(static_cast<double>(now - txn.acceptedAt));
        if (TraceSink *ts = sim().trace()) {
            ts->span("axi", "wr",
                     name() + ".wr.id" + std::to_string(txn.id),
                     txn.acceptedAt, now,
                     {{"addr", txn.addr},
                      {"beats", txn.beats},
                      {"id", txn.id}});
        }
        ids.order.erase(ids.order.begin());
        eraseHead(_writeHeads, slot);
        _writes.release(slot);
        if (!ids.order.empty()) {
            ids.readyAt = now + _cfg.sameIdRecycleCycles;
            Head next = makeHead(_writes.slots[ids.order.front()],
                                 ids.order.front());
            next.openAt = ids.readyAt;
            addHead(_writeHeads, next);
        }
        return ServiceResult::Done;
    }
    return ServiceResult::None;
}

DramController::IdState &
DramController::idState(std::vector<IdState> &ids, u32 id)
{
    auto it = std::lower_bound(
        ids.begin(), ids.end(), id,
        [](const IdState &s, u32 key) { return s.id < key; });
    if (it == ids.end() || it->id != id) {
        it = ids.insert(it, IdState{});
        it->id = id;
    }
    return *it;
}

void
DramController::countIdWait(bool is_write, IdState &ids, bool queue_wait)
{
    if (ids.queueWait == nullptr) {
        StatGroup &g = sim()
                           .stats()
                           .group(name())
                           .group("ids")
                           .group((is_write ? "wr" : "rd") +
                                  std::to_string(ids.id));
        ids.queueWait = &g.scalar("queueWait");
        ids.bankWait = &g.scalar("bankWait");
    }
    ++*(queue_wait ? ids.queueWait : ids.bankWait);
}

void
DramController::trackIdWaits(bool col_issued)
{
    // For every AXI ID with a pending head transaction that did not get
    // a column command this cycle, attribute the wait: same-ID
    // reorder-slot recycle (queueWait) vs. bank timing / arbitration
    // (bankWait). This is the per-ID split behind the fig5 latency gap.
    const Cycle now = sim().cycle();
    for (IdState &ids : _readIds) {
        if (ids.order.empty())
            continue;
        if (col_issued && !_lastColWasWrite && _lastColId == ids.id)
            continue;
        if (now < ids.readyAt) {
            countIdWait(false, ids, true);
            continue;
        }
        const ReadTxn &txn = _reads.slots[ids.order.front()];
        if (txn.firstUnissued < txn.beats)
            countIdWait(false, ids, false);
    }
    for (IdState &ids : _writeIds) {
        if (ids.order.empty())
            continue;
        if (col_issued && _lastColWasWrite && _lastColId == ids.id)
            continue;
        if (now < ids.readyAt) {
            countIdWait(true, ids, true);
            continue;
        }
        const WriteTxn &txn = _writes.slots[ids.order.front()];
        if (txn.firstUnissued < txn.beatsReceived)
            countIdWait(true, ids, false);
    }
}

void
DramController::accountCycle(bool did, ServiceResult rd, ServiceResult wr,
                             bool in_refresh)
{
    if (did) {
        _stall.account(StallClass::Busy);
        return;
    }
    if (rd == ServiceResult::Blocked || wr == ServiceResult::Blocked) {
        _stall.account(StallClass::StallDownstream);
        return;
    }
    if (_reads.live == 0 && _writes.live == 0 && !_arIn.canPop() &&
        !_wIn.canPop()) {
        _stall.account(StallClass::Idle);
        // Fully drained: no transaction state, no per-ID wait tracking,
        // nothing poppable. The only autonomous future event is the
        // refresh window, so arm it and quiesce; new AR/W pushes wake
        // us earlier. The controller must NOT sleep in any other state:
        // trackIdWaits and bank timing mutate digest-visible stats
        // every cycle transactions are in flight.
        requestWakeAt(_nextRefreshAt);
        sleepWith(_stall, StallClass::Idle);
        return;
    }
    if (in_refresh) {
        _stall.account(StallClass::StallMem);
        return;
    }
    if (_reads.live == 0 && _writes.live != 0 && _hasFilling) {
        // Only writes in flight and a burst is mid-fill: waiting on the
        // producer to deliver W beats.
        _stall.account(StallClass::StallUpstream);
        return;
    }
    // Bank timing, recycle gates, turnaround — the device itself.
    _stall.account(StallClass::StallMem);
}

void
DramController::dumpInFlight(std::ostream &os) const
{
    const Cycle now = sim().cycle();
    os << name() << " in-flight: " << _reads.live << " reads, "
       << _writes.live << " writes\n";
    // Tag order for stable diagnostics (slots are reused in any order).
    auto by_tag = [](const auto &pool, const std::vector<IdState> &ids) {
        std::vector<const std::decay_t<decltype(pool.slots[0])> *> txns;
        for (const IdState &s : ids) {
            for (u32 slot : s.order)
                txns.push_back(&pool.slots[slot]);
        }
        std::sort(txns.begin(), txns.end(),
                  [](const auto *a, const auto *b) { return a->tag < b->tag; });
        return txns;
    };
    for (const ReadTxn *txn : by_tag(_reads, _readIds)) {
        os << "  rd tag=" << txn->tag << " id=" << txn->id << " addr=0x"
           << std::hex << txn->addr << std::dec << " beats=" << txn->beats
           << " issued=" << txn->beatsIssued << " sent=" << txn->beatsSent
           << " age=" << (now - txn->acceptedAt) << "\n";
    }
    for (const WriteTxn *txn : by_tag(_writes, _writeIds)) {
        os << "  wr tag=" << txn->tag << " id=" << txn->id << " addr=0x"
           << std::hex << txn->addr << std::dec << " beats=" << txn->beats
           << " received=" << txn->beatsReceived
           << " issued=" << txn->beatsIssued
           << " age=" << (now - txn->acceptedAt) << "\n";
    }
}

} // namespace beethoven
