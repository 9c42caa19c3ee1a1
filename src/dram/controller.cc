#include "dram/controller.h"

#include <algorithm>
#include <ostream>
#include <type_traits>

#include "base/log.h"
#include "trace/trace.h"

namespace beethoven
{

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
        txn.seq = _seqCounter++;
        txn.tag = req.tag;
        txn.id = req.id;
        txn.acceptedAt = now;
        txn.addr = req.addr;
        txn.beats = req.beats;
        txn.beatsIssued = 0;
        txn.firstUnissued = 0;
        txn.beatsSent = 0;
        txn.issued.assign(req.beats, false);
        txn.beatReadyAt.assign(req.beats, 0);
        txn.beatData.resize(req.beats);
        txn.beatCoord.resize(req.beats);
        for (u32 b = 0; b < req.beats; ++b) {
            txn.beatCoord[b] = mapAddress(
                _cfg.geometry,
                req.addr + static_cast<Addr>(b) * _cfg.axi.dataBytes);
        }
        idState(_readIds, req.id).order.push_back(slot);
        _timeline.record({now, AxiChannel::AR, req.id, req.tag, req.addr,
                          req.beats, false});
        did = true;
    }

    if (_wIn.canPop()) {
        const WriteFlit &flit = _wIn.front();
        if (flit.hasHeader) {
            if (_writes.live >= _cfg.maxOutstandingWrites)
                return did; // stall the W channel until a slot frees
            const u32 slot = _writes.acquire();
            WriteTxn &txn = _writes.slots[slot];
            txn.seq = _seqCounter++;
            txn.tag = flit.header.tag;
            txn.id = flit.header.id;
            txn.acceptedAt = now;
            txn.addr = flit.header.addr;
            txn.beats = flit.header.beats;
            txn.beatsIssued = 0;
            txn.firstUnissued = 0;
            txn.issued.assign(txn.beats, false);
            txn.beatCoord.resize(txn.beats);
            for (u32 b = 0; b < txn.beats; ++b) {
                txn.beatCoord[b] = mapAddress(
                    _cfg.geometry,
                    txn.addr + static_cast<Addr>(b) * _cfg.axi.dataBytes);
            }
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
            idState(_writeIds, txn.id).order.push_back(slot);
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
DramController::updateDrainMode()
{
    // Write-drain mode switching (watermark policy): service reads
    // until enough write beats have buffered up (or no reads remain),
    // then drain writes as a batch. This amortizes bus turnarounds the
    // way real DDR controllers do. Candidate existence per direction
    // is O(IDs): the head transaction's firstUnissued beat is exposed
    // iff the ID's reorder slot is open (and the window is nonzero).
    const Cycle now = sim().cycle();
    bool reads_exist = false;
    bool writes_exist = false;
    if (_cfg.schedulerWindow != 0) {
        for (const IdState &ids : _readIds) {
            if (ids.order.empty() || now < ids.readyAt)
                continue;
            const ReadTxn &txn = _reads.slots[ids.order.front()];
            if (txn.firstUnissued < txn.beats) {
                reads_exist = true;
                break;
            }
        }
        for (const IdState &ids : _writeIds) {
            if (ids.order.empty() || now < ids.readyAt)
                continue;
            const WriteTxn &txn = _writes.slots[ids.order.front()];
            if (txn.firstUnissued < txn.beatsReceived) {
                writes_exist = true;
                break;
            }
        }
    }
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

void
DramController::scanCandidates()
{
    // AXI same-ID ordering: only the oldest transaction on each ID may
    // occupy the scheduler. This is the serialization that penalizes
    // single-ID streams (Fig. 5's HLS kernel). Within that head
    // transaction, up to schedulerWindow unissued beats are visible at
    // once (the command-queue lookahead of a real controller), which
    // lets the scheduler batch row activations and bus directions.
    //
    // Everything the column and row schedulers need is computed in
    // this one pass. Iteration order (reads by ascending ID, beats in
    // order, then writes) matches the old materialized candidate list,
    // so all first-wins tie-breaks are preserved bit-for-bit.
    const Cycle now = sim().cycle();
    _hasBestRead = false;
    _hasBestWrite = false;
    _bankValid.assign(_banks.size(), 0);
    _bankHasHit.assign(_banks.size(), 0);
    if (_oldestPerBank.size() != _banks.size())
        _oldestPerBank.resize(_banks.size());

    auto consider = [&](const Candidate &c) {
        // Oldest candidate per bank (drain direction preferred, then
        // age) — steers row commands.
        Candidate &slot = _oldestPerBank[c.coord.bank];
        if (_bankValid[c.coord.bank] == 0) {
            slot = c;
            _bankValid[c.coord.bank] = 1;
        } else {
            const bool c_on = c.isWrite == _writeDrainMode;
            const bool cur_on = slot.isWrite == _writeDrainMode;
            if ((c_on && !cur_on) || (c_on == cur_on && c.seq < slot.seq))
                slot = c;
        }
        const BankState &bank = _banks[c.coord.bank];
        const bool row_hit = bank.open && bank.row == c.coord.row;
        // Banks with a pending row hit in the drain direction must not
        // be precharged out from under it.
        if (row_hit && c.isWrite == _writeDrainMode)
            _bankHasHit[c.coord.bank] = 1;
        // Ready row hits feed the column pick (FR-FCFS, oldest first).
        if (!row_hit || now < bank.colReadyAt)
            return;
        // Bus turnaround: switching direction costs tSwitch idle
        // cycles.
        if (_anyColIssued && c.isWrite != _lastColWasWrite &&
            now < _lastColAt + _cfg.timing.tSwitch) {
            return;
        }
        if (c.isWrite) {
            if (!_hasBestWrite || c.seq < _bestWrite.seq) {
                _bestWrite = c;
                _hasBestWrite = true;
            }
        } else {
            if (!_hasBestRead || c.seq < _bestRead.seq) {
                _bestRead = c;
                _hasBestRead = true;
            }
        }
    };

    for (const IdState &ids : _readIds) {
        // Skip idle IDs and IDs whose reorder slot is still recycling.
        if (ids.order.empty() || now < ids.readyAt)
            continue;
        const ReadTxn &txn = _reads.slots[ids.order.front()];
        unsigned exposed = 0;
        Candidate c;
        c.isWrite = false;
        c.txnSlot = ids.order.front();
        c.seq = txn.seq;
        for (u32 b = txn.firstUnissued;
             b < txn.beats && exposed < _cfg.schedulerWindow; ++b) {
            if (txn.issued[b])
                continue;
            c.beatIdx = b;
            c.beatAddr =
                txn.addr + static_cast<Addr>(b) * _cfg.axi.dataBytes;
            c.coord = txn.beatCoord[b];
            consider(c);
            ++exposed;
        }
    }
    for (const IdState &ids : _writeIds) {
        if (ids.order.empty() || now < ids.readyAt)
            continue;
        const WriteTxn &txn = _writes.slots[ids.order.front()];
        unsigned exposed = 0;
        Candidate c;
        c.isWrite = true;
        c.txnSlot = ids.order.front();
        c.seq = txn.seq;
        for (u32 b = txn.firstUnissued;
             b < txn.beatsReceived && exposed < _cfg.schedulerWindow;
             ++b) {
            if (txn.issued[b])
                continue;
            c.beatIdx = b;
            c.beatAddr =
                txn.addr + static_cast<Addr>(b) * _cfg.axi.dataBytes;
            c.coord = txn.beatCoord[b];
            consider(c);
            ++exposed;
        }
    }
}

bool
DramController::scheduleColumn()
{
    const Cycle now = sim().cycle();
    if (_anyColIssued && now <= _lastColAt) {
        // Data bus already used this cycle; the row scheduler still
        // needs this cycle's candidate view (drain mode unchanged).
        scanCandidates();
        return false;
    }

    updateDrainMode();
    scanCandidates();

    // Serve the drain direction; if it has nothing ready this cycle,
    // fall back to the other direction rather than idling the data
    // bus (work-conserving, as real controllers are).
    const Candidate *best = nullptr;
    if (_writeDrainMode)
        best = _hasBestWrite ? &_bestWrite
                             : (_hasBestRead ? &_bestRead : nullptr);
    else
        best = _hasBestRead ? &_bestRead
                            : (_hasBestWrite ? &_bestWrite : nullptr);
    if (best == nullptr)
        return false;
    const Candidate chosen = *best;

    BankState &bank = _banks[chosen.coord.bank];
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
        _mem.writeMasked(chosen.beatAddr, beat.data, beat.strb);
        txn.issued[chosen.beatIdx] = true;
        ++txn.beatsIssued;
        --_pendingWriteBeats;
        while (txn.firstUnissued < txn.beats &&
               txn.issued[txn.firstUnissued]) {
            ++txn.firstUnissued;
        }
        ++*_statColWrites;
    } else {
        ReadTxn &txn = _reads.slots[chosen.txnSlot];
        _lastColId = txn.id;
        txn.beatReadyAt[chosen.beatIdx] = now + _cfg.timing.tCAS;
        Payload &data = txn.beatData[chosen.beatIdx];
        data.resize(_cfg.axi.dataBytes);
        _mem.read(chosen.beatAddr, data.size(), data.data());
        txn.issued[chosen.beatIdx] = true;
        ++txn.beatsIssued;
        while (txn.firstUnissued < txn.beats &&
               txn.issued[txn.firstUnissued]) {
            ++txn.firstUnissued;
        }
        ++*_statColReads;
    }
    return true;
}

bool
DramController::scheduleRowCommands()
{
    const Cycle now = sim().cycle();
    // scanCandidates() (run by scheduleColumn this cycle) left the
    // per-bank products: for each bank, only the oldest waiting
    // candidate may steer row state — this prevents younger requests
    // from closing a row an older request is about to use. Banks that
    // still have a pending row-hit candidate *in the active drain
    // direction* (_bankHasHit) should not be precharged out from under
    // it; off-direction hits cannot issue until the mode flips, so
    // they must not be allowed to pin rows — that would deadlock
    // against the drain policy. (The column issue earlier this cycle
    // only touches colReadyAt/preReadyAt, never open/row, so these
    // flags are unaffected by it.)
    //
    // One row command (ACT or PRE) per cycle: prepare banks for the
    // current drain direction first, oldest request first.
    std::vector<const Candidate *> &ordered = _rowOrdered;
    ordered.clear();
    for (std::size_t b = 0; b < _banks.size(); ++b) {
        if (_bankValid[b] != 0)
            ordered.push_back(&_oldestPerBank[b]);
    }
    const bool drain_writes = _writeDrainMode;
    std::sort(ordered.begin(), ordered.end(),
              [drain_writes](const Candidate *a, const Candidate *b) {
                  const bool a_on = a->isWrite == drain_writes;
                  const bool b_on = b->isWrite == drain_writes;
                  if (a_on != b_on)
                      return a_on;
                  return a->seq < b->seq;
              });

    for (const Candidate *c : ordered) {
        BankState &bank = _banks[c->coord.bank];
        if (bank.open && bank.row == c->coord.row)
            continue; // already a row hit; nothing to do
        if (bank.open) {
            if (_bankHasHit[c->coord.bank] != 0)
                continue; // let the open row drain first (see above)
            if (now >= bank.preReadyAt) {
                bank.open = false;
                bank.actReadyAt = std::max(bank.actReadyAt,
                                           now + _cfg.timing.tRP);
                ++*_statRowMisses;
                return true;
            }
            continue;
        }
        // Activation constraints: per-bank tRP done, global tRRD, tFAW.
        if (now < bank.actReadyAt || now < _nextActAt)
            continue;
        while (_recentActsCount != 0 &&
               _recentActs[_recentActsHead] + _cfg.timing.tFAW <= now) {
            _recentActsHead = (_recentActsHead + 1) % _recentActs.size();
            --_recentActsCount;
        }
        if (_recentActsCount >= _recentActs.size())
            continue;
        bank.open = true;
        bank.row = c->coord.row;
        bank.colReadyAt = now + _cfg.timing.tRCD;
        bank.preReadyAt = now + _cfg.timing.tRAS;
        _nextActAt = now + _cfg.timing.tRRD;
        _recentActs[(_recentActsHead + _recentActsCount++) %
                    _recentActs.size()] = now;
        return true;
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
            _reads.release(slot);
            // A successor already queued behind the head was held back
            // by the same-ID ordering dependence and pays the
            // reorder-slot recycle; a fresh request arriving later
            // starts with a clean slot.
            if (!ids.order.empty())
                ids.readyAt = now + _cfg.sameIdRecycleCycles;
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
        _writes.release(slot);
        if (!ids.order.empty())
            ids.readyAt = now + _cfg.sameIdRecycleCycles;
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
