#include "accel/machsuite/nw.h"

#include <algorithm>

#include "baselines/machsuite_golden.h"

namespace beethoven::machsuite
{

NwCore::NwCore(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _seqs(getScratchpad("seqs")),
      _traceback(getScratchpad("tb")),
      _outWriter(getWriterModule("out"))
{}

AcceleratorSystemConfig
NwCore::systemConfig(unsigned n_cores, unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "NwSystem";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<NwCore>(ctx);
    };
    ScratchpadConfig seqs;
    seqs.name = "seqs";
    seqs.dataWidthBits = 8;
    seqs.nDatas = 2 * maxN;
    seqs.supportsInit = true;
    sys.scratchpads.push_back(seqs);
    ScratchpadConfig tb;
    tb.name = "tb";
    tb.dataWidthBits = 2 * maxN; // one packed direction row
    tb.nDatas = maxN;
    tb.supportsInit = false;
    sys.scratchpads.push_back(tb);
    sys.writeChannels.push_back({"out", /*dataBytes=*/4});
    sys.commands.push_back(CommandSpec(
        "nw",
        {CommandField::address("seqa_addr", addr_bits),
         CommandField::address("seqb_addr", addr_bits),
         CommandField::address("out_addr", addr_bits),
         CommandField::uint("n", 16)},
        /*resp_bits=*/0));
    // The DP row register file plus a one-cycle max tree.
    sys.kernelResources.lut = 6500;
    sys.kernelResources.ff = 9500;
    sys.kernelResources.clb = 1100;
    return sys;
}

void
NwCore::tick()
{
    switch (_state) {
      case State::Idle: {
        auto cmd = acceptCommand(_seqs.initPort().canPush() &&
                                     _outWriter.cmdPort().canPush(),
                                 StallClass::Idle);
        if (!cmd)
            return;
        _cmd = *cmd;
        _lastStart = sim().cycle();
        _n = static_cast<unsigned>(cmd->args[argN]);
        beethoven_assert(_n >= 1 && _n <= maxN, "nw: n=%u out of range",
                         _n);
        _seqs.initPort().push({_cmd.args[argSeqA], 0, _n});
        _outWriter.cmdPort().push(
            {_cmd.args[argOut], u64(_n + 1) * sizeof(i32)});
        _state = State::LoadSeqA;
        return;
      }
      case State::LoadSeqA: {
        if (!_seqs.initDonePort().canPop())
            return;
        _seqs.initDonePort().pop();
        if (!_seqs.initPort().canPush())
            return;
        _seqs.initPort().push({_cmd.args[argSeqB], maxN, _n});
        _state = State::LoadSeqB;
        return;
      }
      case State::LoadSeqB: {
        if (!_seqs.initDonePort().canPop())
            return;
        _seqs.initDonePort().pop();
        // First DP row: gap penalties.
        for (unsigned j = 0; j <= _n; ++j)
            _rowBuf[j] = static_cast<i32>(j) * nwGapScore;
        _i = 1;
        _aCharValid = false;
        _state = State::RowStart;
        return;
      }
      case State::RowStart: {
        // Fetch seqA[i-1] through the scratchpad port.
        if (!_aCharValid) {
            if (_seqs.respPort(0).canPop()) {
                _aChar = _seqs.respPort(0).pop().data[0];
                _aCharValid = true;
                _aReqSent = false;
            } else if (!_aReqSent && _seqs.reqPort(0).canPush()) {
                SpadRequest req;
                req.row = _i - 1;
                _seqs.reqPort(0).push(req);
                _aReqSent = true;
            }
            return;
        }
        _diag = _rowBuf[0];
        _rowBuf[0] = static_cast<i32>(_i) * nwGapScore;
        _j = 1;
        _reqJ = 1;
        _state = State::Cell;
        return;
      }
      case State::Cell: {
        // Pipelined II=1 inner loop: request seqB[reqJ-1] while the
        // max tree consumes the previous response.
        if (_reqJ <= _n && _seqs.reqPort(0).canPush()) {
            SpadRequest req;
            req.row = maxN + _reqJ - 1;
            _seqs.reqPort(0).push(req);
            ++_reqJ;
        }
        if (_j <= _n && _seqs.respPort(0).canPop()) {
            const u8 b_char = _seqs.respPort(0).front().data[0];
            const i32 sub =
                _aChar == b_char ? nwMatchScore : nwMismatchScore;
            const i32 diag_score = _diag + sub;
            const i32 up = _rowBuf[_j] + nwGapScore;
            const i32 left = _rowBuf[_j - 1] + nwGapScore;
            const i32 best =
                std::max(diag_score, std::max(up, left));
            _seqs.respPort(0).pop();
            // Traceback direction: 0 = diag, 1 = up, 2 = left.
            u8 dir = 0;
            if (best == up && best != diag_score)
                dir = 1;
            else if (best == left && best != diag_score && best != up)
                dir = 2;
            _tbRow[_j - 1] = dir;
            _diag = _rowBuf[_j];
            _rowBuf[_j] = best;
            ++_j;
        }
        if (_j > _n) {
            // Pack and store this row's directions.
            if (!_traceback.reqPort(0).canPush())
                return;
            SpadRequest w;
            w.row = _i - 1;
            w.write = true;
            w.data.assign((2 * maxN + 7) / 8, 0);
            for (unsigned c = 0; c < _n; ++c)
                w.data[c / 4] |= _tbRow[c] << (2 * (c % 4));
            _traceback.reqPort(0).push(std::move(w));
            if (++_i <= _n) {
                _aCharValid = false;
                _state = State::RowStart;
            } else {
                _outIdx = 0;
                _state = State::WriteOut;
            }
        }
        return;
      }
      case State::WriteOut: {
        if (_outIdx <= _n && _outWriter.dataPort().canPush()) {
            _outWriter.dataPort().push(StreamWord::fromUint(
                static_cast<u32>(_rowBuf[_outIdx]), 4));
            ++_outIdx;
        }
        if (_outIdx > _n)
            _state = State::WaitWriter;
        return;
      }
      case State::WaitWriter: {
        if (_outWriter.donePort().canPop()) {
            _outWriter.donePort().pop();
            _lastEnd = sim().cycle();
            _state = State::Respond;
        }
        return;
      }
      case State::Respond: {
        if (respond(_cmd))
            _state = State::Idle;
        return;
      }
    }
}

} // namespace beethoven::machsuite
