#include "accel/a3/a3_core.h"

#include <cmath>
#include <cstring>

namespace beethoven::a3
{

const std::array<u16, A3Params::lutEntries> &
expTable()
{
    static const auto table = [] {
        std::array<u16, A3Params::lutEntries> t{};
        for (unsigned i = 0; i < A3Params::lutEntries; ++i) {
            const double x =
                double(i << A3Params::expShift) / 32.0;
            t[i] = static_cast<u16>(
                std::lround(65535.0 * std::exp(-x)));
        }
        return t;
    }();
    return table;
}

A3Core::A3Core(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _keys(getScratchpad("keys")),
      _values(getScratchpad("values")),
      _queryReader(getReaderModule("query")),
      _outWriter(getWriterModule("out"))
{}

AcceleratorSystemConfig
A3Core::systemConfig(unsigned n_cores, unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "A3System";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<A3Core>(ctx);
    };
    for (const char *name : {"keys", "values"}) {
        ScratchpadConfig sp;
        sp.name = name;
        sp.dataWidthBits = A3Params::dim * 8;
        sp.nDatas = A3Params::maxKeys;
        sp.supportsInit = true;
        sys.scratchpads.push_back(sp);
    }
    sys.readChannels.push_back({"query", /*dataBytes=*/64});
    sys.writeChannels.push_back({"out", /*dataBytes=*/64});
    sys.commands.push_back(CommandSpec(
        "load_matrices",
        {CommandField::address("keys_addr", addr_bits),
         CommandField::address("values_addr", addr_bits),
         CommandField::uint("n_keys", 16)},
        /*resp_bits=*/0));
    sys.commands.push_back(CommandSpec(
        "attend",
        {CommandField::address("query_addr", addr_bits),
         CommandField::address("out_addr", addr_bits),
         CommandField::uint("n_queries", 24)},
        /*resp_bits=*/0));
    // Table II, "Kernel" row: the 64-lane dot-product tree, exponent
    // unit, 64 weighted accumulators and the two staging FIFOs.
    sys.kernelResources.lut = 16900;
    sys.kernelResources.ff = 8200;
    sys.kernelResources.clb = 3000;
    sys.kernelResources.bram = 1; // score/weight FIFOs
    return sys;
}

bool
A3Core::headCanLaunch() const
{
    const TimedQueue<RoccCommand> *cmds = context().cmdIn;
    if (cmds == nullptr || !cmds->canPop())
        return true; // nothing waiting
    // A load re-initializes both scratchpads, an attend starts both
    // streams; each waits for the previous one to finish and respond.
    if (cmds->front().commandId() == 0) {
        return !_loadPending && !_respLoadPending &&
               _keys.initPort().canPush() && _values.initPort().canPush();
    }
    return !_attending && !_respPending &&
           _queryReader.cmdPort().canPush() &&
           _outWriter.cmdPort().canPush();
}

void
A3Core::tick()
{
    // Accept commands. A command waits at the head of the queue until
    // it can launch; with nothing in flight the core sleeps until the
    // next command beat.
    const bool idle =
        !_loadPending && !_respLoadPending && !_attending && !_respPending;
    std::optional<DecodedCommand> cmd;
    if (idle)
        cmd = acceptCommand(headCanLaunch(), StallClass::Idle);
    else if (headCanLaunch())
        cmd = pollCommand();
    if (cmd) {
        if (cmd->commandId == 0) {
            _loadCmd = *cmd;
            _nKeys = static_cast<unsigned>(cmd->args[argNKeys]);
            beethoven_assert(_nKeys >= 1 && _nKeys <= A3Params::maxKeys,
                             "a3: n_keys=%u out of range", _nKeys);
            _keys.initPort().push({cmd->args[argKeys], 0, _nKeys});
            _values.initPort().push({cmd->args[argValues], 0, _nKeys});
            _matricesLoaded = false;
            _loadPending = true;
        } else {
            _attendCmd = *cmd;
            _nQueries =
                static_cast<unsigned>(cmd->args[argNQueries]);
            _attending = _nQueries > 0;
            _respPending = _nQueries == 0;
            _queriesStarted = 0;
            _queriesDone = 0;
            _lastStart = sim().cycle();
            if (_attending) {
                _queryReader.cmdPort().push(
                    {_attendCmd.args[argQuery], u64(_nQueries) * 64});
                _outWriter.cmdPort().push(
                    {_attendCmd.args[argOut], u64(_nQueries) * 64});
            }
        }
    }

    // Matrix load completion (both scratchpad inits).
    if (_loadPending) {
        unsigned done = 0;
        if (_keys.initDonePort().canPop()) {
            _keys.initDonePort().pop();
            ++_keysLoaded;
        }
        if (_values.initDonePort().canPop()) {
            _values.initDonePort().pop();
            ++_valuesLoaded;
        }
        done = _keysLoaded + _valuesLoaded;
        if (done == 2) {
            _keysLoaded = 0;
            _valuesLoaded = 0;
            _matricesLoaded = true;
            _loadPending = false;
            if (respond(_loadCmd)) {
                // Acknowledged immediately; if the channel were full
                // the response would be retried below.
            } else {
                _respLoadPending = true;
            }
        }
    }
    if (_respLoadPending && respond(_loadCmd))
        _respLoadPending = false;

    if (_attending && _matricesLoaded) {
        tickStage3();
        tickStage2();
        tickStage1();
    }

    // Batch completion: all outputs accepted by the memory system.
    if (_attending && _queriesDone == _nQueries &&
        _outWriter.donePort().canPop()) {
        _outWriter.donePort().pop();
        _lastEnd = sim().cycle();
        _attending = false;
        _respPending = true;
    }
    if (_respPending && respond(_attendCmd))
        _respPending = false;
}

void
A3Core::tickStage1()
{
    bool busy = false;
    // Start a new query when the previous one has fully drained into
    // the score FIFO.
    if (!_s1Active && _queriesStarted < _nQueries &&
        _scoreFifo.size() < 2 && _queryReader.dataPort().canPop()) {
        StreamWord w = _queryReader.dataPort().pop();
        std::memcpy(_s1Query.data(), w.data.data(), A3Params::dim);
        _s1Work = ScoredQuery{};
        _s1Req = 0;
        _s1Resp = 0;
        _s1Active = true;
        ++_queriesStarted;
        busy = true;
    }
    if (_s1Active) {
        // Pipelined key-row reads: one row per cycle through port 0.
        if (_s1Req < _nKeys && _keys.reqPort(0).canPush()) {
            SpadRequest req;
            req.row = _s1Req++;
            _keys.reqPort(0).push(req);
            busy = true;
        }
        if (_s1Resp < _nKeys && _keys.respPort(0).canPop()) {
            const SpadResponse resp = _keys.respPort(0).pop();
            const i8 *row =
                reinterpret_cast<const i8 *>(resp.data.data());
            i32 acc = 0;
            for (unsigned d = 0; d < A3Params::dim; ++d)
                acc += i32(_s1Query[d]) * i32(row[d]);
            _s1Work.scores[_s1Resp] = acc;
            // First global reduction: the extremum for softmax
            // normalization.
            if (_s1Resp == 0 || acc > _s1Work.maxScore)
                _s1Work.maxScore = acc;
            ++_s1Resp;
            busy = true;
            if (_s1Resp == _nKeys) {
                _scoreFifo.push_back(_s1Work);
                _s1Active = false;
            }
        }
    }
    if (busy)
        ++_s1Busy;
}

void
A3Core::tickStage2()
{
    bool busy = false;
    if (!_s2Active && !_scoreFifo.empty() && _weightFifo.size() < 2) {
        _s2In = _scoreFifo.front();
        _scoreFifo.pop_front();
        _s2Work = WeightedQuery{};
        _s2Idx = 0;
        _s2Active = true;
        busy = true;
    }
    if (_s2Active && _s2Idx < _nKeys) {
        // One exponent per cycle via the lookup table; the running sum
        // is the second global reduction.
        const i32 d = _s2In.maxScore - _s2In.scores[_s2Idx];
        const unsigned idx =
            std::min<u32>(static_cast<u32>(d) >> A3Params::expShift,
                          A3Params::lutEntries - 1);
        const u16 w = expTable()[idx];
        _s2Work.weights[_s2Idx] = w;
        _s2Work.weightSum += w;
        ++_s2Idx;
        busy = true;
        if (_s2Idx == _nKeys) {
            _weightFifo.push_back(_s2Work);
            _s2Active = false;
        }
    }
    if (busy)
        ++_s2Busy;
}

void
A3Core::tickStage3()
{
    bool busy = false;
    if (!_s3Active && !_weightFifo.empty()) {
        _s3In = _weightFifo.front();
        _weightFifo.pop_front();
        _s3Acc.fill(0);
        _s3Req = 0;
        _s3Resp = 0;
        _s3DivideCountdown = 0;
        _s3Active = true;
        busy = true;
    }
    if (_s3Active) {
        if (_s3Req < _nKeys && _values.reqPort(0).canPush()) {
            SpadRequest req;
            req.row = _s3Req++;
            _values.reqPort(0).push(req);
            busy = true;
        }
        if (_s3Resp < _nKeys && _values.respPort(0).canPop()) {
            const SpadResponse resp = _values.respPort(0).pop();
            const i8 *row =
                reinterpret_cast<const i8 *>(resp.data.data());
            const i64 w = _s3In.weights[_s3Resp];
            for (unsigned d = 0; d < A3Params::dim; ++d)
                _s3Acc[d] += w * i64(row[d]);
            ++_s3Resp;
            busy = true;
            if (_s3Resp == _nKeys)
                _s3DivideCountdown = 4; // reciprocal-multiply latency
        }
        if (_s3Resp == _nKeys && _s3DivideCountdown > 0) {
            busy = true;
            if (--_s3DivideCountdown == 0 &&
                _outWriter.dataPort().canPush()) {
                StreamWord out;
                out.data.resize(A3Params::dim);
                const i64 sum = std::max<i64>(_s3In.weightSum, 1);
                for (unsigned d = 0; d < A3Params::dim; ++d) {
                    i64 v = _s3Acc[d] / sum;
                    if (v > 127)
                        v = 127;
                    if (v < -128)
                        v = -128;
                    out.data[d] = static_cast<u8>(static_cast<i8>(v));
                }
                _outWriter.dataPort().push(std::move(out));
                ++_queriesDone;
                _s3Active = false;
            } else if (_s3DivideCountdown == 0) {
                _s3DivideCountdown = 1; // retry the push next cycle
            }
        }
    }
    if (busy)
        ++_s3Busy;
}

} // namespace beethoven::a3
