/**
 * @file
 * Writer — Beethoven's streaming write primitive (Section II-B).
 *
 * Accepts StreamCommands and port-width data words from the core,
 * packs the words into bus-width beats, and emits AXI write bursts
 * (rotating across AXI IDs when TLP is enabled, so the controller can
 * retire them out of order). A completion token is delivered on the
 * done port once every burst of a command has been acknowledged.
 */

#ifndef BEETHOVEN_MEM_WRITER_H
#define BEETHOVEN_MEM_WRITER_H

#include <string>
#include <utility>
#include <vector>

#include "axi/axi_types.h"
#include "mem/stream_types.h"
#include "sim/module.h"
#include "sim/queue.h"
#include "trace/stall.h"

namespace beethoven
{

/** User-visible Writer parameters (the WriteChannelConfig knobs). */
struct WriterParams
{
    unsigned dataBytes = 4;   ///< core-facing port width
    unsigned burstBeats = 64; ///< AXI beats per transaction
    unsigned maxInflight = 4; ///< concurrent outstanding bursts
    bool useTlp = true;
    std::size_t cmdQueueDepth = 2;
    std::size_t dataQueueDepth = 8;
    std::size_t doneQueueDepth = 2;
};

class Writer : public Module
{
  public:
    Writer(Simulator &sim, std::string name, const WriterParams &params,
           const AxiConfig &bus, u32 id_base,
           TimedQueue<WriteFlit> *w_out,
           TimedQueue<WriteResponse> *b_in);

    /** Core-side ports. */
    TimedQueue<StreamCommand> &cmdPort() { return _cmdQ; }
    TimedQueue<StreamWord> &dataPort() { return _dataQ; }
    TimedQueue<StreamDone> &donePort() { return _doneQ; }

    bool idle() const;

    const WriterParams &params() const { return _params; }
    u32 numIds() const { return _params.useTlp ? _params.maxInflight : 1; }

    /** Cumulative stream bytes accepted from the core. */
    double bytesWritten() const { return _statBytesWritten->value(); }

    void tick() override;

  private:
    // Each sub-step reports whether it did work (for stall accounting).
    bool startNextCommand();
    bool acceptWords();
    bool emitFlits();
    bool receiveResponses();

    WriterParams _params;
    AxiConfig _bus;
    u32 _idBase;

    TimedQueue<WriteFlit> *_wOut;
    TimedQueue<WriteResponse> *_bIn;
    TimedQueue<StreamCommand> _cmdQ;
    TimedQueue<StreamWord> _dataQ;
    TimedQueue<StreamDone> _doneQ;

    bool _active = false;
    Addr _cursor = 0;       ///< next stream byte to cover with a burst
    u64 _bytesLeft = 0;     ///< stream bytes not yet packed into bursts
    u64 _bytesAcked = 0;    ///< burst bytes acknowledged (B received)
    u64 _cmdLen = 0;
    u64 _stagedTotal = 0;   ///< bytes of this command accepted so far
    u64 _txnSeq = 0;
    Cycle _streamStart = 0; ///< cycle the active command began

    std::vector<u8> _stage; ///< bytes received from the core, in order

    /** A burst being streamed onto the W channel. Its bytes stay at
     *  the front of _stage until the last beat leaves; each beat is
     *  built from them as it is sent. */
    struct OpenBurst
    {
        bool valid = false;
        WriteRequest header;
        u64 offset = 0;   ///< first stream byte within the first beat
        u64 txnBytes = 0; ///< stream bytes the burst carries
        u32 nextBeat = 0;
        bool headerSent = false;
    };
    OpenBurst _open;

    /** Outstanding burst sizes keyed by tag (for byte accounting);
     *  at most maxInflight, reserved up front. */
    std::vector<std::pair<u64, u64>> _outstanding; ///< (tag, bytes)

    StatScalar *_statBytesWritten;
    StatScalar *_statTxns;
    StatHistogram *_streamCycles; ///< per-command start -> done token
    StallAccount _stall;
};

} // namespace beethoven

#endif // BEETHOVEN_MEM_WRITER_H
