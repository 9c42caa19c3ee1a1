/**
 * @file
 * A3 approximate attention accelerator core (Section III-C, Fig. 7).
 *
 * "The A3 design comprises three coarse-grained stages: vector dot
 * product, exponentiation/softmax, and a final output computation."
 * The key and value matrices are stationary in init-loaded
 * Scratchpads; queries stream in through a Reader and attention
 * outputs stream back through a Writer.
 *
 * Stage structure (BERT parameterization: 64-dim embeddings, 320
 * keys/values, 1-byte fixed-point operands with wider intermediates):
 *
 *   S1  score[k] = dot(query, key[k])      — 64 int8 MAC lanes,
 *       one key row per cycle; tracks the extremum for the first
 *       *global reduction* (softmax normalization), so scores stage
 *       in a FIFO until the reduction completes;
 *   S2  w[k] = expLUT(max - score[k])      — one exponent per cycle;
 *       accumulates sum(w), the second global reduction, staging the
 *       weights in a second FIFO;
 *   S3  out[d] = (sum_k w[k]*value[k][d]) / sum(w) — one value row
 *       per cycle, 64 parallel multiply-accumulates, then a
 *       reciprocal-multiply normalization and int8 quantization.
 *
 * The three stages run concurrently on different queries (S1 uses the
 * key scratchpad, S3 the value scratchpad), so steady-state throughput
 * is one query per ~n_keys cycles — the multi-core scaling the
 * original A3 authors proposed but never integrated, which Beethoven
 * makes a configuration change.
 */

#ifndef BEETHOVEN_ACCEL_A3_A3_CORE_H
#define BEETHOVEN_ACCEL_A3_A3_CORE_H

#include <array>
#include <deque>
#include <vector>

#include "core/accelerator_core.h"
#include "core/soc.h"

namespace beethoven::a3
{

/** BERT-shaped parameterization used throughout the case study. */
struct A3Params
{
    static constexpr unsigned dim = 64;      ///< embedding dimension
    static constexpr unsigned maxKeys = 320; ///< sentences (keys/values)
    static constexpr unsigned expShift = 2;  ///< LUT index granularity
    static constexpr unsigned lutEntries = 256;
};

/** The fixed-point exp lookup table shared by core and golden model. */
const std::array<u16, A3Params::lutEntries> &expTable();

class A3Core : public AcceleratorCore
{
  public:
    explicit A3Core(const CoreContext &ctx);

    void tick() override;

    /** Command 0: load the stationary key/value matrices. */
    enum LoadArg { argKeys = 0, argValues = 1, argNKeys = 2 };
    /** Command 1: stream n queries and write attention outputs. */
    enum AttendArg { argQuery = 0, argOut = 1, argNQueries = 2 };

    static AcceleratorSystemConfig systemConfig(unsigned n_cores,
                                                unsigned addr_bits = 34);

    Cycle lastKernelCycles() const { return _lastEnd - _lastStart; }

    /** Per-stage busy-cycle counters (for the Fig. 7 bench). */
    Cycle stage1Busy() const { return _s1Busy; }
    Cycle stage2Busy() const { return _s2Busy; }
    Cycle stage3Busy() const { return _s3Busy; }

  private:
    struct ScoredQuery
    {
        std::array<i32, A3Params::maxKeys> scores;
        i32 maxScore = 0;
    };
    struct WeightedQuery
    {
        std::array<u16, A3Params::maxKeys> weights;
        u32 weightSum = 0;
    };

    /** Whether the command at the head of the queue can start now
     *  (true when none is waiting). */
    bool headCanLaunch() const;
    void tickStage1();
    void tickStage2();
    void tickStage3();

    Scratchpad &_keys;
    Scratchpad &_values;
    Reader &_queryReader;
    Writer &_outWriter;

    // Configuration state.
    unsigned _nKeys = 0;
    bool _matricesLoaded = false;
    bool _loadPending = false;
    bool _respLoadPending = false;
    unsigned _keysLoaded = 0;
    unsigned _valuesLoaded = 0;
    DecodedCommand _loadCmd;

    // Attend-command state.
    bool _attending = false;
    DecodedCommand _attendCmd;
    unsigned _nQueries = 0;
    unsigned _queriesStarted = 0; ///< entered stage 1
    unsigned _queriesDone = 0;    ///< written by stage 3
    Cycle _lastStart = 0;
    Cycle _lastEnd = 0;
    bool _respPending = false;

    // Stage 1 state.
    bool _s1Active = false;
    std::array<i8, A3Params::dim> _s1Query{};
    ScoredQuery _s1Work;
    unsigned _s1Req = 0;
    unsigned _s1Resp = 0;
    std::deque<ScoredQuery> _scoreFifo; ///< S1 -> S2 (depth 2)

    // Stage 2 state.
    bool _s2Active = false;
    ScoredQuery _s2In;
    WeightedQuery _s2Work;
    unsigned _s2Idx = 0;
    std::deque<WeightedQuery> _weightFifo; ///< S2 -> S3 (depth 2)

    // Stage 3 state.
    bool _s3Active = false;
    WeightedQuery _s3In;
    std::array<i64, A3Params::dim> _s3Acc{};
    unsigned _s3Req = 0;
    unsigned _s3Resp = 0;
    unsigned _s3DivideCountdown = 0;

    Cycle _s1Busy = 0;
    Cycle _s2Busy = 0;
    Cycle _s3Busy = 0;
};

} // namespace beethoven::a3

#endif // BEETHOVEN_ACCEL_A3_A3_CORE_H
