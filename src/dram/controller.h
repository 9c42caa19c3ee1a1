/**
 * @file
 * Cycle-level DRAM memory controller with an AXI4-style front-end.
 *
 * Substitutes for the Xilinx DDR controller + DRAMSim3 stack the paper
 * simulates against (Section II-D). The behaviours the evaluation
 * depends on are modeled directly:
 *
 *  - FR-FCFS column scheduling over banks/bank groups with open-row
 *    state, tRCD/tRP/tRAS/tCAS/tRRD/tFAW constraints;
 *  - a shared bidirectional data bus with a read<->write turnaround
 *    penalty, so long bursts amortize direction switches;
 *  - AXI same-ID ordering: only the *oldest* transaction of each AXI ID
 *    is eligible for scheduling, so single-ID request streams serialize
 *    (the HLS behaviour in Figs. 4/5) while multi-ID streams overlap
 *    (Beethoven's transaction-level parallelism).
 */

#ifndef BEETHOVEN_DRAM_CONTROLLER_H
#define BEETHOVEN_DRAM_CONTROLLER_H

#include <array>
#include <iosfwd>
#include <vector>

#include "axi/axi_types.h"
#include "axi/timeline.h"
#include "dram/functional_memory.h"
#include "dram/timing.h"
#include "sim/module.h"
#include "sim/queue.h"
#include "trace/stall.h"

namespace beethoven
{

class DramController : public Module
{
  public:
    struct Config
    {
        AxiConfig axi;
        DramTiming timing = DramTiming::ddr4_2400();
        DramGeometry geometry;
        unsigned maxOutstandingReads = 64;
        unsigned maxOutstandingWrites = 64;
        std::size_t portDepth = 8; ///< depth of the AXI port queues
        /** Column commands of one transaction visible to the scheduler
         *  at once (the controller's command-queue lookahead). */
        unsigned schedulerWindow = 16;
        /** Write-drain watermark: buffered write beats that trigger a
         *  switch into write-drain mode. Batching writes amortizes the
         *  bus turnaround penalty, as real controllers do. */
        unsigned writeDrainHighWatermark = 48;
        /**
         * Same-ID reorder-slot recycle: cycles after a transaction
         * retires before the *next transaction on the same AXI ID*
         * may be scheduled. Models the response-reorder bookkeeping of
         * real controllers, which cannot pipeline dependent same-ID
         * transactions back to back — the mechanism behind the
         * paper's "latency of memory operations grew tremendously for
         * the HLS memcpy kernel" (Section III-A). Distinct-ID streams
         * (Beethoven's TLP) never pay it.
         */
        unsigned sameIdRecycleCycles = 20;
    };

    DramController(Simulator &sim, std::string name, const Config &cfg,
                   FunctionalMemory &mem);

    /** AXI slave ports (producers push AR/W flits, pop R/B flits). */
    TimedQueue<ReadRequest> &arPort() { return _arIn; }
    TimedQueue<WriteFlit> &wPort() { return _wIn; }
    TimedQueue<ReadBeat> &rPort() { return _rOut; }
    TimedQueue<WriteResponse> &bPort() { return _bOut; }

    AxiTimeline &timeline() { return _timeline; }
    const Config &config() const { return _cfg; }

    /** Total data beats moved (reads + writes), for utilization stats. */
    u64 beatsServed() const { return _beatsServed; }

    /** Cumulative column commands issued (reads + writes). */
    double
    columnOps() const
    {
        return _statColReads->value() + _statColWrites->value();
    }

    /** Cumulative row activates (row misses open a row). */
    double activates() const { return _statRowMisses->value(); }

    /** Cumulative refresh windows entered. */
    double refreshes() const { return _statRefreshes->value(); }

    /** Dump all in-flight transactions (for hang diagnostics). */
    void dumpInFlight(std::ostream &os) const;

    void tick() override;

  private:
    /** Issued-beat flags of one burst, bit b = beat b (AXI4 bursts are
     *  at most 256 beats). */
    using BeatMask = std::array<u64, 4>;

    /** What reads and writes share: identity, age and the per-beat
     *  scheduling state. */
    struct TxnBase
    {
        u64 seq = 0; ///< controller arrival order (FCFS age)
        u64 tag = 0;
        u32 id = 0;
        Cycle acceptedAt = 0; ///< AR/AW accept, for latency spans
        Addr addr = 0;
        u32 beats = 0;
        u32 beatsIssued = 0; ///< count of issued column commands
        u32 firstUnissued = 0;
        BeatMask issued{};
        std::vector<DramCoord> beatCoord; ///< mapped once at accept
    };

    struct ReadTxn : TxnBase
    {
        u32 beatsSent = 0;
        std::vector<Cycle> beatReadyAt; ///< 0 = not yet issued
        std::vector<Payload> beatData;  ///< captured at issue
    };

    struct WriteTxn : TxnBase
    {
        u32 beatsReceived = 0;
        std::vector<WriteBeat> data;
    };

    /**
     * Transaction store. Slots are created up to the peak in-flight
     * count and then reused (their per-beat vectors keep their
     * capacity), so steady-state traffic never allocates. Slot indices
     * are internal handles: every ordering decision uses seq and ID.
     */
    template <typename Txn>
    struct TxnPool
    {
        std::vector<Txn> slots;
        std::vector<u32> freeSlots;
        std::size_t live = 0;

        u32
        acquire()
        {
            ++live;
            if (freeSlots.empty()) {
                slots.emplace_back();
                freeSlots.reserve(slots.size()); // release() never grows
                return static_cast<u32>(slots.size() - 1);
            }
            const u32 slot = freeSlots.back();
            freeSlots.pop_back();
            return slot;
        }

        void
        release(u32 slot)
        {
            --live;
            freeSlots.push_back(slot);
        }
    };

    /**
     * Per-AXI-ID state of one direction, kept sorted by ID. An entry is
     * created the first time its ID is seen and then kept (an empty
     * order means nothing in flight on that ID).
     */
    struct IdState
    {
        u32 id = 0;
        std::vector<u32> order; ///< txn slots, oldest first (same-ID order)
        Cycle readyAt = 0;      ///< same-ID reorder-slot recycle gate
        /** Stall split of the ID's head transaction, created together
         *  on its first wait: cycles spent on the same-ID reorder slot
         *  (queueWait) vs. on bank timing / bus arbitration
         *  (bankWait). */
        StatScalar *queueWait = nullptr;
        StatScalar *bankWait = nullptr;
    };

    struct BankState
    {
        bool open = false;
        u64 row = 0;
        Cycle actReadyAt = 0;
        Cycle colReadyAt = 0;
        Cycle preReadyAt = 0;
    };

    /**
     * A head-of-ID transaction with what the schedulers ask of it first:
     * the banks of its exposed beats, kept current by refreshHead(), and
     * the row range of the whole burst (rows grow with the address;
     * rowLo == rowHi for nearly every burst). Most questions are
     * answered here, without a beat walk.
     */
    struct Head
    {
        u64 seq = 0;
        u64 exposedBanks = 0;
        u64 rowLo = 0;
        u64 rowHi = 0;
        Cycle openAt = 0; ///< same-ID recycle gate
        u32 slot = 0;     ///< TxnPool slot

        /** Banks of the beats it exposes at @p now: none while gated. */
        u64
        banks(Cycle now) const
        {
            return now < openAt ? 0 : exposedBanks;
        }
    };

    /** The beat chosen for this cycle's column command. */
    struct ColumnPick
    {
        bool isWrite = false;
        u32 txnSlot = 0; ///< TxnPool slot of the transaction
        u32 beatIdx = 0;
    };

    /** Outcome of an output-side service attempt. */
    enum class ServiceResult
    {
        None,   ///< nothing to send
        Done,   ///< sent a beat / response
        Blocked ///< had something to send but the port was full
    };

    bool acceptRequests();
    /** Reset @p txn's scheduling state and map its beats. */
    void startTxn(TxnBase &txn, u32 id, u64 tag, Addr addr, u32 beats);
    bool scheduleColumn();
    /** Mark the beat scheduleColumn() issued. Deferred until after
     *  scheduleRowCommands(), which sees this cycle's candidates as they
     *  were before the column command. */
    void commitColumn();
    bool scheduleRowCommands();
    ServiceResult sendReadData();
    ServiceResult sendWriteResponses();

    /** Recompute _writeDrainMode from candidate existence per side. */
    void updateDrainMode();

    /** Beats of @p txn the scheduler may see: all of a read, the
     *  received prefix of a write. */
    static u32 exposable(const ReadTxn &txn) { return txn.beats; }
    static u32 exposable(const WriteTxn &txn) { return txn.beatsReceived; }

    /** Call @p fn(beat) on the exposed beats of @p txn in beat order
     *  (the first schedulerWindow unissued ones) until it returns true.
     *  @return whether @p fn stopped the walk. */
    template <typename Txn, typename Fn>
    bool forEachExposed(const Txn &txn, Fn &&fn) const;
    /** The head entry of @p txn, held in TxnPool slot @p slot. */
    template <typename Txn>
    Head makeHead(const Txn &txn, u32 slot) const;
    /** Insert @p head into @p heads in seq order. */
    static void addHead(std::vector<Head> &heads, const Head &head);
    /** Rebuild the entry of @p slot in @p heads, if it is a head, after
     *  its exposure changed (a beat issued or, for a write, received). */
    template <typename Txn>
    void refreshHead(const TxnPool<Txn> &pool, std::vector<Head> &heads,
                     u32 slot) const;

    /** Oldest (seq, beat) exposed row hit on a bank in @p ready_banks;
     *  fills @p pick's slot and beat. */
    template <typename Txn>
    bool oldestReadyHit(const TxnPool<Txn> &pool,
                        const std::vector<Head> &heads, u64 ready_banks,
                        ColumnPick &pick) const;
    /** Walk @p heads for banks not yet in @p seen and give the first
     *  of them that can take one its row command. */
    template <typename Txn>
    bool rowCommandFrom(const TxnPool<Txn> &pool,
                        const std::vector<Head> &heads, bool on_direction,
                        u64 actionable, u64 &seen);
    /** Whether an exposed beat of heads[@p from...] hits @p bank's open
     *  row. */
    template <typename Txn>
    bool hitFrom(const TxnPool<Txn> &pool, const std::vector<Head> &heads,
                 std::size_t from, unsigned bank) const;

    /** Classify the cycle and update the per-AXI-ID wait counters. */
    void accountCycle(bool did, ServiceResult rd, ServiceResult wr,
                      bool in_refresh);
    void trackIdWaits(bool col_issued);
    /** Count one wait cycle of @p ids on its queue or bank scalar. */
    void countIdWait(bool is_write, IdState &ids, bool queue_wait);
    /** The entry for @p id, created on first use. */
    static IdState &idState(std::vector<IdState> &ids, u32 id);

    Config _cfg;
    FunctionalMemory &_mem;

    TimedQueue<ReadRequest> _arIn;
    TimedQueue<WriteFlit> _wIn;
    TimedQueue<ReadBeat> _rOut;
    TimedQueue<WriteResponse> _bOut;

    /** In-flight transactions; per-ID order lives in _readIds and
     *  _writeIds, and dumpInFlight sorts by tag for display. */
    TxnPool<ReadTxn> _reads;
    TxnPool<WriteTxn> _writes;
    std::vector<IdState> _readIds; ///< sorted by ID
    std::vector<IdState> _writeIds;
    /** Head-of-ID transactions, oldest first: the only transactions
     *  the schedulers look at. */
    std::vector<Head> _readHeads;
    std::vector<Head> _writeHeads;
    u32 _fillingWrite = 0;  ///< slot of write currently receiving W beats
    bool _hasFilling = false;
    /** Buffered-but-unissued write beats across all transactions,
     *  maintained incrementally (== sum of beatsReceived-beatsIssued)
     *  so the per-cycle drain-watermark check is O(1). */
    u64 _pendingWriteBeats = 0;

    std::vector<BankState> _banks;
    ColumnPick _colPick;
    /** Activates inside the tFAW window, oldest first (a ring: tFAW
     *  allows at most four). */
    std::array<Cycle, 4> _recentActs{};
    unsigned _recentActsHead = 0;
    unsigned _recentActsCount = 0;
    Cycle _nextActAt = 0;          ///< for tRRD
    Cycle _lastColAt = 0;
    bool _lastColWasWrite = false;
    bool _anyColIssued = false;
    u32 _lastColId = 0; ///< AXI ID served by the last column command

    u64 _seqCounter = 0;
    u64 _beatsServed = 0;
    u32 _rrReadId = 0;
    bool _writeDrainMode = false;
    Cycle _nextRefreshAt = 0;
    Cycle _refreshUntil = 0;

    AxiTimeline _timeline;

    StatScalar *_statRowHits;
    StatScalar *_statRowMisses;
    StatScalar *_statColReads;
    StatScalar *_statColWrites;
    StatScalar *_statTurnarounds;
    StatScalar *_statRefreshes;
    StatHistogram *_readLatency;  ///< AR accept -> last R beat
    StatHistogram *_writeLatency; ///< AW accept -> B response

    StallAccount _stall;
};

} // namespace beethoven

#endif // BEETHOVEN_DRAM_CONTROLLER_H
