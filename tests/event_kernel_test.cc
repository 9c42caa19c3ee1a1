/**
 * @file
 * Event-driven kernel unit tests: wake-wheel delivery order (ring and
 * overflow heap, modulo aliasing), the queue wake/re-arm contract under
 * both registration orders, self-scheduled wakes out of full
 * quiescence, the watchdog's interaction with an emptied active set,
 * stall conservation when slept gaps are backfilled with the class the
 * module went quiescent in, and the awake bitmap's tick order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "base/log.h"
#include "sim/queue.h"
#include "sim/simulator.h"
#include "sim/wake_wheel.h"
#include "trace/stall.h"

namespace beethoven
{
namespace
{

/** Inert module: the wheel stores pointers, it never ticks these. */
class Dummy : public Module
{
  public:
    Dummy(Simulator &sim, std::string name)
        : Module(sim, std::move(name))
    {}
    void tick() override {}
};

TEST(WakeWheel, DeliversInCycleOrder)
{
    Simulator sim;
    Dummy a(sim, "a"), b(sim, "b"), c(sim, "c");
    WakeWheel wheel(/*slots=*/4);

    // b twice at 2 (duplicates allowed), a at 3, c far out at 11: the
    // 4-slot ring holds 2 and 3; 11 overflows into the heap. Cycles 3
    // and 11 alias to the same ring slot — the heap entry must not be
    // delivered at 3 nor the ring entry re-delivered at 11.
    wheel.schedule(0, 2, &b);
    wheel.schedule(0, 2, &b);
    wheel.schedule(0, 3, &a);
    wheel.schedule(0, 11, &c);
    EXPECT_EQ(wheel.pending(), 4u);

    std::vector<std::pair<Cycle, Module *>> delivered;
    for (Cycle now = 1; now <= 12; ++now)
        wheel.drain(now, [&](Module *m) { delivered.push_back({now, m}); });

    ASSERT_EQ(delivered.size(), 4u);
    EXPECT_EQ(delivered[0], (std::pair<Cycle, Module *>{2, &b}));
    EXPECT_EQ(delivered[1], (std::pair<Cycle, Module *>{2, &b}));
    EXPECT_EQ(delivered[2], (std::pair<Cycle, Module *>{3, &a}));
    EXPECT_EQ(delivered[3], (std::pair<Cycle, Module *>{11, &c}));
    EXPECT_EQ(wheel.pending(), 0u);
}

TEST(WakeWheel, HeapHoldsMultipleRevolutions)
{
    Simulator sim;
    Dummy a(sim, "a"), b(sim, "b");
    WakeWheel wheel(/*slots=*/4);
    wheel.schedule(0, 9, &b);  // two revolutions out
    wheel.schedule(0, 5, &a);  // one revolution out
    std::vector<std::pair<Cycle, Module *>> delivered;
    for (Cycle now = 1; now <= 9; ++now)
        wheel.drain(now, [&](Module *m) { delivered.push_back({now, m}); });
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0], (std::pair<Cycle, Module *>{5, &a}));
    EXPECT_EQ(delivered[1], (std::pair<Cycle, Module *>{9, &b}));
}

TEST(WakeWheel, FullSlotSpillsIntoHeap)
{
    Simulator sim;
    Dummy a(sim, "a"), b(sim, "b");
    WakeWheel wheel(/*slots=*/4);

    // Three wakes more than a slot holds, all for cycle 2: the overflow
    // spills into the heap. Every one is delivered at 2, ring entries
    // first, and the neighbouring slot is untouched.
    const std::size_t n = WakeWheel::kSlotCapacity + 3;
    for (std::size_t i = 0; i < n; ++i)
        wheel.schedule(0, 2, &a);
    wheel.schedule(0, 3, &b);
    EXPECT_EQ(wheel.pending(), n + 1);

    std::vector<std::pair<Cycle, Module *>> delivered;
    for (Cycle now = 1; now <= 4; ++now)
        wheel.drain(now, [&](Module *m) { delivered.push_back({now, m}); });

    ASSERT_EQ(delivered.size(), n + 1);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(delivered[i], (std::pair<Cycle, Module *>{2, &a})) << i;
    EXPECT_EQ(delivered[n], (std::pair<Cycle, Module *>{3, &b}));
    EXPECT_EQ(wheel.pending(), 0u);
}

/** Pushes one token every @p period cycles, then sleeps in between. */
class PulseProducer : public Module
{
  public:
    PulseProducer(Simulator &sim, TimedQueue<int> &out, Cycle period,
                  int count)
        : Module(sim, "producer"), _out(out), _period(period),
          _left(count)
    {
        declareSleepable();
        declareSelfWake();
    }

    void
    tick() override
    {
        if (_left > 0 && sim().cycle() % _period == 0 &&
            _out.canPush()) {
            _out.push(int(_left));
            --_left;
        }
        if (_left == 0) {
            requestSleep();
        } else {
            // Self-schedule the next pulse edge and sleep until then.
            const Cycle next =
                (sim().cycle() / _period + 1) * _period;
            requestWakeAt(next);
            requestSleep();
        }
    }

    int left() const { return _left; }

  private:
    TimedQueue<int> &_out;
    Cycle _period;
    int _left;
};

/** Pops whenever possible; sleeps instantly when the queue is dry. */
class SleepyConsumer : public Module
{
  public:
    SleepyConsumer(Simulator &sim, TimedQueue<int> &in)
        : Module(sim, "consumer"), _in(in)
    {
        declareSleepable();
        _in.setWakeOnPush(this);
    }

    void
    tick() override
    {
        if (_in.canPop()) {
            _in.pop();
            ++_popped;
        } else {
            requestSleep();
        }
    }

    int popped() const { return _popped; }

  private:
    TimedQueue<int> &_in;
    int _popped = 0;
};

/**
 * The push→wake re-arm must lose no event regardless of whether the
 * consumer is registered before the producer (wakeNow defers to the
 * next cycle: the consumer already ticked) or after it (the consumer
 * ticks later the same cycle). Run both orders to completion and
 * require the identical delivery count as the tick kernel.
 */
TEST(EventKernel, SameCycleRearmLosesNoEvents)
{
    for (const bool consumer_first : {true, false}) {
        for (const SimKernel kernel :
             {SimKernel::Tick, SimKernel::Event}) {
            Simulator sim;
            TimedQueue<int> q(sim, 2);
            std::unique_ptr<SleepyConsumer> cons;
            std::unique_ptr<PulseProducer> prod;
            if (consumer_first)
                cons = std::make_unique<SleepyConsumer>(sim, q);
            prod = std::make_unique<PulseProducer>(sim, q, 7, 10);
            if (!consumer_first)
                cons = std::make_unique<SleepyConsumer>(sim, q);
            sim.setKernel(kernel);
            sim.run(200);
            EXPECT_EQ(cons->popped(), 10)
                << "consumer_first=" << consumer_first << " kernel="
                << simKernelName(kernel);
            EXPECT_EQ(prod->left(), 0);
        }
    }
}

TEST(EventKernel, WakeOutOfFullQuiescence)
{
    // A module that sleeps with only a far-future self-wake armed: the
    // whole active set empties, and the wheel alone revives it.
    class Beacon : public Module
    {
      public:
        explicit Beacon(Simulator &sim) : Module(sim, "beacon")
        {
            declareSleepable();
            declareSelfWake();
        }
        void
        tick() override
        {
            ticks.push_back(sim().cycle());
            requestWakeAt(sim().cycle() + 100);
            requestSleep();
        }
        std::vector<Cycle> ticks;
    };

    Simulator sim;
    Beacon beacon(sim);
    sim.setKernel(SimKernel::Event);
    sim.run(5);
    EXPECT_EQ(sim.activeModules(), 0u);
    EXPECT_GE(sim.pendingWakes(), 1u);
    sim.run(245); // through cycle 250: wakes due at 100 and 200
    ASSERT_EQ(beacon.ticks.size(), 3u);
    EXPECT_EQ(beacon.ticks[0], 0u);
    EXPECT_EQ(beacon.ticks[1], 100u);
    EXPECT_EQ(beacon.ticks[2], 200u);
}

TEST(EventKernel, TickKernelTicksSleepersEveryCycle)
{
    // The tick kernel is the differential reference: it ignores sleep
    // requests, so a module that asks to sleep on every tick is still
    // ticked every cycle, including after an Event->Tick switch that
    // found it asleep.
    class Napper : public Module
    {
      public:
        explicit Napper(Simulator &sim) : Module(sim, "napper")
        {
            declareSleepable();
        }
        void
        tick() override
        {
            ++ticks;
            requestSleep();
        }
        u64 ticks = 0;
    };

    Simulator sim;
    Napper napper(sim);
    sim.setKernel(SimKernel::Tick);
    sim.run(10);
    EXPECT_EQ(napper.ticks, 10u);
    sim.setKernel(SimKernel::Event);
    sim.run(10); // ticks once, then sleeps with no wake armed
    EXPECT_EQ(napper.ticks, 11u);
    EXPECT_EQ(sim.activeModules(), 0u);
    sim.setKernel(SimKernel::Tick);
    sim.run(10);
    EXPECT_EQ(napper.ticks, 21u);
    EXPECT_EQ(sim.activeModules(), 1u);
}

TEST(EventKernel, WatchdogFiresWhenActiveSetEmpties)
{
    // Quiescence is not progress: a design that goes to sleep forever
    // with work notionally outstanding must still trip the armed
    // watchdog — the event kernel keeps stepping cycles and the
    // watchdog check runs every cycle regardless of the active set.
    class Stuck : public Module
    {
      public:
        explicit Stuck(Simulator &sim) : Module(sim, "stuck")
        {
            declareSleepable();
        }
        void
        tick() override
        {
            requestSleep(); // never wakes again, never signals Busy
        }
    };

    Simulator sim;
    Stuck stuck(sim);
    sim.setKernel(SimKernel::Event);
    sim.setWatchdog(64);
    EXPECT_THROW(sim.run(10000), ConfigError);
    EXPECT_EQ(sim.activeModules(), 0u);
    EXPECT_LT(sim.cycle(), 10000u);
}

TEST(EventKernel, SleptGapBackfillsWithGapClass)
{
    // A module quiescing mid-stream attributes the slept span to the
    // class it went to sleep in (here StallUpstream), not Idle — the
    // same taxonomy the tick kernel produces by re-accounting that
    // class every cycle.
    class Waiter : public Module
    {
      public:
        explicit Waiter(Simulator &sim)
            : Module(sim, "waiter"), _stall(sim, "waiter")
        {
            declareSleepable();
            declareSelfWake();
        }
        void
        tick() override
        {
            if (sim().cycle() == 0 || sim().cycle() == 100) {
                _stall.account(StallClass::Busy);
                if (sim().cycle() == 0)
                    requestWakeAt(100);
                return;
            }
            _stall.account(StallClass::StallUpstream);
            sleepWith(_stall, StallClass::StallUpstream);
        }
        StallAccount _stall;
    };

    Simulator sim;
    Waiter w(sim);
    sim.setKernel(SimKernel::Event);
    sim.run(200);
    sim.publishStallStats();
    // Cycles 0 and 100 are Busy; 1 and 101 classify StallUpstream and
    // sleep; the slept spans [2,100) and [102,200) backfill as
    // StallUpstream. Nothing may land in Idle, and conservation holds.
    EXPECT_EQ(w._stall.count(StallClass::Busy), 2u);
    EXPECT_EQ(w._stall.count(StallClass::StallUpstream), 198u);
    EXPECT_EQ(w._stall.count(StallClass::Idle), 0u);
    u64 sum = 0;
    for (std::size_t i = 0; i < kNumStallClasses; ++i)
        sum += w._stall.count(static_cast<StallClass>(i));
    EXPECT_EQ(sum, sim.cycle());
}

/**
 * A sleeper with a mailbox: when a poke is waiting it logs
 * (cycle, index) and pokes its successors through wakeNow, the way a
 * queue push wakes its consumer. Under the tick kernel it ticks every
 * cycle, so a poke to a later module is seen the same cycle and a poke
 * to an earlier one (or itself) the next cycle; the event kernel must
 * reproduce exactly that.
 */
class Cell : public Module
{
  public:
    using Log = std::vector<std::pair<Cycle, std::size_t>>;

    Cell(Simulator &sim, Log &log)
        : Module(sim, "cell"), _log(log)
    {
        declareSleepable();
    }

    void
    poke()
    {
        ++_pending;
        sim().wakeNow(this);
    }

    void
    tick() override
    {
        if (_pending > 0) {
            _log.push_back({sim().cycle(), index()});
            --_pending;
            for (Cell *next : successors)
                next->poke();
        }
        if (_pending == 0)
            requestSleep();
    }

    std::vector<Cell *> successors;

  private:
    Log &_log;
    unsigned _pending = 0;
};

TEST(EventKernel, AwakeBitmapKeepsTickOrder)
{
    // 130 modules span three bitmap words (0-63, 64-127, 128-129).
    auto run = [](SimKernel kernel, u64 &ticks) {
        Cell::Log log;
        Simulator sim;
        std::vector<std::unique_ptr<Cell>> cells;
        for (int i = 0; i < 130; ++i)
            cells.push_back(std::make_unique<Cell>(sim, log));
        auto link = [&](std::size_t from, std::size_t to) {
            cells[from]->successors.push_back(cells[to].get());
        };
        // Ahead of the cursor, in place: within word 0, onto its last
        // bit, across the 63|64 and 127|128 boundaries, and to the
        // last module.
        link(1, 62);
        link(62, 63);
        link(63, 64);
        link(64, 127);
        link(127, 128);
        link(128, 129);
        // Behind the cursor: deferred to the next cycle.
        link(129, 3);
        link(3, 2);
        // Self-poke: the next cycle, once per delivery.
        link(100, 100);
        sim.setKernel(kernel);
        const u64 before = globalModuleTicks();
        for (Cycle c = 0; c < 12; ++c) {
            if (c == 2 || c == 7)
                cells[1]->poke(); // between steps: woken in place
            if (c == 4)
                cells[100]->poke();
            if (c == 7)
                cells[64]->poke(); // a second chain through word 1
            sim.step();
            if (c == 5)
                cells[100]->successors.clear(); // end the self loop
        }
        ticks = globalModuleTicks() - before;
        return log;
    };

    u64 tick_ticks = 0, event_ticks = 0;
    const Cell::Log tick_log = run(SimKernel::Tick, tick_ticks);
    const Cell::Log event_log = run(SimKernel::Event, event_ticks);
    EXPECT_EQ(event_log, tick_log);
    EXPECT_EQ(tick_ticks, 130u * 12u);
    EXPECT_LT(event_ticks, tick_ticks);

    // The chain from cell 1 runs through all three words in cycle 2,
    // then wraps behind the cursor one cycle at a time.
    const Cell::Log chain = {{2, 1},  {2, 62},  {2, 63}, {2, 64},
                             {2, 127}, {2, 128}, {2, 129}, {3, 3},
                             {4, 2}};
    ASSERT_GE(event_log.size(), chain.size());
    EXPECT_TRUE(std::equal(chain.begin(), chain.end(), event_log.begin()));
    // Cell 100's self-pokes land one cycle apart until the loop is cut.
    Cell::Log self;
    for (const auto &e : event_log)
        if (e.second == 100)
            self.push_back(e);
    EXPECT_EQ(self, (Cell::Log{{4, 100}, {5, 100}, {6, 100}}));
}

TEST(EventKernel, PlantedLostWakeStallsTheConsumer)
{
    // The fault-injection hook behind beethoven fuzz --plant-lost-wake:
    // dropping wake schedules must produce an observable difference
    // (here: lost deliveries), which is exactly what the differential
    // harness exists to catch.
    Simulator sim;
    TimedQueue<int> q(sim, 2);
    SleepyConsumer cons(sim, q);
    PulseProducer prod(sim, q, 7, 10);
    sim.setKernel(SimKernel::Event);
    sim.plantLostWakes(2); // drop every 2nd scheduled wake
    sim.run(200);
    EXPECT_LT(cons.popped(), 10);
}

} // namespace
} // namespace beethoven
