/**
 * @file
 * Tests for the TimedQueue channel primitive — the semantics the whole
 * simulation's determinism rests on.
 */

#include <gtest/gtest.h>

#include "sim/queue.h"

namespace beethoven
{
namespace
{

/** A module-free driver: we tick/commit by stepping the simulator. */
struct QueueHarness
{
    Simulator sim;
};

TEST(TimedQueue, PushVisibleAfterLatency)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 4, 1);
    q.push(42);
    EXPECT_FALSE(q.canPop()) << "pushes must not be visible same cycle";
    h.sim.step();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.front(), 42);
}

class QueueLatency : public ::testing::TestWithParam<unsigned>
{};

TEST_P(QueueLatency, VisibilityDelayedExactly)
{
    const unsigned latency = GetParam();
    QueueHarness h;
    TimedQueue<int> q(h.sim, 8, latency);
    q.push(7);
    h.sim.step(); // commit happens at the end of the push cycle
    for (unsigned c = 1; c < latency; ++c) {
        EXPECT_FALSE(q.canPop()) << "visible too early at +" << c;
        h.sim.step();
    }
    EXPECT_TRUE(q.canPop());
}

INSTANTIATE_TEST_SUITE_P(Latencies, QueueLatency,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(TimedQueue, CapacityIncludesPending)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 2);
    q.push(1);
    EXPECT_TRUE(q.canPush());
    q.push(2);
    EXPECT_FALSE(q.canPush()) << "pending pushes occupy space";
}

TEST(TimedQueue, PopFreesSpaceNextCycleOnly)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 1);
    q.push(1);
    h.sim.step();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.pop(), 1);
    // Registered occupancy: space frees only after commit.
    EXPECT_FALSE(q.canPush());
    h.sim.step();
    EXPECT_TRUE(q.canPush());
}

TEST(TimedQueue, FifoOrder)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 16);
    for (int i = 0; i < 10; ++i)
        q.push(i);
    h.sim.step();
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.canPop());
        EXPECT_EQ(q.pop(), i);
    }
    EXPECT_FALSE(q.canPop());
}

TEST(TimedQueue, VisibleSizeTracksLatency)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 8, 2);
    q.push(1);
    h.sim.step();
    q.push(2);
    h.sim.step();
    // First push now visible (latency 2), second not yet.
    EXPECT_EQ(q.visibleSize(), 1u);
    EXPECT_EQ(q.occupancy(), 2u);
    h.sim.step();
    EXPECT_EQ(q.visibleSize(), 2u);
}

TEST(TimedQueue, MoveOnlyPayloads)
{
    QueueHarness h;
    TimedQueue<std::unique_ptr<int>> q(h.sim, 2);
    q.push(std::make_unique<int>(9));
    h.sim.step();
    auto p = q.pop();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 9);
}

/**
 * Ring storage: a full queue streaming for many times its capacity
 * wraps its head and tail around the ring again and again. Capacity 4
 * with latency 3 is exactly enough to sustain one entry per cycle, so
 * the queue stays full and every entry spends exactly `latency` cycles
 * in flight.
 */
TEST(TimedQueue, RingWrapsAtFullOccupancy)
{
    QueueHarness h;
    constexpr std::size_t cap = 4;
    constexpr unsigned latency = 3;
    TimedQueue<int> q(h.sim, cap, latency);
    std::vector<Cycle> pushedAt;
    int popped = 0;
    for (Cycle c = 0; c < 10 * cap; ++c) {
        if (q.canPop()) {
            const int v = q.pop();
            ASSERT_EQ(v, popped) << "FIFO order across the wrap";
            EXPECT_EQ(h.sim.cycle(), pushedAt[v] + latency);
            ++popped;
        }
        ASSERT_TRUE(q.canPush()) << "full throughput at cycle " << c;
        pushedAt.push_back(h.sim.cycle());
        q.push(static_cast<int>(pushedAt.size() - 1));
        if (c >= latency) {
            EXPECT_EQ(q.occupancy(), cap) << "full at cycle " << c;
        }
        h.sim.step();
    }
    EXPECT_GE(popped, static_cast<int>(3 * cap));
}

/** This cycle's pops still occupy space, including pops of entries
 *  that straddle the end of the ring. */
TEST(TimedQueue, OccupancyCountsPopsAcrossWrap)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 3);
    q.push(0);
    q.push(1);
    q.push(2);
    h.sim.step();
    EXPECT_EQ(q.pop(), 0);
    EXPECT_EQ(q.pop(), 1);
    h.sim.step();
    q.push(3); // these two land in the ring's first slots
    q.push(4);
    h.sim.step();
    ASSERT_EQ(q.visibleSize(), 3u);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_FALSE(q.canPop());
    EXPECT_EQ(q.occupancy(), 3u) << "pops free space only after commit";
    EXPECT_FALSE(q.canPush());
    h.sim.step();
    EXPECT_EQ(q.occupancy(), 0u);
    EXPECT_TRUE(q.canPush());
}

/** Slots are reused: a move-only payload is moved out on pop and a
 *  later push moves a fresh one into the same slot. */
TEST(TimedQueue, MoveOnlyPayloadSlotReuse)
{
    QueueHarness h;
    TimedQueue<std::unique_ptr<int>> q(h.sim, 2);
    for (int round = 0; round < 8; ++round) {
        q.push(std::make_unique<int>(2 * round));
        q.push(std::make_unique<int>(2 * round + 1));
        h.sim.step();
        for (int k = 0; k < 2; ++k) {
            auto p = q.pop();
            ASSERT_NE(p, nullptr) << "round " << round;
            EXPECT_EQ(*p, 2 * round + k);
        }
        h.sim.step();
    }
    // An entry still queued at destruction is released with the ring.
    q.push(std::make_unique<int>(99));
    h.sim.step();
    EXPECT_EQ(*q.front(), 99);
}

/**
 * Determinism: two producer/consumer module pairs with opposite
 * registration orders must produce identical traces.
 */
struct Producer : Module
{
    TimedQueue<int> &out;
    int next = 0;
    Producer(Simulator &s, TimedQueue<int> &q)
        : Module(s, "producer"), out(q)
    {}
    void
    tick() override
    {
        if (out.canPush())
            out.push(next++);
    }
};

struct Consumer : Module
{
    TimedQueue<int> &in;
    std::vector<std::pair<Cycle, int>> trace;
    Consumer(Simulator &s, TimedQueue<int> &q)
        : Module(s, "consumer"), in(q)
    {}
    void
    tick() override
    {
        if (in.canPop())
            trace.emplace_back(sim().cycle(), in.pop());
    }
};

TEST(TimedQueue, TickOrderIndependence)
{
    std::vector<std::pair<Cycle, int>> trace_a, trace_b;
    {
        Simulator sim;
        TimedQueue<int> q(sim, 2);
        Producer p(sim, q); // producer registered first
        Consumer c(sim, q);
        sim.run(50);
        trace_a = c.trace;
    }
    {
        Simulator sim;
        TimedQueue<int> q(sim, 2);
        Consumer c(sim, q); // consumer registered first
        Producer p(sim, q);
        sim.run(50);
        trace_b = c.trace;
    }
    EXPECT_EQ(trace_a, trace_b);
    EXPECT_GT(trace_a.size(), 20u) << "pipeline should stream";
}

TEST(Simulator, RunUntilStopsExactlyWhenSatisfied)
{
    Simulator sim;
    EXPECT_TRUE(sim.runUntil([&] { return sim.cycle() >= 10; }, 100));
    EXPECT_EQ(sim.cycle(), 10u);
    EXPECT_FALSE(sim.runUntil([] { return false; }, 5));
    EXPECT_EQ(sim.cycle(), 15u);
}

} // namespace
} // namespace beethoven
