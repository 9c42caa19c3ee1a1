/**
 * @file
 * End-to-end tests for the A3 attention accelerator: bit-exact
 * agreement with the golden fixed-point reference, batch processing,
 * multi-core operation, and cross-platform elaboration (FPGA + ASIC).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "accel/a3/a3_core.h"
#include "base/rng.h"
#include "baselines/attention_sw.h"
#include "platform/asap7.h"
#include "platform/aws_f1.h"
#include "platform/sim_platform.h"
#include "runtime/fpga_handle.h"

namespace beethoven
{
namespace
{

using namespace a3;

struct A3Harness
{
    AcceleratorSoc soc;
    RuntimeServer server;
    fpga_handle_t handle;

    A3Harness(const Platform &platform, unsigned n_cores)
        : soc(AcceleratorConfig(A3Core::systemConfig(n_cores)),
              platform),
          server(soc),
          handle(server)
    {}
};

struct Operands
{
    std::vector<i8> keys, values;
    std::vector<std::vector<i8>> queries;
};

Operands
makeOperands(unsigned n_keys, unsigned n_queries, u64 seed)
{
    Operands ops;
    Rng rng(seed);
    ops.keys.resize(std::size_t(n_keys) * A3Params::dim);
    ops.values.resize(std::size_t(n_keys) * A3Params::dim);
    for (auto &v : ops.keys)
        v = static_cast<i8>(rng.nextRange(0, 255) - 128);
    for (auto &v : ops.values)
        v = static_cast<i8>(rng.nextRange(0, 255) - 128);
    for (unsigned q = 0; q < n_queries; ++q) {
        std::vector<i8> query(A3Params::dim);
        for (auto &v : query)
            v = static_cast<i8>(rng.nextRange(0, 255) - 128);
        ops.queries.push_back(std::move(query));
    }
    return ops;
}

void
runAttention(const Platform &platform, unsigned n_cores,
             unsigned n_keys, unsigned n_queries)
{
    A3Harness h(platform, n_cores);
    const Operands ops = makeOperands(n_keys, n_queries, n_keys * 31);

    remote_ptr keys = h.handle.malloc(ops.keys.size());
    remote_ptr values = h.handle.malloc(ops.values.size());
    std::memcpy(keys.getHostAddr(), ops.keys.data(), ops.keys.size());
    std::memcpy(values.getHostAddr(), ops.values.data(),
                ops.values.size());
    h.handle.copy_to_fpga(keys);
    h.handle.copy_to_fpga(values);

    // Load the stationary matrices into every core.
    std::vector<response_handle<u64>> loads;
    for (unsigned c = 0; c < n_cores; ++c) {
        loads.push_back(h.handle.invoke(
            "A3System", "load_matrices", c,
            {keys.getFpgaAddr(), values.getFpgaAddr(), n_keys}));
    }
    for (auto &l : loads)
        l.get();

    // One attend batch per core, round-robin over the query set.
    remote_ptr qbuf = h.handle.malloc(n_queries * 64);
    remote_ptr obuf = h.handle.malloc(n_queries * 64);
    for (unsigned q = 0; q < n_queries; ++q) {
        std::memcpy(qbuf.getHostAddr() + q * 64,
                    ops.queries[q].data(), A3Params::dim);
    }
    h.handle.copy_to_fpga(qbuf);

    std::vector<response_handle<u64>> batches;
    // Split queries contiguously across cores.
    const unsigned per = n_queries / n_cores;
    ASSERT_GT(per, 0u);
    for (unsigned c = 0; c < n_cores; ++c) {
        const unsigned count =
            c + 1 == n_cores ? n_queries - per * c : per;
        batches.push_back(h.handle.invoke(
            "A3System", "attend", c,
            {qbuf.getFpgaAddr() + u64(per) * c * 64,
             obuf.getFpgaAddr() + u64(per) * c * 64, count}));
    }
    for (auto &b : batches)
        b.get();
    h.handle.copy_from_fpga(obuf);

    for (unsigned q = 0; q < n_queries; ++q) {
        const auto golden = goldenAttention(ops.keys, ops.values,
                                            ops.queries[q], n_keys,
                                            A3Params::dim);
        for (unsigned d = 0; d < A3Params::dim; ++d) {
            ASSERT_EQ(
                static_cast<i8>(obuf.getHostAddr()[q * 64 + d]),
                golden[d])
                << "query " << q << " dim " << d;
        }
    }
}

TEST(A3Attention, SingleCoreMatchesGolden)
{
    SimulationPlatform platform;
    runAttention(platform, 1, 320, 8);
}

TEST(A3Attention, SmallKeyCounts)
{
    SimulationPlatform platform;
    for (unsigned n_keys : {1u, 7u, 64u})
        runAttention(platform, 1, n_keys, 4);
}

TEST(A3Attention, MultiCoreF1)
{
    AwsF1Platform platform;
    runAttention(platform, 4, 320, 16);
}

TEST(A3Attention, AsicPlatformElaborates)
{
    Asap7Platform platform;
    runAttention(platform, 1, 128, 4);
}

TEST(A3Attention, PipelineOverlapsStages)
{
    // With a long batch, steady-state throughput should approach one
    // query per n_keys cycles — proof the three stages overlap.
    SimulationPlatform platform;
    A3Harness h(platform, 1);
    const unsigned n_keys = 320, n_queries = 64;
    const Operands ops = makeOperands(n_keys, n_queries, 5);

    remote_ptr keys = h.handle.malloc(ops.keys.size());
    remote_ptr values = h.handle.malloc(ops.values.size());
    std::memcpy(keys.getHostAddr(), ops.keys.data(), ops.keys.size());
    std::memcpy(values.getHostAddr(), ops.values.data(),
                ops.values.size());
    h.handle.copy_to_fpga(keys);
    h.handle.copy_to_fpga(values);
    h.handle
        .invoke("A3System", "load_matrices", 0,
                {keys.getFpgaAddr(), values.getFpgaAddr(), n_keys})
        .get();

    remote_ptr qbuf = h.handle.malloc(n_queries * 64);
    remote_ptr obuf = h.handle.malloc(n_queries * 64);
    for (unsigned q = 0; q < n_queries; ++q) {
        std::memcpy(qbuf.getHostAddr() + q * 64,
                    ops.queries[q].data(), A3Params::dim);
    }
    h.handle.copy_to_fpga(qbuf);
    h.handle
        .invoke("A3System", "attend", 0,
                {qbuf.getFpgaAddr(), obuf.getFpgaAddr(), n_queries})
        .get();

    auto &core = static_cast<A3Core &>(h.soc.core("A3System", 0));
    const double cycles_per_query =
        double(core.lastKernelCycles()) / n_queries;
    // Perfectly serialized stages would need ~3*n_keys cycles/query.
    EXPECT_LT(cycles_per_query, 1.6 * n_keys)
        << "stages are not overlapping";
    EXPECT_GT(cycles_per_query, 0.9 * n_keys);
}

TEST(A3Attention, BackToBackCommandsWait)
{
    // Two loads and two attend batches issued to one core without
    // waiting: each command waits at the head of the queue until the
    // previous one has finished and responded, instead of finding its
    // ports busy. Every command responds and every output is exact.
    SimulationPlatform platform;
    A3Harness h(platform, 1);
    const unsigned n_keys = 64, n_queries = 8, half = n_queries / 2;
    const Operands ops = makeOperands(n_keys, n_queries, 11);

    remote_ptr keys = h.handle.malloc(ops.keys.size());
    remote_ptr values = h.handle.malloc(ops.values.size());
    std::memcpy(keys.getHostAddr(), ops.keys.data(), ops.keys.size());
    std::memcpy(values.getHostAddr(), ops.values.data(),
                ops.values.size());
    h.handle.copy_to_fpga(keys);
    h.handle.copy_to_fpga(values);
    remote_ptr qbuf = h.handle.malloc(n_queries * 64);
    remote_ptr obuf = h.handle.malloc(n_queries * 64);
    for (unsigned q = 0; q < n_queries; ++q) {
        std::memcpy(qbuf.getHostAddr() + q * 64, ops.queries[q].data(),
                    A3Params::dim);
    }
    h.handle.copy_to_fpga(qbuf);

    std::vector<response_handle<u64>> pending;
    for (int i = 0; i < 2; ++i) {
        pending.push_back(h.handle.invoke(
            "A3System", "load_matrices", 0,
            {keys.getFpgaAddr(), values.getFpgaAddr(), n_keys}));
    }
    for (unsigned b = 0; b < 2; ++b) {
        pending.push_back(h.handle.invoke(
            "A3System", "attend", 0,
            {qbuf.getFpgaAddr() + u64(b) * half * 64,
             obuf.getFpgaAddr() + u64(b) * half * 64, half}));
    }
    for (auto &p : pending)
        p.get();
    h.handle.copy_from_fpga(obuf);

    for (unsigned q = 0; q < n_queries; ++q) {
        const auto golden = goldenAttention(ops.keys, ops.values,
                                            ops.queries[q], n_keys,
                                            A3Params::dim);
        for (unsigned d = 0; d < A3Params::dim; ++d) {
            ASSERT_EQ(static_cast<i8>(obuf.getHostAddr()[q * 64 + d]),
                      golden[d])
                << "query " << q << " dim " << d;
        }
    }
}

TEST(A3Attention, GoldenMatchesF32Shape)
{
    // The fixed-point pipeline should approximate true softmax
    // attention: compare against FP32 with a generous tolerance.
    const unsigned n_keys = 320;
    const Operands ops = makeOperands(n_keys, 1, 77);
    const auto fx = goldenAttention(ops.keys, ops.values,
                                    ops.queries[0], n_keys,
                                    A3Params::dim);

    std::vector<float> q(A3Params::dim), k(ops.keys.size()),
        v(ops.values.size()), out(A3Params::dim);
    // Scale scores so the fixed-point LUT regime matches: the LUT
    // divides (max-score) by 32.
    for (std::size_t i = 0; i < k.size(); ++i)
        k[i] = ops.keys[i];
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = ops.values[i];
    for (unsigned d = 0; d < A3Params::dim; ++d)
        q[d] = ops.queries[0][d] / 32.0f;
    a3::softwareAttentionF32(q.data(), k.data(), v.data(), out.data(),
                             n_keys, A3Params::dim);
    double err = 0;
    for (unsigned d = 0; d < A3Params::dim; ++d)
        err += std::abs(out[d] - fx[d]);
    err /= A3Params::dim;
    EXPECT_LT(err, 24.0) << "approximate attention diverges from FP32";
}

} // namespace
} // namespace beethoven
