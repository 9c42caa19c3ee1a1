/**
 * @file
 * Unit tests for the verification subsystem (src/verify/): random SoC
 * sampling legality, repro JSON round-tripping, the planted-violation
 * catch/shrink/replay loop, and golden-model agreement on hand-built
 * cases for every fuzz kind.
 */

#include <gtest/gtest.h>

#include "verify/fuzz.h"
#include "verify/random_soc.h"
#include "verify/traffic.h"

namespace beethoven
{
namespace
{

using namespace verify;

FuzzCase
tinyCase(FuzzKind kind)
{
    FuzzCase c;
    c.seed = 5;
    FuzzSystem sys;
    sys.kind = kind;
    sys.nCores = 1;
    c.systems.push_back(sys);
    FuzzOp op;
    op.system = 0;
    op.core = 0;
    op.dataSeed = 99;
    op.size = 2;
    c.ops.push_back(op);
    return c;
}

TEST(FuzzHarness, EveryKindMatchesGolden)
{
    FuzzOptions opt;
    for (FuzzKind kind : {FuzzKind::VecAdd, FuzzKind::Memcpy,
                          FuzzKind::SpadLoop, FuzzKind::Gemm}) {
        const FuzzResult r = runFuzzCase(tinyCase(kind), opt);
        EXPECT_EQ(r.kind, FailKind::None)
            << fuzzKindName(kind) << ": " << r.message;
        EXPECT_EQ(r.responses, 1u);
        EXPECT_GT(r.axiEvents, 0u) << fuzzKindName(kind);
    }
}

TEST(FuzzHarness, SampledCasesAreLegal)
{
    // Every sampled composition must elaborate and run clean; this is
    // a miniature of the fuzz smoke with per-case assertions.
    FuzzOptions opt;
    for (u64 seed = 100; seed < 105; ++seed) {
        RandomSocBuilder builder(seed);
        FuzzCase c = builder.sample();
        RandomTrafficGen traffic(seed * 31 + 7);
        traffic.generate(c, /*max_ops=*/4);
        const FuzzResult r = runFuzzCase(c, opt);
        EXPECT_EQ(r.kind, FailKind::None)
            << "seed " << seed << ": " << r.message;
    }
}

TEST(FuzzHarness, JsonRoundTrip)
{
    RandomSocBuilder builder(0xFACE);
    FuzzCase c = builder.sample();
    RandomTrafficGen traffic(0xFACE ^ 1);
    traffic.generate(c, 6);
    // Exercise the extremes the double-based JSON parser cannot hold.
    c.seed = 0xFFFFFFFFFFFFFFFFULL;
    c.ops[0].dataSeed = 0x8000000000000001ULL;

    const std::string json = fuzzCaseToJson(c);
    const FuzzCase back = fuzzCaseFromJson(json);
    EXPECT_EQ(fuzzCaseToJson(back), json);
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.ops[0].dataSeed, c.ops[0].dataSeed);
    EXPECT_EQ(back.systems.size(), c.systems.size());
    EXPECT_EQ(back.ops.size(), c.ops.size());
}

TEST(FuzzHarness, MalformedJsonRejected)
{
    EXPECT_THROW(fuzzCaseFromJson("not json"), ConfigError);
    EXPECT_THROW(fuzzCaseFromJson("{}"), ConfigError);
    EXPECT_THROW(loadReproFile("/nonexistent/repro.json"), ConfigError);
}

TEST(FuzzHarness, PlantedViolationCaughtShrunkAndReplayed)
{
    FuzzOptions opt;
    FuzzCase c = tinyCase(FuzzKind::VecAdd);
    // Some extra bulk for the shrinker to chew through.
    c.ops.push_back(c.ops[0]);
    c.ops.push_back(c.ops[0]);
    c.plantViolation = true;

    const FuzzResult r = runFuzzCase(c, opt);
    ASSERT_EQ(r.kind, FailKind::Violation) << r.message;
    EXPECT_NE(r.message.find("invariant violation"), std::string::npos)
        << r.message;

    unsigned attempts = 0;
    const FuzzCase minimal =
        shrink(c, opt, r.kind, /*max_attempts=*/100, &attempts);
    EXPECT_LE(minimal.systems.size(), c.systems.size());
    EXPECT_LT(minimal.ops.size(), c.ops.size());
    EXPECT_LT(attempts, 100u) << "shrinker failed to converge";

    // The minimized case — and its JSON round-trip, as a replay from a
    // repro file would see it — must reproduce the same failure kind.
    const FuzzResult again = runFuzzCase(minimal, opt);
    EXPECT_EQ(again.kind, FailKind::Violation) << again.message;
    const FuzzResult replay =
        runFuzzCase(fuzzCaseFromJson(fuzzCaseToJson(minimal)), opt);
    EXPECT_EQ(replay.kind, FailKind::Violation) << replay.message;
}

TEST(FuzzHarness, ShrinkPreservesFailureKindNotJustAnyFailure)
{
    // A clean case must shrink to itself: no pass may "find" a failure
    // where none existed.
    FuzzOptions opt;
    FuzzCase c = tinyCase(FuzzKind::Memcpy);
    const FuzzResult r = runFuzzCase(c, opt);
    ASSERT_EQ(r.kind, FailKind::None) << r.message;
    // (shrink() is only defined for failing kinds; nothing to do here —
    // this documents the contract.)
}

TEST(FuzzHarness, BuildErrorClassified)
{
    FuzzOptions opt;
    FuzzCase c; // no systems: elaboration must reject it
    c.seed = 1;
    const FuzzResult r = runFuzzCase(c, opt);
    EXPECT_EQ(r.kind, FailKind::BuildError);
    EXPECT_FALSE(r.message.empty());
}

} // namespace
} // namespace beethoven
