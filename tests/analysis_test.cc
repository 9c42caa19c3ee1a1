/**
 * @file
 * Unit tests for the composition checker's graph layer (src/lint/,
 * BTH1xx): one positive and one negative case per code over hand-built
 * SimGraph IR, the graph lowering of a real elaborated SoC, the
 * planted-wake catch path (a lost-wake bug flagged WITHOUT running a
 * single cycle), and the static/dynamic pairing with the differential
 * fuzz harness.
 */

#include <gtest/gtest.h>

#include <string>

#include "accel/machsuite/gemm.h"
#include "accel/memcpy_core.h"
#include "base/log.h"
#include "core/soc.h"
#include "lint/lint.h"
#include "platform/aws_f1.h"
#include "sim/graph_record.h"
#include "verify/fuzz.h"
#include "verify/random_soc.h"
#include "verify/traffic.h"

namespace beethoven
{
namespace
{

using lint::GraphEdge;
using lint::GraphModule;
using lint::kNoIndex;
using lint::SimGraph;
using verify::FuzzCase;
using verify::FuzzKind;
using verify::FuzzSystem;

/** The graph-layer pass over a hand-built graph (no model). */
lint::DiagnosticReport
checkGraph(const SimGraph &g)
{
    return lint::runRules(nullptr, &g);
}

/** Minimal two-module graph: producer feeds consumer over one queue. */
SimGraph
pairGraph()
{
    SimGraph g;
    GraphModule prod;
    prod.name = "prod";
    GraphModule cons;
    cons.name = "cons";
    g.modules = {prod, cons};
    GraphEdge e;
    e.site = "tests/synthetic:1";
    e.capacity = 4;
    e.latency = 1;
    e.producer = 0;
    e.consumer = 1;
    e.pushWakeArmed = true;
    e.pushWakeTarget = 1;
    g.edges = {e};
    return g;
}

// --- BTH100: sleepable consumer without an armed push-wake ----------

TEST(GraphRules, Bth100FiresOnSleepableConsumerWithoutPushWake)
{
    SimGraph g = pairGraph();
    g.modules[1].sleepable = true;
    g.modules[1].sleepSite = "tests/synthetic:2";
    g.edges[0].pushWakeArmed = false;
    g.edges[0].pushWakeTarget = kNoIndex;
    // Keep the module reachable through a pop-wake so only BTH100
    // (not BTH102) is under test.
    g.edges[0].popWakeArmed = true;
    g.edges[0].producer = 1;
    const auto rep = checkGraph(g);
    EXPECT_TRUE(rep.has("BTH100"));
}

TEST(GraphRules, Bth100SilentWhenPushWakeArmedOrConsumerPolls)
{
    SimGraph g = pairGraph();
    g.modules[1].sleepable = true;
    EXPECT_FALSE(checkGraph(g).has("BTH100"));

    // A poll-driven (never-sleeping) consumer needs no push-wake.
    SimGraph g2 = pairGraph();
    g2.edges[0].pushWakeArmed = false;
    g2.edges[0].pushWakeTarget = kNoIndex;
    EXPECT_FALSE(checkGraph(g2).has("BTH100"));
}

// --- BTH101: push-wake armed at a module that is not the consumer --

TEST(GraphRules, Bth101FiresOnMisdirectedPushWake)
{
    SimGraph g = pairGraph();
    g.edges[0].pushWakeTarget = 0; // armed at the producer, not 'cons'
    const auto rep = checkGraph(g);
    EXPECT_TRUE(rep.has("BTH101"));
}

TEST(GraphRules, Bth101SilentWhenWakeTargetsTheConsumer)
{
    EXPECT_FALSE(checkGraph(pairGraph()).has("BTH101"));
}

// --- BTH102: sleepable module with no reachable wake source --------

TEST(GraphRules, Bth102FiresOnUnwakeableSleeper)
{
    SimGraph g;
    GraphModule m;
    m.name = "stuck";
    m.sleepable = true;
    m.sleepSite = "tests/synthetic:3";
    g.modules = {m};
    const auto rep = checkGraph(g);
    EXPECT_TRUE(rep.has("BTH102"));
    EXPECT_TRUE(rep.hasErrors());
}

TEST(GraphRules, Bth102SilentWithPushWakePopWakeOrSelfWake)
{
    // Push-wake reachable.
    EXPECT_FALSE([] {
        SimGraph g = pairGraph();
        g.modules[1].sleepable = true;
        return checkGraph(g).has("BTH102");
    }());
    // Pop-wake reachable (producer side).
    EXPECT_FALSE([] {
        SimGraph g = pairGraph();
        g.modules[0].sleepable = true;
        g.edges[0].popWakeArmed = true;
        return checkGraph(g).has("BTH102");
    }());
    // Self-wake (e.g. the DRAM refresh timer).
    EXPECT_FALSE([] {
        SimGraph g;
        GraphModule m;
        m.name = "timer";
        m.sleepable = true;
        m.selfWake = true;
        g.modules = {m};
        return checkGraph(g).has("BTH102");
    }());
    // Trace wake (the NoC probe, woken by Simulator::attachTrace).
    EXPECT_FALSE([] {
        SimGraph g;
        GraphModule m;
        m.name = "probe";
        m.sleepable = true;
        m.traceWake = true;
        g.modules = {m};
        return checkGraph(g).has("BTH102");
    }());
}

// --- BTH103: self-wake declared without a sleep site ---------------

TEST(GraphRules, Bth103FiresOnSelfWakeWithoutSleep)
{
    SimGraph g;
    GraphModule m;
    m.name = "dead-arm";
    m.selfWake = true;
    m.selfWakeSite = "tests/synthetic:4";
    g.modules = {m};
    EXPECT_TRUE(checkGraph(g).has("BTH103"));
}

TEST(GraphRules, Bth103SilentWhenPaired)
{
    SimGraph g;
    GraphModule m;
    m.name = "timer";
    m.selfWake = true;
    m.sleepable = true;
    g.modules = {m};
    EXPECT_FALSE(checkGraph(g).has("BTH103"));
}

// --- BTH104: zero-latency wake cycles ------------------------------

TEST(GraphRules, Bth104FiresOnZeroLatencyCycle)
{
    // a -> b -> a, both hops armed push-wakes through latency-0 queues.
    SimGraph g;
    GraphModule a, b;
    a.name = "a";
    b.name = "b";
    g.modules = {a, b};
    GraphEdge ab, ba;
    ab.producer = 0;
    ab.consumer = 1;
    ab.pushWakeArmed = true;
    ab.pushWakeTarget = 1;
    ab.latency = 0;
    ba.producer = 1;
    ba.consumer = 0;
    ba.pushWakeArmed = true;
    ba.pushWakeTarget = 0;
    ba.latency = 0;
    g.edges = {ab, ba};
    const auto rep = checkGraph(g);
    EXPECT_TRUE(rep.has("BTH104"));
    EXPECT_TRUE(rep.hasErrors());
}

TEST(GraphRules, Bth104SilentWhenAnyHopHasLatency)
{
    SimGraph g;
    GraphModule a, b;
    a.name = "a";
    b.name = "b";
    g.modules = {a, b};
    GraphEdge ab, ba;
    ab.producer = 0;
    ab.consumer = 1;
    ab.pushWakeArmed = true;
    ab.pushWakeTarget = 1;
    ab.latency = 0;
    ba.producer = 1;
    ba.consumer = 0;
    ba.pushWakeArmed = true;
    ba.pushWakeTarget = 0;
    ba.latency = 1; // a real TimedQueue: breaks the same-cycle loop
    g.edges = {ab, ba};
    EXPECT_FALSE(checkGraph(g).has("BTH104"));
}

// --- BTH105: producer is its own push-wake target ------------------

TEST(GraphRules, Bth105FiresOnSelfWakeLoop)
{
    SimGraph g = pairGraph();
    g.edges[0].pushWakeTarget = 0; // producer wakes itself on push
    EXPECT_TRUE(checkGraph(g).has("BTH105"));
}

TEST(GraphRules, Bth105SilentOnNormalWiring)
{
    EXPECT_FALSE(checkGraph(pairGraph()).has("BTH105"));
}

// --- Real-SoC lowering, census, and the planted-wake catch ---------

FuzzCase
memcpyCase()
{
    FuzzCase c;
    c.seed = 7;
    FuzzSystem sys;
    sys.kind = FuzzKind::Memcpy;
    sys.nCores = 1;
    c.systems.push_back(sys);
    return c;
}

/** Findings of the graph layer (BTH1xx) in @p rep. */
std::size_t
graphFindingCount(const lint::DiagnosticReport &rep)
{
    std::size_t n = 0;
    for (const lint::Diagnostic &d : rep.diagnostics()) {
        if (std::string(lint::findDiagnosticCode(d.code)->layer) == "graph")
            ++n;
    }
    return n;
}

TEST(SocAnalysis, ElaboratedSocIsAnalyzeClean)
{
    const verify::FuzzPlatform platform(memcpyCase().platform);
    const AcceleratorSoc soc(verify::buildAcceleratorConfig(memcpyCase()),
                             platform);
    EXPECT_EQ(graphFindingCount(soc.diagnostics()), 0u)
        << soc.diagnostics().format();
}

// beethoven lint --preset=fig4|fig6: the paper's compositions carry
// config-layer warnings (BTH041, and BTH042 on fig6) but nothing on
// the elaborated graph.
TEST(SocAnalysis, Fig4PresetHasNoGraphFindings)
{
    AwsF1Platform platform;
    const AcceleratorSoc soc(
        AcceleratorConfig(
            MemcpyCore::systemConfig(1, MemcpyCore::Variant{})),
        platform);
    EXPECT_EQ(graphFindingCount(soc.diagnostics()), 0u)
        << soc.diagnostics().format();
}

TEST(SocAnalysis, Fig6PresetHasNoGraphFindings)
{
    AwsF1Platform platform;
    platform.setClockMHz(125.0);
    const AcceleratorSoc soc(
        AcceleratorConfig(machsuite::GemmCore::systemConfig(4)),
        platform);
    EXPECT_EQ(graphFindingCount(soc.diagnostics()), 0u)
        << soc.diagnostics().format();
}

TEST(SocAnalysis, CensusMatchesCompositionModel)
{
    const verify::FuzzPlatform platform(memcpyCase().platform);
    const AcceleratorSoc soc(verify::buildAcceleratorConfig(memcpyCase()),
                             platform);
    EXPECT_FALSE(soc.diagnostics().has("BTH106"));

    // Against a DIFFERENT composition's model the census must flag
    // the role-count skew (positive case for BTH106).
    FuzzCase bigger = memcpyCase();
    bigger.systems[0].nCores = 2;
    // The model points into its config, so the config must outlive it.
    const AcceleratorConfig bigger_cfg =
        verify::buildAcceleratorConfig(bigger);
    const auto model = lint::buildCompositionModel(bigger_cfg, platform);
    const SimGraph g = lint::buildSimGraph(soc.sim());
    EXPECT_TRUE(lint::runRules(&model, &g).has("BTH106"));
}

/**
 * Elaborate @p c with its nth push-wake arming suppressed and return
 * the report the constructor throws (empty if it does not throw).
 */
lint::DiagnosticReport
elaborateWithMissingPushWake(const FuzzCase &c, u64 nth)
{
    const verify::FuzzPlatform platform(c.platform);
    lint::DiagnosticReport rep;
    plantMissingPushWake(nth);
    try {
        const AcceleratorSoc soc(verify::buildAcceleratorConfig(c),
                                 platform);
    } catch (const lint::CompositionError &e) {
        rep = e.report();
    }
    plantMissingPushWake(0);
    return rep;
}

TEST(SocAnalysis, PlantedMissingPushWakeIsCaughtStatically)
{
    // The bug --plant-lost-wake=N plants dynamically (a wake that
    // never arrives) is planted here at its root cause — an unarmed
    // push-wake — and must be flagged BEFORE a single cycle runs: the
    // constructor throws, so no simulation ever exists to step.
    const auto rep = elaborateWithMissingPushWake(memcpyCase(), 1);
    EXPECT_TRUE(rep.has("BTH100")) << rep.format();
    EXPECT_TRUE(rep.hasErrors());
}

TEST(SocAnalysis, PlantedMissingPushWakeFailsElaboration)
{
    // Existing catch (const ConfigError &) sites keep working: the
    // carried-report error is a ConfigError.
    plantMissingPushWake(1);
    const verify::FuzzPlatform platform(memcpyCase().platform);
    EXPECT_THROW(
        {
            const AcceleratorSoc soc(
                verify::buildAcceleratorConfig(memcpyCase()), platform);
        },
        ConfigError);
    plantMissingPushWake(0);
}

TEST(SocAnalysis, StaticAndDynamicCatchesPairUp)
{
    // The differential harness catches the planted lost wake at run
    // time; the checker catches the same bug class at build time.
    FuzzCase c = memcpyCase();
    verify::RandomTrafficGen traffic(99);
    traffic.generate(c, 1);
    c.plantLostWake = 7;
    verify::FuzzOptions opt;
    opt.differential = true;
    const verify::FuzzResult dynamic_catch = verify::runFuzzCase(c, opt);
    EXPECT_NE(dynamic_catch.kind, verify::FailKind::None);

    c.plantLostWake = 0;
    EXPECT_TRUE(elaborateWithMissingPushWake(c, 1).has("BTH100"));
}

} // namespace
} // namespace beethoven
