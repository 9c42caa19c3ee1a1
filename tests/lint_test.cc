/**
 * @file
 * Tests for the composition checker's composition layers (src/lint/,
 * BTH0xx): the diagnostic registry and rule table, one positive and
 * one negative case per diagnostic code, all-findings-at-once
 * collection, and the report AcceleratorSoc elaboration throws.
 */

#include <gtest/gtest.h>

#include <set>

#include "accel/vecadd.h"
#include "core/elab_params.h"
#include "core/soc.h"
#include "lint/lint.h"
#include "platform/sim_platform.h"

namespace beethoven
{
namespace
{

using lint::DiagnosticReport;
using lint::Severity;

/** SimulationPlatform with every lint-relevant knob overridable. */
class LintTestPlatform : public SimulationPlatform
{
  public:
    unsigned nSlrs = 1;
    unsigned hostSlrIdx = 0;
    unsigned memorySlrIdx = 0;
    NocParams noc;
    unsigned idBits = 8;
    double derate = 1.0;

    std::string name() const override { return "LintTest"; }

    AxiConfig
    memoryConfig() const override
    {
        AxiConfig cfg = SimulationPlatform::memoryConfig();
        cfg.idBits = idBits;
        return cfg;
    }

    std::vector<SlrDescriptor>
    slrs() const override
    {
        const SlrDescriptor proto = SimulationPlatform::slrs().at(0);
        std::vector<SlrDescriptor> out;
        for (unsigned i = 0; i < nSlrs; ++i) {
            SlrDescriptor s = proto;
            s.name = "SLR" + std::to_string(i);
            s.hasHostInterface = i == hostSlrIdx;
            s.hasMemoryInterface = i == memorySlrIdx;
            out.push_back(s);
        }
        return out;
    }

    unsigned hostSlr() const override { return hostSlrIdx; }
    unsigned memorySlr() const override { return memorySlrIdx; }
    NocParams nocParams() const override { return noc; }
    double memoryCongestionDerate() const override { return derate; }
};

AcceleratorConfig
baseConfig(unsigned n_cores = 1)
{
    auto sys = VecAddCore::systemConfig(n_cores);
    sys.name = "Base";
    return AcceleratorConfig(sys);
}

DiagnosticReport
lintWith(const AcceleratorConfig &cfg,
         const Platform &platform = LintTestPlatform())
{
    const auto model = lint::buildCompositionModel(cfg, platform);
    return lint::runRules(&model);
}

// --- registry ---------------------------------------------------------

TEST(LintRegistry, CoversAllLayersWithStableUniqueCodes)
{
    const auto &reg = lint::diagnosticRegistry();
    EXPECT_GE(reg.size(), 12u);
    std::set<std::string> codes, layers;
    for (const auto &info : reg) {
        EXPECT_TRUE(codes.insert(info.code).second)
            << "duplicate code " << info.code;
        layers.insert(info.layer);
        EXPECT_EQ(std::string(info.code).rfind("BTH", 0), 0u)
            << info.code;
    }
    const std::set<std::string> expect_layers = {
        "config", "memory", "axi", "noc", "placement",
        // The elaborated simulation graph (BTH1xx).
        "graph"};
    EXPECT_EQ(layers, expect_layers);
    EXPECT_NE(lint::findDiagnosticCode("BTH001"), nullptr);
    EXPECT_EQ(lint::findDiagnosticCode("BTH999"), nullptr);
}

TEST(LintRegistry, RuleTablesSpanEveryLayer)
{
    // One rule table: every layer the registry documents has rules.
    std::set<std::string> rule_layers, registry_layers;
    for (const auto &rule : lint::lintRules())
        rule_layers.insert(rule.layer);
    for (const auto &info : lint::diagnosticRegistry())
        registry_layers.insert(info.layer);
    EXPECT_EQ(rule_layers, registry_layers);
}

TEST(LintRegistry, EveryGraphCodeIsRegisteredWithStableLayer)
{
    for (const char *code :
         {"BTH100", "BTH101", "BTH102", "BTH103", "BTH104", "BTH105",
          "BTH106"}) {
        const auto *info = lint::findDiagnosticCode(code);
        ASSERT_NE(info, nullptr) << code;
        EXPECT_EQ(std::string(info->layer), "graph") << code;
    }
    // The retired shard-layer codes stay unallocated.
    for (const char *code : {"BTH110", "BTH111", "BTH112", "BTH113"})
        EXPECT_EQ(lint::findDiagnosticCode(code), nullptr) << code;
}

TEST(LintRegistry, ReportStampsSeverityFromRegistry)
{
    DiagnosticReport rep;
    rep.add("BTH004", "p", "m");
    rep.add("BTH032", "p", "m");
    ASSERT_EQ(rep.diagnostics().size(), 2u);
    EXPECT_EQ(rep.diagnostics()[0].severity, Severity::Error);
    EXPECT_EQ(rep.diagnostics()[1].severity, Severity::Warning);
    EXPECT_EQ(rep.errorCount(), 1u);
    EXPECT_EQ(rep.warningCount(), 1u);
    EXPECT_TRUE(rep.hasErrors());
}

// --- baseline ---------------------------------------------------------

TEST(Lint, CleanConfigHasNoFindings)
{
    const DiagnosticReport rep = lintWith(baseConfig());
    EXPECT_TRUE(rep.empty()) << rep.format();
}

// --- config layer: BTH001-BTH012 --------------------------------------

TEST(LintConfig, Bth001NoSystems)
{
    AcceleratorConfig cfg;
    EXPECT_TRUE(lintWith(cfg).has("BTH001"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH001"));
}

TEST(LintConfig, Bth002EmptySystemName)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].name = "";
    EXPECT_TRUE(lintWith(cfg).has("BTH002"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH002"));
}

TEST(LintConfig, Bth003DuplicateSystemName)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems.push_back(cfg.systems[0]);
    EXPECT_TRUE(lintWith(cfg).has("BTH003"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH003"));
}

TEST(LintConfig, Bth004ZeroCores)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].nCores = 0;
    EXPECT_TRUE(lintWith(cfg).has("BTH004"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH004"));
}

TEST(LintConfig, Bth005RoccRoutingOverflow)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].nCores = 2000; // > 1024-core routing space
    EXPECT_TRUE(lintWith(cfg).has("BTH005"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH005"));
}

TEST(LintConfig, Bth006MissingConstructor)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].moduleConstructor = nullptr;
    EXPECT_TRUE(lintWith(cfg).has("BTH006"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH006"));
}

TEST(LintConfig, Bth007ZeroChannels)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].nChannels = 0;
    EXPECT_TRUE(lintWith(cfg).has("BTH007"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH007"));
}

TEST(LintConfig, Bth008DuplicateChannelName)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels.push_back(
        cfg.systems[0].readChannels[0]);
    EXPECT_TRUE(lintWith(cfg).has("BTH008"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH008"));
}

TEST(LintConfig, Bth009DuplicateMemoryName)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].scratchpads.push_back({"sp", 32, 64, 1, 1, false});
    cfg.systems[0].scratchpads.push_back({"sp", 32, 64, 1, 1, false});
    EXPECT_TRUE(lintWith(cfg).has("BTH009"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH009"));
}

TEST(LintConfig, Bth010DanglingIntraPort)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].intraMemoryOuts.push_back(
        {"out", "NoSuchSystem", "nope", 1});
    EXPECT_TRUE(lintWith(cfg).has("BTH010"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH010"));
}

TEST(LintConfig, Bth011PointToPointCoreMismatch)
{
    AcceleratorConfig cfg = baseConfig(2);
    auto consumer = VecAddCore::systemConfig(3);
    consumer.name = "Consumer";
    IntraCoreMemoryPortInConfig pin;
    pin.name = "inbox";
    pin.commDeg = CommunicationDegree::PointToPoint;
    consumer.intraMemoryIns.push_back(pin);
    cfg.systems.push_back(consumer);
    cfg.systems[0].intraMemoryOuts.push_back(
        {"out", "Consumer", "inbox", 1});

    EXPECT_TRUE(lintWith(cfg).has("BTH011"));

    // Matching core counts are fine.
    cfg.systems[1].nCores = 2;
    EXPECT_FALSE(lintWith(cfg).has("BTH011"));
}

TEST(LintConfig, Bth012BindingCollision)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].commands.push_back(cfg.systems[0].commands[0]);
    EXPECT_TRUE(lintWith(cfg).has("BTH012"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH012"));

    // A command name that is not a valid C++ identifier also breaks
    // the generated bindings.
    AcceleratorConfig bad = baseConfig();
    bad.systems[0].commands[0] =
        CommandSpec("9lives", {CommandField::uint("x", 8)});
    EXPECT_TRUE(lintWith(bad).has("BTH012"));
}

TEST(Lint, Bth013UncalibratedPowerModel)
{
    // A platform that leaves Platform::powerModel() at the base-class
    // default elaborates with generic power coefficients: warn, never
    // block.
    class UncalibratedPlatform : public LintTestPlatform
    {
      public:
        PowerModel powerModel() const override { return PowerModel{}; }
    };
    const DiagnosticReport rep =
        lintWith(baseConfig(), UncalibratedPlatform());
    EXPECT_TRUE(rep.has("BTH013"));
    EXPECT_FALSE(rep.hasErrors()) << rep.format();
    EXPECT_EQ(rep.warningCount(), 1u);

    // Every calibrated platform (including the test/fuzz simulation
    // platform) stays BTH013-free.
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH013"));
}

// --- memory layer: BTH020-BTH023 ---------------------------------------

TEST(LintMemory, Bth020NonConvertibleWidth)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].dataBytes = 24; // 64 % 24 != 0
    EXPECT_TRUE(lintWith(cfg).has("BTH020"));

    // Wide-over-narrow with an integral ratio is legal (the fabric
    // packs/splits beats), as is narrow-over-wide.
    AcceleratorConfig wide = baseConfig();
    wide.systems[0].readChannels[0].dataBytes = 128;
    EXPECT_FALSE(lintWith(wide).has("BTH020"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH020"));
}

TEST(LintMemory, Bth021ZeroSizedMemory)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].scratchpads.push_back({"sp", 32, 0, 1, 1, false});
    EXPECT_TRUE(lintWith(cfg).has("BTH021"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH021"));
}

TEST(LintMemory, Bth022ScratchpadOverCapacity)
{
    AcceleratorConfig cfg = baseConfig();
    // ~2 Gbit in one core: no SLR (8000 BRAM / 4000 URAM) can hold it
    // in either cell family.
    cfg.systems[0].scratchpads.push_back(
        {"huge", 1024, 1u << 21, 1, 1, false});
    EXPECT_TRUE(lintWith(cfg).has("BTH022"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH022"));

    // A modest scratchpad is clean.
    AcceleratorConfig small = baseConfig();
    small.systems[0].scratchpads.push_back(
        {"small", 32, 1024, 1, 1, false});
    EXPECT_FALSE(lintWith(small).has("BTH022"));
}

TEST(LintMemory, Bth023BurstBeyondBusLimit)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].burstBeats = 128; // bus limit 64
    EXPECT_TRUE(lintWith(cfg).has("BTH023"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH023"));
}

// --- axi layer: BTH030-BTH032 ------------------------------------------

TEST(LintAxi, Bth030IdExhaustion)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].maxInflight = 300; // > 256 IDs
    const DiagnosticReport rep = lintWith(cfg);
    EXPECT_TRUE(rep.has("BTH030"));
    // The message stays actionable ("AXI IDs" is the grep handle the
    // existing soc tests rely on).
    EXPECT_NE(rep.format().find("AXI IDs"), std::string::npos);
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH030"));
}

TEST(LintAxi, Bth030ExactFitIsClean)
{
    // 64 TLP readers x 4 IDs == the full 256-ID space: legal.
    AcceleratorConfig cfg = baseConfig(64);
    EXPECT_FALSE(lintWith(cfg).has("BTH030"));
    // One more endpoint tips it over.
    AcceleratorConfig over = baseConfig(65);
    EXPECT_TRUE(lintWith(over).has("BTH030"));
}

TEST(LintAxi, Bth031ControllerOversubscription)
{
    // 25 cores x (4 read + 4 write) in-flight = 200 > 8 x 16 banks.
    AcceleratorConfig cfg = baseConfig(25);
    const DiagnosticReport rep = lintWith(cfg);
    EXPECT_TRUE(rep.has("BTH031"));
    EXPECT_EQ(rep.errorCount(), 0u) << rep.format();
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH031"));
}

TEST(LintAxi, Bth032InflightWithoutTlp)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].useTlp = false;
    cfg.systems[0].readChannels[0].maxInflight = 4;
    const DiagnosticReport rep = lintWith(cfg);
    EXPECT_TRUE(rep.has("BTH032"));
    EXPECT_EQ(rep.errorCount(), 0u);

    // Non-TLP with a single transaction in flight is the intended
    // low-cost configuration.
    AcceleratorConfig ok = baseConfig();
    ok.systems[0].readChannels[0].useTlp = false;
    ok.systems[0].readChannels[0].maxInflight = 1;
    EXPECT_FALSE(lintWith(ok).has("BTH032"));
}

// --- noc layer: BTH040-BTH042 ------------------------------------------

TEST(LintNoc, Bth040RootSlrOutOfRange)
{
    LintTestPlatform p;
    p.nSlrs = 1;
    p.hostSlrIdx = 5;
    EXPECT_TRUE(lintWith(baseConfig(), p).has("BTH040"));

    LintTestPlatform mem_oob;
    mem_oob.memorySlrIdx = 3;
    EXPECT_TRUE(lintWith(baseConfig(), mem_oob).has("BTH040"));

    LintTestPlatform dead;
    dead.noc.queueDepth = 0;
    EXPECT_TRUE(lintWith(baseConfig(), dead).has("BTH040"));

    EXPECT_FALSE(lintWith(baseConfig()).has("BTH040"));
}

TEST(LintNoc, Bth041UnderBufferedCrossing)
{
    LintTestPlatform p;
    p.nSlrs = 2;
    p.noc.queueDepth = 2;
    p.noc.slrCrossingLatency = 4;
    const DiagnosticReport rep = lintWith(baseConfig(), p);
    EXPECT_TRUE(rep.has("BTH041"));
    EXPECT_EQ(rep.errorCount(), 0u);

    // Deep-enough queues, or a single-SLR device, are clean.
    LintTestPlatform deep = p;
    deep.noc.queueDepth = 4;
    EXPECT_FALSE(lintWith(baseConfig(), deep).has("BTH041"));
    LintTestPlatform single;
    single.noc.queueDepth = 2;
    single.noc.slrCrossingLatency = 4;
    EXPECT_FALSE(lintWith(baseConfig(), single).has("BTH041"));
}

TEST(LintNoc, Bth042RootLinkOversubscription)
{
    // 64 cores x 8 B/cycle of stream demand = 512 > 4 x 64-byte root.
    AcceleratorConfig cfg = baseConfig(64);
    const DiagnosticReport rep = lintWith(cfg);
    EXPECT_TRUE(rep.has("BTH042"));
    EXPECT_EQ(rep.errorCount(), 0u) << rep.format();
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH042"));
}

// --- placement layer: BTH050-BTH051 ------------------------------------

TEST(LintPlacement, Bth050CoreFitsNoSlr)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].kernelResources.lut = 5e6; // SLR holds 3.2M
    const DiagnosticReport rep = lintWith(cfg);
    EXPECT_TRUE(rep.has("BTH050"));
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH050"));
}

TEST(LintPlacement, Bth051AggregateOverDevice)
{
    // Each core fits comfortably; eighty of them cannot.
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].nCores = 80;
    cfg.systems[0].kernelResources.lut = 50000;
    const DiagnosticReport rep = lintWith(cfg);
    EXPECT_TRUE(rep.has("BTH051"));
    EXPECT_FALSE(rep.has("BTH050")) << rep.format();
    // The worst offender is named.
    EXPECT_NE(rep.format().find("worst offender"), std::string::npos);
    EXPECT_FALSE(lintWith(baseConfig()).has("BTH051"));
}

// --- collection semantics ----------------------------------------------

TEST(Lint, CollectsFindingsAcrossAllLayersAtOnce)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].dataBytes = 24;   // BTH020
    cfg.systems[0].readChannels[0].burstBeats = 128; // BTH023
    auto bad = VecAddCore::systemConfig(0);          // BTH004
    bad.name = "Base";                               // BTH003
    cfg.systems.push_back(bad);

    const DiagnosticReport rep = lintWith(cfg);
    for (const char *code : {"BTH003", "BTH004", "BTH020", "BTH023"})
        EXPECT_TRUE(rep.has(code)) << code << "\n" << rep.format();
    EXPECT_GE(rep.errorCount(), 4u);
}

TEST(Lint, ElaborationReportsEveryViolationBeforeFailing)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].dataBytes = 24; // BTH020
    auto bad = VecAddCore::systemConfig(0);        // BTH004
    bad.name = "Base";                             // BTH003
    cfg.systems.push_back(bad);

    SimulationPlatform platform;
    try {
        AcceleratorSoc soc(cfg, platform);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        for (const char *code : {"BTH003", "BTH004", "BTH020"}) {
            EXPECT_NE(what.find(code), std::string::npos)
                << "missing " << code << " in:\n" << what;
        }
    }
}

TEST(Lint, ElaborationErrorCarriesTheFullReport)
{
    // The defects of tools/testdata/lint_violation.json: a channel
    // width and burst the bus cannot take, plus a duplicate-named
    // system with zero cores and no constructor.
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].dataBytes = 24;   // BTH020
    cfg.systems[0].readChannels[0].burstBeats = 200; // BTH023
    auto bad = VecAddCore::systemConfig(0);          // BTH004
    bad.name = "Base";                               // BTH003
    bad.moduleConstructor = nullptr;                 // BTH006
    cfg.systems.push_back(bad);

    SimulationPlatform platform;
    try {
        AcceleratorSoc soc(cfg, platform);
        FAIL() << "expected CompositionError";
    } catch (const lint::CompositionError &e) {
        const DiagnosticReport &rep = e.report();
        for (const char *code :
             {"BTH003", "BTH004", "BTH006", "BTH020", "BTH023"})
            EXPECT_TRUE(rep.has(code)) << code << "\n" << rep.format();
        EXPECT_EQ(rep.errorCount(), lintWith(cfg, platform).errorCount());
    }
}

TEST(Lint, WarningsAloneDoNotBlockElaboration)
{
    AcceleratorConfig cfg = baseConfig();
    cfg.systems[0].readChannels[0].useTlp = false;
    cfg.systems[0].readChannels[0].maxInflight = 4; // BTH032 warning
    ASSERT_TRUE(lintWith(cfg).has("BTH032"));
    SimulationPlatform platform;
    const AcceleratorSoc soc(cfg, platform);
    EXPECT_TRUE(soc.diagnostics().has("BTH032"))
        << soc.diagnostics().format();
}

TEST(Lint, JsonReportIsWellFormedEnoughToGrep)
{
    AcceleratorConfig cfg;
    const std::string json = lintWith(cfg).toJson();
    EXPECT_NE(json.find("\"diagnostics\""), std::string::npos);
    EXPECT_NE(json.find("\"BTH001\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
}

// --- shared parameter resolution ----------------------------------------

TEST(Lint, LinterAndElaborationShareKnobResolution)
{
    // The linter reasons over the same resolved parameters elaboration
    // uses; a zero-valued knob means "platform default" in both.
    SimulationPlatform platform;
    ReadChannelConfig rc;
    rc.dataBytes = 8;
    rc.burstBeats = 0;
    rc.maxInflight = 0;
    const ReaderParams p = resolveReaderParams(rc, platform);
    EXPECT_EQ(p.burstBeats, platform.defaultBurstBeats());
    EXPECT_EQ(p.maxInflight, platform.defaultMaxInflight());

    const AcceleratorConfig cfg = baseConfig();
    const auto model =
        lint::buildCompositionModel(cfg, platform);
    ASSERT_EQ(model.systemCoreLogic.size(), 1u);
    const AcceleratorSoc soc(cfg, platform);
    const ResourceVec via_soc = soc.coreLogicResources("Base");
    const ResourceVec &via_lint = model.systemCoreLogic[0];
    EXPECT_DOUBLE_EQ(via_soc.lut, via_lint.lut);
    EXPECT_DOUBLE_EQ(via_soc.ff, via_lint.ff);
    EXPECT_DOUBLE_EQ(via_soc.clb, via_lint.clb);
}

} // namespace
} // namespace beethoven
