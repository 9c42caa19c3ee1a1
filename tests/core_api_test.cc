/**
 * @file
 * Tests for the AcceleratorCore API surface: accessor error messages,
 * response plumbing, command dispatch across multiple command IDs and
 * multiple systems sharing the fabric, and commands held back while a
 * launch port is full.
 */

#include <gtest/gtest.h>

#include "core/accelerator_core.h"
#include "core/soc.h"
#include "platform/sim_platform.h"
#include "runtime/fpga_handle.h"

namespace beethoven
{
namespace
{

/** A core that misuses an accessor in its constructor. */
class BadReaderCore : public AcceleratorCore
{
  public:
    explicit BadReaderCore(const CoreContext &ctx) : AcceleratorCore(ctx)
    {
        getReaderModule("does_not_exist");
    }
    void tick() override {}
};

TEST(CoreApi, MissingReaderNameIsActionable)
{
    SimulationPlatform platform;
    AcceleratorSystemConfig sys;
    sys.name = "Bad";
    sys.nCores = 1;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<BadReaderCore>(ctx);
    };
    try {
        AcceleratorSoc soc(AcceleratorConfig(sys), platform);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("does_not_exist"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("ReadChannelConfig"),
                  std::string::npos)
            << "error should point at the fix";
    }
}

/** Implements two commands with different IDs and payload shapes. */
class TwoCommandCore : public AcceleratorCore
{
  public:
    explicit TwoCommandCore(const CoreContext &ctx)
        : AcceleratorCore(ctx)
    {}

    void
    tick() override
    {
        if (_respond) {
            if (respond(_cmd, _value))
                _respond = false;
            return;
        }
        if (auto cmd = pollCommand()) {
            _cmd = *cmd;
            if (cmd->commandId == 0) {
                _value = cmd->args[0] + cmd->args[1];
            } else {
                // The wide command: three 64-bit fields (two beats).
                _value = cmd->args[0] ^ cmd->args[1] ^ cmd->args[2];
            }
            _respond = true;
        }
    }

  private:
    DecodedCommand _cmd;
    u64 _value = 0;
    bool _respond = false;
};

AcceleratorConfig
twoCommandConfig()
{
    AcceleratorSystemConfig sys;
    sys.name = "Two";
    sys.nCores = 2;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<TwoCommandCore>(ctx);
    };
    sys.commands.push_back(CommandSpec(
        "add", {CommandField::uint("a", 32), CommandField::uint("b", 32)},
        64));
    sys.commands.push_back(CommandSpec(
        "xor3",
        {CommandField::uint("x", 64), CommandField::uint("y", 64),
         CommandField::uint("z", 64)},
        64));
    return AcceleratorConfig(sys);
}

TEST(CoreApi, MultipleCommandIdsDispatchCorrectly)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(twoCommandConfig(), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    EXPECT_EQ(handle.invoke("Two", "add", 0, {40, 2}).get(), 42u);
    EXPECT_EQ(handle
                  .invoke("Two", "xor3", 0,
                          {0xFF00FF00FF00FF00ull,
                           0x0F0F0F0F0F0F0F0Full, 0x1ull})
                  .get(),
              (0xFF00FF00FF00FF00ull ^ 0x0F0F0F0F0F0F0F0Full ^ 1ull));
}

TEST(CoreApi, MultiBeatCommandsInterleaveAcrossCores)
{
    // Two cores each receive a two-beat command; beats are routed by
    // core ID through the shared fabric, so the assemblers must not
    // mix payloads.
    SimulationPlatform platform;
    AcceleratorSoc soc(twoCommandConfig(), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    auto h0 = handle.invoke("Two", "xor3", 0, {1, 2, 4});
    auto h1 = handle.invoke("Two", "xor3", 1, {8, 16, 32});
    EXPECT_EQ(h0.get(), 7u);
    EXPECT_EQ(h1.get(), 56u);
}

TEST(CoreApi, HeterogeneousSystemsShareTheFabric)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg = twoCommandConfig();
    AcceleratorSystemConfig second;
    second.name = "Echo";
    second.nCores = 1;
    struct EchoCore : AcceleratorCore
    {
        explicit EchoCore(const CoreContext &ctx)
            : AcceleratorCore(ctx)
        {}
        void
        tick() override
        {
            if (_respond) {
                if (respond(_cmd, _cmd.args[0]))
                    _respond = false;
                return;
            }
            if (auto cmd = pollCommand()) {
                _cmd = *cmd;
                _respond = true;
            }
        }
        DecodedCommand _cmd;
        bool _respond = false;
    };
    second.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<EchoCore>(ctx);
    };
    second.commands.push_back(
        CommandSpec("echo", {CommandField::uint("v", 48)}, 64));
    cfg.systems.push_back(std::move(second));

    AcceleratorSoc soc(std::move(cfg), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    auto a = handle.invoke("Two", "add", 1, {5, 6});
    auto b = handle.invoke("Echo", "echo", 0, {0xBEEF});
    EXPECT_EQ(b.get(), 0xBEEFu);
    EXPECT_EQ(a.get(), 11u);
}

TEST(CoreApi, ResponsesCarry64BitPayloads)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(twoCommandConfig(), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    const u64 big = 0xFFFFFFFF00000001ull;
    EXPECT_EQ(handle.invoke("Two", "xor3", 0, {big, 0, 0}).get(), big);
}

/**
 * A launch port the test holds full: pops only while open, recording
 * what it pops.
 */
struct LaunchGate : Module
{
    TimedQueue<u64> port;
    bool open = false;
    std::vector<u64> launched;

    explicit LaunchGate(Simulator &sim)
        : Module(sim, "gate"), port(sim, /*capacity=*/1)
    {}

    void
    tick() override
    {
        if (open && port.canPop())
            launched.push_back(port.pop());
    }
};

/** Launches each command's value into the gate, then responds. */
class GatedCore : public AcceleratorCore
{
  public:
    explicit GatedCore(const CoreContext &ctx)
        : AcceleratorCore(ctx), gate(*ctx.sim)
    {}

    void
    tick() override
    {
        if (_respond) {
            if (respond(_cmd, _cmd.args[0]))
                _respond = false;
            return;
        }
        auto cmd = acceptCommand(gate.port.canPush(), StallClass::Idle);
        if (!cmd)
            return;
        _cmd = *cmd;
        gate.port.push(cmd->args[0]);
        ++accepted;
        _respond = true;
    }

    LaunchGate gate;
    unsigned accepted = 0;

  private:
    DecodedCommand _cmd;
    bool _respond = false;
};

TEST(CoreApi, CommandWaitsForAFullLaunchPort)
{
    // A command that arrives while the core's launch port is full must
    // stay queued, not be popped and dropped, and run once the port
    // frees, under either kernel.
    for (const SimKernel kernel : {SimKernel::Tick, SimKernel::Event}) {
        SimulationPlatform platform;
        AcceleratorSystemConfig sys;
        sys.name = "Gated";
        sys.nCores = 1;
        sys.moduleConstructor = [](const CoreContext &ctx) {
            return std::make_unique<GatedCore>(ctx);
        };
        sys.commands.push_back(
            CommandSpec("go", {CommandField::uint("v", 32)}, 64));
        AcceleratorSoc soc(AcceleratorConfig(sys), platform);
        soc.sim().setKernel(kernel);
        RuntimeServer server(soc);
        fpga_handle_t handle(server);
        auto &core = dynamic_cast<GatedCore &>(soc.core("Gated", 0));

        // The first command fills the closed gate's only slot.
        EXPECT_EQ(handle.invoke("Gated", "go", 0, {1}).get(), 1u);
        auto second = handle.invoke("Gated", "go", 0, {2});
        soc.sim().run(2000);
        EXPECT_EQ(core.accepted, 1u) << simKernelName(kernel);
        EXPECT_FALSE(second.try_get().has_value());

        core.gate.open = true;
        EXPECT_EQ(second.get(), 2u) << simKernelName(kernel);
        EXPECT_EQ(core.accepted, 2u);
        soc.sim().run(10);
        EXPECT_EQ(core.gate.launched, (std::vector<u64>{1, 2}));
    }
}

} // namespace
} // namespace beethoven
