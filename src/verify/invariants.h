/**
 * @file
 * Always-on live correctness invariants for an elaborated SoC.
 *
 * PR-1/2 gave the framework eyes (traces, stall accounts, the hang
 * watchdog); this layer gives it teeth. SocInvariants attaches to an
 * AcceleratorSoc and checks, while the simulation runs:
 *
 *  - AXI protocol legality at the DRAM port (AxiProtocolChecker, the
 *    checker behind checkAxiProtocol: per-ID ordering, burst beat
 *    counts, last flags, B-after-W);
 *  - no AXI-ID leaks: every bus ID stays inside the ID-space the
 *    elaborator allocated to read/write endpoints;
 *  - one-response-per-command accounting at the MMIO front-end
 *    (responses never outrun xd-flagged command beats);
 *  - NoC flit conservation: command/response beats buffered in the
 *    fabric never exceed what has been injected and not yet drained;
 *  - final quiescence (checkFinal): no outstanding AXI transactions,
 *    empty NoC trees, and every expected response delivered.
 *
 * On violation it dumps stall/in-flight diagnostics via the watchdog
 * dumpers and throws ConfigError with cycle context.
 */

#ifndef BEETHOVEN_VERIFY_INVARIANTS_H
#define BEETHOVEN_VERIFY_INVARIANTS_H

#include <map>
#include <string>

#include "axi/timeline.h"
#include "base/types.h"
#include "sim/simulator.h"

namespace beethoven
{

class AcceleratorSoc;
struct RoccCommand;
struct RoccResponse;

/**
 * The composite live invariant for one SoC. Construction subscribes
 * to the DRAM timeline and the MMIO command/response hooks and
 * registers with the SoC's Simulator; destruction detaches cleanly.
 */
class SocInvariants : public Invariant
{
  public:
    explicit SocInvariants(AcceleratorSoc &soc);
    ~SocInvariants() override;

    SocInvariants(const SocInvariants &) = delete;
    SocInvariants &operator=(const SocInvariants &) = delete;

    // Invariant interface: periodic cross-checks (response ledger
    // consistency, NoC occupancy sanity).
    void check(Cycle cycle) override;
    const char *invariantName() const override { return "soc-invariants"; }

    /**
     * End-of-workload quiescence check. Call after every response has
     * been collected: asserts no outstanding AXI transactions, empty
     * NoC fabric trees, and a balanced command/response ledger.
     */
    void checkFinal();

    u64 commandsSeen() const { return _cmdBeatsSeen; }
    u64 expectedResponses() const { return _xdSeen; }
    u64 responsesSeen() const { return _respsSeen; }
    u64 axiEventsSeen() const { return _axi.eventsSeen(); }

    /**
     * Test-only hook: inject a synthetic AXI event into the live
     * checker as if the DRAM controller had recorded it. Used by the
     * fuzz harness's planted-violation fixture to prove the
     * catch/shrink/replay loop works end to end.
     */
    void injectAxiEvent(const AxiEvent &e) { onAxiEvent(e); }

  private:
    void onAxiEvent(const AxiEvent &e);
    void onCommand(const RoccCommand &cmd);
    void onResponse(const RoccResponse &resp);

    /** Dump diagnostics and throw ConfigError with cycle context. */
    [[noreturn]] void violation(const std::string &what);

    AcceleratorSoc &_soc;
    AxiProtocolChecker _axi;
    std::size_t _timelineToken = 0;

    /**
     * Response ledger: per routing key (systemId<<16 | coreId<<5 | rd),
     * xd-flagged command beats seen minus responses seen. A negative
     * balance means a response arrived that no command asked for.
     */
    std::map<u64, i64> _ledger;
    u64 _cmdBeatsSeen = 0;
    u64 _xdSeen = 0;
    u64 _respsSeen = 0;
};

} // namespace beethoven

#endif // BEETHOVEN_VERIFY_INVARIANTS_H
