/**
 * @file
 * Base classes for the cycle-level simulation kernel.
 *
 * The kernel substitutes for RTL simulation of the elaborated Beethoven
 * SoC (the paper uses Verilator/VCS; see DESIGN.md). Hardware is
 * modeled as Modules connected by TimedQueues. Each simulated cycle has
 * two phases:
 *
 *   1. tick():   every module observes the *committed* state of its
 *                input queues and stages pushes onto its outputs;
 *   2. commit(): every queue publishes staged pushes and forgives the
 *                space freed by this cycle's pops.
 *
 * Because staged pushes and freed space only become visible at commit,
 * simulation results are independent of module tick order — the same
 * determinism a synchronous netlist provides.
 */

#ifndef BEETHOVEN_SIM_MODULE_H
#define BEETHOVEN_SIM_MODULE_H

#include <source_location>
#include <string>

#include "base/types.h"

namespace beethoven
{

class Simulator;
class StallAccount;
enum class StallClass : unsigned char;

class Module;

/** Anything with per-cycle end-of-cycle state publication. */
class Committable
{
  public:
    virtual ~Committable() = default;

    /** Publish state staged during this cycle's tick phase. */
    virtual void commit() = 0;
};

/**
 * A clocked hardware module.
 *
 * Construction registers the module with its Simulator; the owner
 * (normally the elaborated SoC) controls lifetime and must outlive the
 * Simulator's use of it.
 */
class Module
{
  public:
    Module(Simulator &sim, std::string name);
    virtual ~Module() = default;

    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    /** Evaluate one cycle of sequential behaviour. */
    virtual void tick() = 0;

    const std::string &name() const { return _name; }

    Simulator &sim() const { return _sim; }

    /** Registration order; also the tick order within a cycle. */
    std::size_t index() const { return _index; }

    /** False while quiescent under the event kernel. */
    bool awake() const { return _awake; }

  protected:
    /**
     * Declare quiescence: under the event kernel the module is not
     * ticked again until a wake arrives (a counterparty queue event,
     * requestWakeAt, or an external wakeNow). No-op under the tick
     * kernel. Call only when the next tick would provably change no
     * state — every input empty, every pending output event armed.
     */
    void requestSleep();

    /** Arm a self-wake at cycle @p at (e.g. DRAM refresh timing). */
    void requestWakeAt(Cycle at);

    /**
     * Sleep and tell @p acct to backfill the quiescent gap with
     * @p gap_class instead of Idle, so the published stall taxonomy is
     * bit-identical to the tick kernel's (which would have classified
     * every slept cycle as @p gap_class). No-op under the tick kernel.
     */
    void sleepWith(StallAccount &acct, StallClass gap_class);

    /**
     * Declare (in the simulator's graph record) that this module may
     * sleep. The static analyzer uses the declaration to demand a
     * reachable wake source (BTH100/BTH102, DESIGN.md §5c); the first
     * requestSleep/sleepWith asserts it was made, so declaration and
     * behaviour cannot skew. Call once from the constructor.
     */
    void declareSleepable(
        std::source_location loc = std::source_location::current());

    /**
     * Declare that this module self-arms wakes via requestWakeAt
     * (e.g. DRAM refresh). The analyzer pairs the declaration with a
     * sleep site (BTH103); requestWakeAt asserts it was made.
     */
    void declareSelfWake(
        std::source_location loc = std::source_location::current());

    /**
     * Name this module's structural role ("reader", "noc-mux", ...)
     * for the analyzer's census against the composition model
     * (BTH106). Undeclared modules keep the ignored default "module".
     */
    void declareRole(const char *role);

  private:
    friend class Simulator;

    Simulator &_sim;
    std::string _name;
    std::size_t _index = 0;
    bool _awake = true;
    /** Dedup guard: last wheel cycle a wake was armed for (0 = none). */
    Cycle _lastScheduledWake = 0;
    bool _sleepDeclared = false;
    bool _selfWakeDeclared = false;
};

} // namespace beethoven

#endif // BEETHOVEN_SIM_MODULE_H
