#include "sim/simulator.h"

#include <bit>
#include <iostream>

#include "base/log.h"
#include "perf/host_clock.h"
#include "perf/host_profiler.h"
#include "power/power.h"
#include "trace/stall.h"
#include "trace/trace.h"

namespace beethoven
{

namespace
{

// Process-wide KPI counters (see globalSimCycles in simulator.h).
u64 g_simCycles = 0;
u64 g_moduleTicks = 0;

} // namespace

u64
globalSimCycles()
{
    return g_simCycles;
}

u64
globalModuleTicks()
{
    return g_moduleTicks;
}

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

Module::Module(Simulator &sim, std::string name)
    : _sim(sim), _name(std::move(name))
{
    sim.registerModule(this);
}

void
Module::requestSleep()
{
    beethoven_assert(_sleepDeclared,
                     "requestSleep without declareSleepable(): the static "
                     "analyzer cannot see this sleep site");
    if (_sim.eventKernel())
        _sim.sleepModule(this);
}

void
Module::requestWakeAt(Cycle at)
{
    beethoven_assert(_selfWakeDeclared,
                     "requestWakeAt without declareSelfWake(): the static "
                     "analyzer cannot see this self-arm site");
    _sim.wakeAt(this, at);
}

void
Module::sleepWith(StallAccount &acct, StallClass gap_class)
{
    beethoven_assert(_sleepDeclared,
                     "sleepWith without declareSleepable(): the static "
                     "analyzer cannot see this sleep site");
    if (!_sim.eventKernel())
        return;
    acct.setGapClass(gap_class);
    _sim.sleepModule(this);
}

void
Module::declareSleepable(std::source_location loc)
{
    _sleepDeclared = true;
    _sim.graphRecord().setSleepable(this, loc);
}

void
Module::declareSelfWake(std::source_location loc)
{
    _selfWakeDeclared = true;
    _sim.graphRecord().setSelfWake(this, loc);
}

void
Module::declareTraceWake()
{
    _sim.addTraceWake(this);
    _sim.graphRecord().setTraceWake(this);
}

bool
Module::awake() const
{
    return _sim.isAwake(_index);
}

void
Module::declareRole(const char *role)
{
    _sim.graphRecord().setRole(this, role);
}

const char *
simKernelName(SimKernel k)
{
    switch (k) {
    case SimKernel::Event:
        return "event";
    case SimKernel::Tick:
        break;
    }
    return "tick";
}

void
Simulator::setKernel(SimKernel k)
{
    _kernel = k;
    // Conservative start: everything awake. Under the event kernel
    // quiescence re-forms as modules discover they have nothing to do;
    // under the tick kernel sleep requests are ignored, so every module
    // stays awake and ticks every cycle. Stale wheel entries from an
    // earlier event phase only cause spurious wakes.
    for (std::size_t i = 0; i < _modules.size(); ++i)
        markAwake(i);
    _dirtyCommits.clear();
}

void
Simulator::attachTrace(TraceSink *sink)
{
    _trace = sink;
    if (sink != nullptr) {
        for (Module *m : _traceWakes)
            wakeNow(m);
    }
}

void
Simulator::wakeNow(Module *m)
{
    if (_kernel == SimKernel::Tick || isAwake(m->_index))
        return;
    if (_inTickPhase && m->_index <= _cursor) {
        // The module already ticked this cycle (or is mid-tick): the
        // earliest it could observe the event under the tick kernel is
        // next cycle, so defer the wake to the wheel.
        scheduleWake(m, _cycle + 1);
    } else {
        markAwake(m->_index);
    }
}

void
Simulator::wakeAt(Module *m, Cycle at)
{
    if (_kernel == SimKernel::Tick)
        return;
    if (at <= _cycle) {
        wakeNow(m);
        return;
    }
    scheduleWake(m, at);
}

void
Simulator::scheduleWake(Module *m, Cycle at)
{
    if (m->_lastScheduledWake == at)
        return; // a wheel entry for this cycle is already armed
    m->_lastScheduledWake = at;
    ++_scheduledWakes;
    if (_plantLostWakePeriod != 0 &&
        _scheduledWakes % _plantLostWakePeriod == 0) {
        return; // planted fault: this wake is silently lost
    }
    _wheel.schedule(_cycle, at, m);
}

std::size_t
Simulator::activeModules() const
{
    std::size_t n = 0;
    for (const u64 word : _awakeBits)
        n += static_cast<std::size_t>(std::popcount(word));
    return n;
}

// Cache-line aligned: where the awake-module loop below fell against a
// 64-byte line once moved the perfbench nw_dispatch input-DMA time by
// ~14% (Release, 4-vCPU Xeon) whenever unrelated code linked ahead of
// it grew or shrank.
template <bool Timed>
__attribute__((aligned(64))) void
Simulator::stepPhases()
{
    // One clock read per awake module: each tick is the interval
    // between consecutive reads, so per-component times are disjoint
    // slices of the measured total and their sum cannot exceed it.
    // The wheel drain lands in the total but in no component.
    [[maybe_unused]] u64 t_start = 0, t_prev = 0;
    if constexpr (Timed) {
        // Modules registered since attach (or since last growth) get
        // their component ids on first measured cycle.
        for (std::size_t i = _profIds.size(); i < _modules.size(); ++i)
            _profIds.push_back(_hostProf->componentId(_modules[i]->name()));
        t_start = hostNowNs();
    }
    const bool event = _kernel == SimKernel::Event;
    if (event)
        _wheel.drain(_cycle, [this](Module *m) { markAwake(m->_index); });
    if constexpr (Timed)
        t_prev = hostNowNs();
    _inTickPhase = true;
    u64 ticks = 0;
    // Walk the awake bitmap in index order. A tick may wake a later
    // module in place (wakeNow) or put one to sleep, so after each tick
    // the rest of the current word is re-read above the cursor; later
    // words are read when the walk reaches them.
    for (std::size_t w = 0; w < _awakeBits.size(); ++w) {
        u64 bits = _awakeBits[w];
        while (bits != 0) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            const std::size_t i = w * 64 + b;
            _cursor = i;
            _modules[i]->tick();
            ++ticks;
            if constexpr (Timed) {
                const u64 t_now = hostNowNs();
                _hostProf->add(_profIds[i], t_now - t_prev);
                t_prev = t_now;
            }
            bits = _awakeBits[w] & ~(~u64(0) >> (63 - b));
        }
    }
    _inTickPhase = false;
    // The event kernel commits only queues that staged a push or pop
    // this cycle (a clean TimedQueue commit is a no-op by
    // construction); the tick kernel commits everything.
    for (Committable *c : event ? _dirtyCommits : _commits)
        c->commit();
    _dirtyCommits.clear();
    g_moduleTicks += ticks;
    if constexpr (Timed) {
        const u64 t_end = hostNowNs();
        _hostProf->add(_hostProf->commitComponentId(), t_end - t_prev);
        _hostProf->addTotal(t_end - t_start);
        if (_trace != nullptr)
            _hostProf->emitCountersMaybe(*_trace, _cycle);
    }
}

void
Simulator::step()
{
    if (_hostProf != nullptr && _hostProf->onCycle())
        stepPhases<true>();
    else
        stepPhases<false>();
    ++_cycle;
    ++g_simCycles;
    if (_powerMeter != nullptr)
        _powerMeter->onCycle(*this);
    if (_trace != nullptr && !_stallAccounts.empty() &&
        _cycle % kStallEmitPeriod == 0) {
        for (StallAccount *a : _stallAccounts)
            a->emitCounters(*_trace, _cycle);
    }
    if (!_invariants.empty() && _cycle % kInvariantPeriod == 0)
        checkInvariants();
    if (_watchdogLimit != 0 && _cycle - _lastProgress > _watchdogLimit) {
        dumpHangDiagnostics(std::cerr);
        fatal("simulation hang: no module made forward progress for "
              "%llu cycles (at cycle %llu)",
              static_cast<unsigned long long>(_cycle - _lastProgress),
              static_cast<unsigned long long>(_cycle));
    }
}

void
Simulator::run(Cycle n)
{
    for (Cycle i = 0; i < n; ++i)
        step();
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles)
{
    for (Cycle i = 0; i < max_cycles; ++i) {
        if (done())
            return true;
        step();
    }
    return done();
}

void
Simulator::publishStallStats()
{
    // Fold distributed counters (per-NoC-node flit locals, ...) into
    // their scalars before anything reads the stats tree.
    for (const auto &fn : _statFolders)
        fn();
    _stats.scalar("cycles").set(static_cast<double>(_cycle));
    for (StallAccount *a : _stallAccounts)
        a->publish(_stats.group(a->name()), _cycle);
}

void
Simulator::dumpHangDiagnostics(std::ostream &os) const
{
    os << "=== hang diagnostics: cycle "
       << static_cast<unsigned long long>(_cycle) << ", last progress at "
       << static_cast<unsigned long long>(_lastProgress) << " ===\n";
    if (!_stallAccounts.empty())
        os << "per-module stall state:\n";
    for (const StallAccount *a : _stallAccounts)
        a->dumpState(os, _cycle);
    for (const auto &fn : _hangDumpers)
        fn(os);
    os.flush();
}

} // namespace beethoven
