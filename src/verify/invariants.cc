#include "verify/invariants.h"

#include <iostream>
#include <sstream>

#include "base/log.h"
#include "cmd/rocc.h"
#include "core/soc.h"

namespace beethoven
{

namespace
{

u64
routingKey(u32 system_id, u32 core_id, u32 rd)
{
    return (u64(system_id) << 16) | (u64(core_id) << 5) | rd;
}

} // namespace

// --- SocInvariants ----------------------------------------------------

SocInvariants::SocInvariants(AcceleratorSoc &soc) : _soc(soc)
{
    _axi.setIdBounds(soc.readIdsInUse(), soc.writeIdsInUse());
    _timelineToken = soc.dram().timeline().addObserver(
        [this](const AxiEvent &e) { onAxiEvent(e); });
    soc.mmio().onCommand(
        [this](const RoccCommand &cmd) { onCommand(cmd); });
    soc.mmio().onResponse(
        [this](const RoccResponse &resp) { onResponse(resp); });
    soc.sim().registerInvariant(this);
}

SocInvariants::~SocInvariants()
{
    _soc.dram().timeline().removeObserver(_timelineToken);
    _soc.mmio().onCommand(nullptr);
    _soc.mmio().onResponse(nullptr);
    _soc.sim().unregisterInvariant(this);
}

void
SocInvariants::violation(const std::string &what)
{
    const Cycle cycle = _soc.sim().cycle();
    std::cerr << "=== invariant violation at cycle "
              << static_cast<unsigned long long>(cycle) << ": " << what
              << " ===\n";
    _soc.sim().dumpHangDiagnostics(std::cerr);
    fatal("invariant violation at cycle %llu: %s",
          static_cast<unsigned long long>(cycle), what.c_str());
}

void
SocInvariants::onAxiEvent(const AxiEvent &e)
{
    const std::string err = _axi.observe(e);
    if (!err.empty())
        violation("AXI protocol: " + err);
}

void
SocInvariants::onCommand(const RoccCommand &cmd)
{
    ++_cmdBeatsSeen;
    if (!cmd.xd())
        return;
    ++_xdSeen;
    ++_ledger[routingKey(cmd.systemId(), cmd.coreId(), cmd.rd())];
}

void
SocInvariants::onResponse(const RoccResponse &resp)
{
    ++_respsSeen;
    const u64 key = routingKey(resp.systemId, resp.coreId, resp.rd);
    auto it = _ledger.find(key);
    if (it == _ledger.end() || it->second <= 0) {
        std::ostringstream what;
        what << "response for system " << resp.systemId << " core "
             << resp.coreId << " rd " << resp.rd
             << " with no matching xd command beat";
        violation(what.str());
    }
    if (--it->second == 0)
        _ledger.erase(it);
}

void
SocInvariants::check(Cycle)
{
    // Event-time hooks enforce the per-event rules; this periodic pass
    // cross-checks the cumulative ledgers for drift.
    if (_respsSeen > _xdSeen) {
        std::ostringstream what;
        what << "response count " << _respsSeen
             << " exceeds xd command beats " << _xdSeen;
        violation(what.str());
    }
    for (const auto &[key, balance] : _ledger) {
        if (balance < 0) {
            std::ostringstream what;
            what << "negative response balance " << balance
                 << " for routing key 0x" << std::hex << key;
            violation(what.str());
        }
    }
}

void
SocInvariants::checkFinal()
{
    check(_soc.sim().cycle());
    if (!_axi.quiescent()) {
        std::ostringstream what;
        what << "AXI not quiescent at end of workload: "
             << _axi.outstandingReads() << " reads / "
             << _axi.outstandingWrites() << " writes outstanding";
        violation(what.str());
    }
    const std::size_t occ = _soc.nocOccupancy();
    if (occ != 0) {
        std::ostringstream what;
        what << "NoC fabric holds " << occ
             << " flits at end of workload (flit conservation)";
        violation(what.str());
    }
    if (!_ledger.empty()) {
        std::ostringstream what;
        what << _ledger.size()
             << " routing keys still await responses at end of workload";
        violation(what.str());
    }
}

} // namespace beethoven
