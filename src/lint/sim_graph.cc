#include "lint/sim_graph.h"

#include <unordered_map>

#include "sim/simulator.h"

namespace beethoven
{
namespace lint
{

SimGraph
buildSimGraph(const Simulator &sim)
{
    const SimGraphRecord &rec = sim.graphRecord();
    SimGraph g;

    std::unordered_map<const Module *, int> index;
    g.modules.reserve(rec.modules().size());
    for (const SimGraphRecord::ModuleInfo &info : rec.modules()) {
        index.emplace(info.module, static_cast<int>(g.modules.size()));
        GraphModule m;
        m.name = info.module->name();
        m.role = info.role;
        m.sleepable = info.sleepable;
        m.sleepSite = info.sleepSite;
        m.selfWake = info.selfWake;
        m.selfWakeSite = info.selfWakeSite;
        g.modules.push_back(std::move(m));
    }

    auto lookup = [&index](const Module *m) {
        if (m == nullptr)
            return kNoIndex;
        auto it = index.find(m);
        return it == index.end() ? kNoIndex : it->second;
    };

    g.edges.reserve(rec.edges().size());
    for (const SimGraphRecord::QueueEdge &e : rec.edges()) {
        GraphEdge edge;
        edge.site = e.site;
        edge.capacity = e.capacity;
        edge.latency = e.latency;
        edge.consumer = lookup(e.consumer);
        edge.consumerSite = e.consumerSite;
        edge.pushWakeArmed = e.pushWakeArmed;
        edge.pushWakeTarget = lookup(e.pushWakeTarget);
        edge.producer = lookup(e.producer);
        edge.producerSite = e.producerSite;
        edge.popWakeArmed = e.popWakeArmed;
        g.edges.push_back(std::move(edge));
    }

    return g;
}

} // namespace lint
} // namespace beethoven
