#include "noc/topology.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace molcache {

NocModel::NocModel(u32 clusters) : clusters_(clusters)
{
    MOLCACHE_ASSERT(clusters >= 1, "NoC needs at least one cluster");
}

u32
NocModel::hopCount(u32 from, u32 to) const
{
    MOLCACHE_ASSERT(from < clusters_ && to < clusters_,
                    "NoC endpoint out of range");
    const u32 d = from > to ? from - to : to - from;
    return std::min(d, clusters_ - d);
}

u32
NocModel::diameter() const
{
    u32 best = 0;
    for (u32 a = 0; a < clusters_; ++a)
        for (u32 b = 0; b < clusters_; ++b)
            best = std::max(best, hopCount(a, b));
    return best;
}

u32
NocModel::latencyCycles(u32 from, u32 to) const
{
    return hopCount(from, to) * kNocCyclesPerHop;
}

double
NocModel::messageEnergyNj(u32 from, u32 to) const
{
    return hopCount(from, to) * kNocEnergyPerHopNj;
}

u32
NocModel::sendMessage(u32 from, u32 to)
{
    const u32 hops = hopCount(from, to);
    ++stats_.messages;
    stats_.hops += hops;
    stats_.cycles += hops * kNocCyclesPerHop;
    stats_.energyNj += hops * kNocEnergyPerHopNj;
    return hops * kNocCyclesPerHop;
}

} // namespace molcache
