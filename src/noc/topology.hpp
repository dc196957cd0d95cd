/**
 * @file
 * Inter-cluster interconnection network model.
 *
 * The paper connects tile clusters "through an interconnection network
 * to enable coherence transactions", deliberately drawn as a cloud ("no
 * assumption made on the topology").  molcache makes the cloud concrete
 * enough to cost coherence traffic: a ring gives hop counts between
 * clusters, and per-hop latency/energy constants turn a message into
 * cycles and nanojoules.  The model is used by the coherence path
 * (invalidations, downgrades) — the paper's workloads share nothing, so
 * it contributes no cost there, but shared-address-space workloads (one
 * application's threads pinned to different clusters) exercise it.
 */

#ifndef MOLCACHE_NOC_TOPOLOGY_HPP
#define MOLCACHE_NOC_TOPOLOGY_HPP

#include "util/types.hpp"

namespace molcache {

/** @{ Cost of one router-to-router hop. */
inline constexpr u32 kNocCyclesPerHop = 2;
/** Energy per hop per message, nJ (link + router). */
inline constexpr double kNocEnergyPerHopNj = 0.15;
/** @} */

/** Message statistics accumulated by a NocModel. */
struct NocStats
{
    u64 messages = 0;
    u64 hops = 0;
    u64 cycles = 0;
    double energyNj = 0.0;
};

/** Bidirectional ring of tile clusters: a message takes the shorter
 * way around. */
class NocModel
{
  public:
    /** @param clusters number of endpoints (>= 1) */
    explicit NocModel(u32 clusters);

    u32 clusters() const { return clusters_; }

    /** Hops between two clusters (0 for self-messages). */
    u32 hopCount(u32 from, u32 to) const;

    /** Worst-case hops between any pair (the network diameter). */
    u32 diameter() const;

    /** Cycles a message from @p from to @p to takes. */
    u32 latencyCycles(u32 from, u32 to) const;

    /** Energy of one message (nJ). */
    double messageEnergyNj(u32 from, u32 to) const;

    /** Account one message and return its latency in cycles. */
    u32 sendMessage(u32 from, u32 to);

    const NocStats &stats() const { return stats_; }
    void resetStats() { stats_ = NocStats{}; }

  private:
    u32 clusters_;
    NocStats stats_;
};

} // namespace molcache

#endif // MOLCACHE_NOC_TOPOLOGY_HPP
