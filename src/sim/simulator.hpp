/**
 * @file
 * The trace-driven simulation loop: pull references from an AccessSource,
 * feed them to a CacheModel, summarize.
 */

#ifndef MOLCACHE_SIM_SIMULATOR_HPP
#define MOLCACHE_SIM_SIMULATOR_HPP

#include <map>
#include <string>

#include "cache/cache_model.hpp"
#include "mem/interleave.hpp"
#include "sim/qos.hpp"
#include "sim/run_options.hpp"

namespace molcache {

/** Aggregate outcome of one run. */
struct SimResult
{
    std::string cacheName;
    QosSummary qos;
    u64 accesses = 0;
    u64 hits = 0;
    u64 misses = 0;
    double totalEnergyNj = 0.0;
    double avgEnergyPerAccessNj = 0.0;
    /** Hits broken down by lookup level (0 local, 1 remote tile). */
    u64 localHits = 0;
    u64 remoteHits = 0;

    /** @{ Fault/degradation counters; populated only when the model is a
     * MolecularCache (zero otherwise).  See docs/fault_model.md. */
    u64 faultEventsApplied = 0;
    u64 transientFlipsDetected = 0;
    u64 dirtyLinesLost = 0;
    u64 moleculesDecommissioned = 0;
    u64 tileOutages = 0;
    /** Molecules re-granted by the resizer to faulted regions. */
    u64 recoveryGrants = 0;
    /** Longest completed fault re-convergence, in resize epochs. */
    u32 maxReconvergenceEpochs = 0;
    /** Regions still above their miss-rate goal after a fault. */
    u32 regionsStillRecovering = 0;
    /** @} */

    /** @{ Way-memoization telemetry (docs/perf.md).  Populated only when
     * the model is a MolecularCache.  The memo cannot be disabled, only
     * fused off for good by the first transient flip; when that leaves
     * all three at zero the JSON block is omitted. */
    u64 wayMemoHits = 0;
    u64 wayMemoMispredicts = 0;
    u64 wayMemoInvalidations = 0;
    /** @} */

    /** QoS-guardian aggregate (guardian.enabled false unless the model
     * is a MolecularCache with params().guardian.enabled).  Per-region
     * telemetry rides on qos.apps[i].guardian. */
    GuardianSummary guardian;

    /** Contract violations observed during the run (delta of the
     * calling thread's contract::counters() across the run; nonzero only
     * when a counting handler keeps violations non-fatal).  Always zero
     * in a pure Release build, where contracts compile out. */
    u64 contractViolations = 0;
};

class Simulator
{
  public:
    /**
     * Drain @p source through @p model.  Reads goals, labels and warmup
     * from @p options (totalReferences belongs to the workload-building
     * helpers and is ignored here: the source is already bounded).
     */
    static SimResult run(AccessSource &source, CacheModel &model,
                         const RunOptions &options = {});
};

/** Display-label map (ASID i -> names[i]). */
std::map<Asid, std::string>
labelMap(const std::vector<std::string> &names);

} // namespace molcache

#endif // MOLCACHE_SIM_SIMULATOR_HPP
