/**
 * @file
 * The declarative parallel sweep engine.
 *
 * A SweepSpec names three axes — cache configurations, workload
 * profiles, seeds — and runSweep executes their cartesian product
 * across threads with parallelFor (exec/thread_pool.hpp).  Every
 * point is one SimJob: a plain value copied into the worker, carrying
 * the model parameters, the profile list and a private RunOptions whose
 * seed selects deterministic per-job RNG streams.  No state is shared
 * between jobs, so the report is bit-identical for any thread count.
 *
 * Results aggregate into a SweepReport ordered by job index and can be
 * serialized as a schema-versioned JSON document (conventionally
 * `BENCH_sweep.json`) — the repo's machine-readable perf baseline
 * artifact.  See docs/sweeps.md.
 */

#ifndef MOLCACHE_EXEC_SWEEP_HPP
#define MOLCACHE_EXEC_SWEEP_HPP

#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "cache/set_assoc.hpp"
#include "cache/way_partitioned.hpp"
#include "core/molecular_cache.hpp"
#include "fault/fault_injector.hpp"
#include "sim/run_options.hpp"
#include "sim/simulator.hpp"

namespace molcache {

/** Any buildable cache configuration. */
using ModelParams =
    std::variant<SetAssocParams, WayPartitionedParams, MolecularCacheParams>;

/** One cache-configuration axis point. */
struct ModelPoint
{
    std::string label;
    ModelParams params;
    /**
     * Optional fault schedule (molecular models only).  The job seed
     * overrides the spec's seed, and a default [refs/4, 3*refs/4)
     * window is applied when the spec's window was left at its default.
     */
    std::optional<FaultScheduleSpec> faults;
};

/** One workload axis point. */
struct WorkloadPoint
{
    std::string label;
    std::vector<std::string> profiles;
    /** Per-workload goal override; absent = the spec-level GoalSet. */
    std::optional<GoalSet> goals;
};

/**
 * One executable sweep point: a copyable value each worker reads
 * on its own.  options.seed is the job's seed; it also overrides the seed
 * inside the model params at build time.
 */
struct SimJob
{
    u64 index = 0;
    std::string modelLabel;
    std::string workloadLabel;
    std::vector<std::string> profiles;
    ModelParams model;
    std::optional<FaultScheduleSpec> faults;
    /** Resize goal used when registering ASIDs on partitioned models. */
    double registrationGoal = 0.25;
    RunOptions options;
};

/** Extra per-point metrics (ordered, so JSON stays deterministic). */
using MetricMap = std::map<std::string, double>;

/**
 * Post-run hook, invoked in the worker right after a job's simulation
 * with the still-live model: record model introspection (molecules
 * held, per-app HPM, ...) into the point's extra metrics.  Must touch
 * only its own arguments — it runs concurrently across jobs.
 */
using InspectFn = std::function<void(const SimJob &, CacheModel &,
                                     MetricMap &)>;

class SweepSpec
{
  public:
    explicit SweepSpec(std::string name);

    /** @{ Axis builders (chainable). */
    SweepSpec &setAssoc(const std::string &label, const SetAssocParams &p);
    SweepSpec &wayPartitioned(const std::string &label,
                              const WayPartitionedParams &p);
    SweepSpec &molecular(
        const std::string &label, const MolecularCacheParams &p,
        const std::optional<FaultScheduleSpec> &faults = std::nullopt);
    /** @p goals overrides the spec-level GoalSet for this workload
     * (e.g. fig5's goal-less-mcf graph). */
    SweepSpec &workload(const std::string &label,
                        const std::vector<std::string> &profiles,
                        const std::optional<GoalSet> &goals = std::nullopt);
    /** Explicit seeds: points reproduce single runs at the same seed. */
    SweepSpec &seeds(const std::vector<u64> &s);
    /** @} */

    /** @{ Per-job RunOptions fields shared by every point. */
    SweepSpec &goals(const GoalSet &g);
    SweepSpec &registrationGoal(double goal);
    SweepSpec &references(u64 refs);
    /** @} */

    SweepSpec &inspect(InspectFn fn);

    const std::string &name() const { return name_; }
    const InspectFn &inspector() const { return inspect_; }

    /**
     * The ordered cartesian product: models x workloads x seeds, job
     * indices 0..n-1 in that nesting order.  fatal()s on an empty axis.
     */
    std::vector<SimJob> expand() const;

  private:
    std::string name_;
    std::vector<ModelPoint> models_;
    std::vector<WorkloadPoint> workloads_;
    std::vector<u64> seeds_;
    GoalSet goals_;
    double registrationGoal_ = 0.25;
    u64 totalReferences_ = 0;
    InspectFn inspect_;
};

/** Outcome of one sweep point, in job-index order inside SweepReport. */
struct SweepPointResult
{
    u64 index = 0;
    std::string modelLabel;
    std::string workloadLabel;
    u64 seed = 0;
    SimResult result;
    MetricMap extra;
};

struct SweepReport
{
    std::string sweep;
    /** @{ How the sweep ran; never serialized, so the JSON stays
     * byte-identical for any thread count. */
    u32 threads = 1;
    double wallSeconds = 0.0;
    /** @} */
    std::vector<SweepPointResult> points;

    /** First point matching both labels (any seed); fatal() if absent. */
    const SweepPointResult &point(const std::string &modelLabel,
                                  const std::string &workloadLabel) const;

    /** Serialize as a schema-versioned, deterministic JSON document. */
    void writeJson(std::ostream &os) const;
    void writeFile(const std::string &path) const;
};

/** Run every point of @p spec on @p threads threads (0 = hardware
 * concurrency); points land in job-index order. */
SweepReport runSweep(const SweepSpec &spec, u32 threads = 0);

/** Build the (seed-overridden, registered, fault-armed) model for one
 * job — exposed for tests and single-point tools. */
std::unique_ptr<CacheModel> buildJobModel(const SimJob &job);

/** Execute one job start to finish on the calling thread. */
SweepPointResult runSimJob(const SimJob &job,
                           const InspectFn &inspect = {});

} // namespace molcache

#endif // MOLCACHE_EXEC_SWEEP_HPP
