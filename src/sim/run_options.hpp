/**
 * @file
 * RunOptions: the value-type knob bundle for every simulation entry
 * point (Simulator::run, runWorkload, deriveGoalsFromSolo, SimJob).
 *
 * The old positional tails — (goals, labels, warmup, progress) on
 * Simulator::run and (totalReferences, seed) on the experiment helpers —
 * grew independently and could not be carried across threads as one
 * unit.  RunOptions replaces all of them: it is a plain copyable value,
 * so the parallel sweep engine (src/exec/) can hand each worker its own
 * private copy with no shared mutable state.
 *
 * Fields unused by a given entry point are ignored (e.g. Simulator::run
 * drains the source it is given and never reads totalReferences, which
 * drives the workload-building helpers).
 */

#ifndef MOLCACHE_SIM_RUN_OPTIONS_HPP
#define MOLCACHE_SIM_RUN_OPTIONS_HPP

#include <map>
#include <string>
#include <utility>

#include "stats/metrics.hpp"

namespace molcache {

struct RunOptions
{
    /** Per-ASID miss-rate goals for the QoS summary. */
    GoalSet goals;

    /** Per-ASID display names; helpers default these to the profile
     * names when left empty. */
    std::map<Asid, std::string> labels;

    /** References run before statistics are reset (0 = no warmup). */
    u64 warmup = 0;

    /** Base RNG seed for workload generation and model construction. */
    u64 seed = 1;

    /**
     * Merged references to generate (workload-building helpers only;
     * 0 = the helper's documented default, e.g. kPaperTraceLength for
     * runWorkload).
     */
    u64 totalReferences = 0;

    /** @{ Fluent setters so call sites read like keyword arguments. */
    RunOptions &withGoals(GoalSet g)
    {
        goals = std::move(g);
        return *this;
    }
    RunOptions &withLabels(std::map<Asid, std::string> l)
    {
        labels = std::move(l);
        return *this;
    }
    RunOptions &withWarmup(u64 refs)
    {
        warmup = refs;
        return *this;
    }
    RunOptions &withSeed(u64 s)
    {
        seed = s;
        return *this;
    }
    RunOptions &withReferences(u64 refs)
    {
        totalReferences = refs;
        return *this;
    }
    /** @} */
};

} // namespace molcache

#endif // MOLCACHE_SIM_RUN_OPTIONS_HPP
