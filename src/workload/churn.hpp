/**
 * @file
 * Tenant arrival/departure processes for the molcached churn drills.
 *
 * The adversarial generators (workload/adversarial.hpp) stress the
 * control plane with a *fixed* population; the service's acceptance
 * scenario (ROADMAP item 1, bench/service_churn) needs the opposite —
 * a population that never stops changing.  ChurnProcess is a seeded
 * memoryless (Poisson-flavoured) arrival process over "access time":
 * gaps between arrivals and tenant lifetimes are exponential draws
 * measured in total accesses served, so the schedule is independent of
 * wall clock and thread count, and a --smoke run exercises the same
 * dynamics as a soak run, just shorter.
 *
 * Tenant traffic is deliberately stateless: a ChurnTenantProfile is a
 * value (address base, footprint, hot set, goal) and churnAddress()
 * draws one skewed reference from it with the caller's RNG.  Worker
 * threads can therefore share a profile without sharing generator
 * state, and the access loop allocates nothing.
 */

#ifndef MOLCACHE_WORKLOAD_CHURN_HPP
#define MOLCACHE_WORKLOAD_CHURN_HPP

#include <memory>

#include "util/random.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace molcache {

struct ChurnParams
{
    /** Mean accesses between tenant arrivals. */
    u64 meanInterarrival = 20000;
    /** Mean accesses a tenant stays attached. */
    u64 meanLifetime = 250000;
    /** Footprint drawn log-uniform from this range. */
    u64 minFootprintBytes = 64u * 1024u;
    u64 maxFootprintBytes = 1024u * 1024u;
    /** Miss-rate goal drawn log-uniform from this range. */
    double minGoal = 0.05;
    double maxGoal = 0.5;
    /** Fraction of the footprint that is hot ... */
    double hotFraction = 0.1;
    /** ... and the probability a reference lands in it. */
    double hotProbability = 0.8;
    /** Probability a reference is a write. */
    double writeFraction = 0.2;
};

/** Immutable traffic description of one tenant (see file comment). */
struct ChurnTenantProfile
{
    /** Disjoint per-tenant address-space base. */
    Addr base = 0;
    u64 footprintLines = 1;
    u64 hotLines = 1;
    u32 lineSize = 64;
    double hotProbability = 0.8;
    double writeFraction = 0.2;
    double missRateGoal = 0.1;
};

/** One skewed reference from @p profile using the caller's RNG. */
inline Addr
churnAddress(const ChurnTenantProfile &profile, RandomSource &rng)
{
    const u64 lines = rng.chance(profile.hotProbability)
                          ? profile.hotLines
                          : profile.footprintLines;
    return profile.base + rng.next64() % lines * profile.lineSize;
}

/** Read-or-write draw matching the profile's write fraction. */
inline bool
churnIsWrite(const ChurnTenantProfile &profile, RandomSource &rng)
{
    return rng.chance(profile.writeFraction);
}

/**
 * The seeded arrival/departure schedule.  Single-owner (a drill's
 * churn step, under its step mutex); draws advance the internal RNG, so two processes
 * with the same seed and call sequence are identical.
 */
class ChurnProcess
{
  public:
    ChurnProcess(const ChurnParams &params, u64 seed);

    /** Accesses until the next arrival (exponential, >= 1). */
    u64 nextArrivalGap();

    /** Lifetime in accesses for a newly arrived tenant. */
    u64 nextLifetime();

    /** Traffic profile for the @p ordinal-th tenant ever spawned
     * (ordinals give disjoint address bases). */
    ChurnTenantProfile makeProfile(u64 ordinal, u32 lineSize);

  private:
    /** Exponential draw with the given mean, floored at 1. */
    u64 exponential(u64 mean);

    ChurnParams params_;
    std::unique_ptr<RandomSource> rng_;
};

} // namespace molcache

#endif // MOLCACHE_WORKLOAD_CHURN_HPP
