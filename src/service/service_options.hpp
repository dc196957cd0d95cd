/**
 * @file
 * ServiceOptions: the knob bundle for mc::Service (molcached).
 *
 * Mirrors the RunOptions pattern (src/sim/run_options.hpp): a plain
 * copyable value with fluent with*() setters so construction sites read
 * like keyword arguments.  Every setter range-checks its argument
 * eagerly and records a violation *with the caller's file:line*
 * (std::source_location), so validate() can report
 * "bench/service_churn.cpp:87: service.shards must be >= 1" instead of
 * an anonymous failure deep inside the service constructor — the same
 * file:line contract that config-file errors follow.
 *
 * There is no epoch period: the service has no timer, and the embedder
 * paces epochs with Service::runEpochNow().
 *
 * Shard geometry: `cache` describes ONE shard, and a shard is exactly
 * one tile cluster — the cluster is Ulmo's search domain, regions never
 * span it, so cluster boundaries are where the cache can be split into
 * independently-locked instances without any cross-shard coherence.
 * validate() therefore requires cache.clusters == 1 and `shards` scales
 * the service out instead.
 */

#ifndef MOLCACHE_SERVICE_SERVICE_OPTIONS_HPP
#define MOLCACHE_SERVICE_SERVICE_OPTIONS_HPP

#include <source_location>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "service/chaos.hpp"

namespace molcache {
namespace mc {

/** Quarantine a shard once this fraction of its molecules is
 * decommissioned: admissions stop, its tenants remap to healthy shards,
 * and it drains (docs/fault_model.md). */
inline constexpr double kQuarantineThreshold = 0.5;

struct ServiceOptions
{
    /** Per-shard cache geometry; clusters must stay 1 (see above). */
    MolecularCacheParams cache;

    /** Independently-locked cache shards (tile clusters). */
    u32 shards = 2;

    /** Admission cap on live tenants (0 = unlimited). */
    u32 maxTenants = 0;

    /** Seeded chaos storm fired by the control-plane epochs; all-zero
     * event counts (the default) leave chaos off and the service
     * byte-identical to its pre-resilience behaviour. */
    ChaosSpec chaos;

    /**
     * Overload-protection watermarks over *healthy* capacity: attach()
     * rejects with AttachError::Overloaded once the summed tenant
     * demand (capacity floors, min 1 molecule each) exceeds
     * admitHighWater x healthy molecules, and keeps rejecting until
     * demand falls back below admitLowWater x healthy molecules — the
     * hysteresis stops admission from flapping at the boundary.
     * admitHighWater == 0 (the default) disables capacity admission.
     */
    double admitHighWater = 0.0;
    double admitLowWater = 0.0;

    /** A remapped tenant counts as re-converged once its per-epoch
     * miss-rate EWMA is within this slack of its (degraded) goal or of
     * its own pre-remap EWMA, whichever is easier. */
    double recoverySlack = 0.05;

    /** @{ Fluent setters; invalid arguments are recorded (with the call
     * site) and reported by validate(). */
    ServiceOptions &withShards(
        u32 count,
        std::source_location loc = std::source_location::current());
    /** Stores nothing: the service has no epoch timer.  Kept so
     * callers that pass 0 still build; any other value is recorded as
     * an error. */
    ServiceOptions &withEpochMillis(
        u64 millis,
        std::source_location loc = std::source_location::current());
    ServiceOptions &withMaxTenants(
        u32 count,
        std::source_location loc = std::source_location::current());
    ServiceOptions &withGuardian(
        bool enabled,
        std::source_location loc = std::source_location::current());
    ServiceOptions &withChaos(
        const ChaosSpec &spec,
        std::source_location loc = std::source_location::current());
    ServiceOptions &withAdmitWatermarks(
        double high, double low,
        std::source_location loc = std::source_location::current());
    ServiceOptions &withRecoverySlack(
        double slack,
        std::source_location loc = std::source_location::current());
    /** @} */

    /**
     * Violations recorded so far, each "file:line: message".  Empty
     * means every setter argument was in range; cross-field rules are
     * only checked by validate().
     */
    const std::vector<std::string> &errors() const { return errors_; }

    /**
     * Fatal if any setter recorded a violation or a cross-field rule
     * fails (shards >= 1, cache.clusters == 1, ordered admit
     * watermarks, a non-empty chaos window); also runs cache.validate().
     * Service's constructor calls this.
     */
    void validate() const;

  private:
    void note(const std::source_location &loc, const std::string &message);

    std::vector<std::string> errors_;
};

} // namespace mc
} // namespace molcache

#endif // MOLCACHE_SERVICE_SERVICE_OPTIONS_HPP
