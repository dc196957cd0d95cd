/**
 * @file
 * Tenants as first-class handles.
 *
 * One tenant = one application = one ASID/region inside one shard of
 * the service.  attach() hands the caller a TenantHandle; every later
 * verb (access/setGoal/detach) takes the handle, so there is no stringy
 * tenant lookup on the hot path — the handle carries the routing facts
 * (shard, ASID, generation) packed into one atomic word.
 *
 * Routing is atomic, not immutable, because of the degradation ladder
 * (docs/fault_model.md): when a shard is quarantined after capacity
 * loss, the control plane re-homes its tenants onto healthy shards and
 * republishes the routing word.  Readers snapshot the word lock-free,
 * then re-check it once under the shard lock — see Service::access for
 * the two-phase protocol that makes a remap invisible to workers.
 *
 * Lifetime ("departure drains safely"): the handle is a refcounted view
 * of a TenantState that the Service tracks only weakly.  detach() marks
 * the tenant departing but revokes nothing — outstanding handle copies
 * on other worker threads keep accessing the still-registered region.
 * Only when the last handle is destroyed does the control-plane epoch
 * observe the weak reference expired and actually unregister the
 * region, write back its dirty lines and retire + recycle the ASID.  A
 * worker can therefore never race a region teardown: teardown waits for
 * every reference to drop first.
 *
 * The (asid, generation) pair uniquely names a tenant *within its
 * current shard* across ASID reuse — generations come from
 * CacheStats::generationOf, bumped each time a departed (or remapped)
 * tenant's stats slot is retired.
 */

#ifndef MOLCACHE_SERVICE_TENANT_HPP
#define MOLCACHE_SERVICE_TENANT_HPP

#include <atomic>
#include <limits>
#include <memory>
#include <string>

#include "contract/contract.hpp"
#include "util/types.hpp"

namespace molcache {
namespace mc {

class Service;

/** What a caller asks for when attaching a tenant. */
struct TenantSpec
{
    /** Placement wildcard: the service picks the least-loaded shard. */
    static constexpr u32 kAnyShard = std::numeric_limits<u32>::max();

    /** Display name (telemetry only; empty gets "tenant<N>"). */
    std::string name;
    /** Miss-rate goal Algorithm 1 steers towards; 0 = the cache
     * default (MolecularCacheParams::defaultMissRateGoal). */
    double missRateGoal = 0.0;
    /** Capacity floor in molecules (guardian fairness guard; 0 = no
     * floor beyond the guardian's own). */
    u32 floorMolecules = 0;
    /** Region line-size multiple (1 => 64 B lines, 2 => 128 B, ...). */
    u32 lineMultiple = 1;
    /** Destination shard, or kAnyShard for service placement. */
    u32 shard = kAnyShard;
};

namespace detail {

/** Routing facts shared by every copy of a handle; the Service keeps
 * only a weak reference (see file comment).  The (shard, asid,
 * generation) triple is packed into one word so workers snapshot it in
 * a single atomic load and a remap republishes it in a single store —
 * a reader can never see the new shard with the old ASID. */
struct TenantState
{
    /** shard:16 | asid:16 | generation:32 (shard counts are validated
     * against the 16-bit field by ServiceOptions). */
    static constexpr u64
    pack(u32 shard, u16 asid, u32 generation)
    {
        return (static_cast<u64>(shard) << 48) |
               (static_cast<u64>(asid) << 32) |
               static_cast<u64>(generation);
    }

    static constexpr u32
    shardOf(u64 routing)
    {
        return static_cast<u32>(routing >> 48);
    }

    static constexpr u16
    asidOf(u64 routing)
    {
        return static_cast<u16>((routing >> 32) & 0xffffu);
    }

    static constexpr u32
    generationOf(u64 routing)
    {
        return static_cast<u32>(routing);
    }

    std::atomic<u64> routing{0};
    std::string name;
};

} // namespace detail

/**
 * Refcounted tenant reference.  Copyable and cheap (one shared_ptr);
 * copying or destroying a handle never takes a service lock.  An empty
 * (default-constructed, or failed-attach) handle is falsy and must not
 * be passed to the service verbs.
 */
class TenantHandle
{
  public:
    TenantHandle() = default;

    bool valid() const { return state_ != nullptr; }
    explicit operator bool() const { return valid(); }

    /** @{ Current routing facts; handle must be valid().  Instantaneous
     * snapshots: a quarantine-driven remap may re-home the tenant
     * between two calls (the service verbs re-check internally). */
    Asid
    asid() const
    {
        MOLCACHE_EXPECT(valid(), "asid() on an empty TenantHandle");
        return Asid{detail::TenantState::asidOf(routing())};
    }

    u32
    shard() const
    {
        MOLCACHE_EXPECT(valid(), "shard() on an empty TenantHandle");
        return detail::TenantState::shardOf(routing());
    }

    /** Stats-slot generation at (re)registration: (asid, generation)
     * names this tenant uniquely within its shard across recycling. */
    u32
    generation() const
    {
        MOLCACHE_EXPECT(valid(), "generation() on an empty TenantHandle");
        return detail::TenantState::generationOf(routing());
    }
    /** @} */

    const std::string &
    name() const
    {
        MOLCACHE_EXPECT(valid(), "name() on an empty TenantHandle");
        return state_->name;
    }

    /** Drop this reference early (same as destroying the handle). */
    void reset() { state_.reset(); }

  private:
    friend class Service;

    explicit TenantHandle(std::shared_ptr<detail::TenantState> state)
        : state_(std::move(state))
    {
    }

    u64
    routing() const
    {
        return state_->routing.load(std::memory_order_acquire);
    }

    std::shared_ptr<detail::TenantState> state_;
};

} // namespace mc
} // namespace molcache

#endif // MOLCACHE_SERVICE_TENANT_HPP
