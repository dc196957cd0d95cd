/**
 * @file
 * The molecular cache: the paper's primary contribution, behind the
 * common CacheModel interface.
 *
 * Composition (paper figures 1-2): clusters of tiles of molecules, one
 * Ulmo per cluster, a shared inter-cluster coherence directory, one
 * Region (partition) per registered application, and a Resizer running
 * Algorithm 1 on the configured schedule.
 *
 * Access path (sections 3.1-3.3):
 *   1. the request enters through the owning application's home tile;
 *      every molecule on the tile performs the ASID comparison, and the
 *      region's molecules on that tile are probed (level 0);
 *   2. on a tile miss, Ulmo probes only the other tiles of the cluster
 *      that contribute molecules to the region (level 1);
 *   3. on a global miss the line (or the region's line-multiple group of
 *      lines) is fetched and placed into a molecule chosen by the
 *      region's placement policy — Random or Randy (level 2).
 *
 * Dynamic energy is accounted per probe using the CACTI-flavoured model:
 * tile wire flight + all-tile ASID comparators + per-molecule array
 * reads, plus an Ulmo hop for escalated lookups.
 */

#ifndef MOLCACHE_CORE_MOLECULAR_CACHE_HPP
#define MOLCACHE_CORE_MOLECULAR_CACHE_HPP

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cache/cache_model.hpp"
#include "core/coherence.hpp"
#include "core/guardian.hpp"
#include "fault/fault_injector.hpp"
#include "core/params.hpp"
#include "core/region.hpp"
#include "core/resizer.hpp"
#include "core/tile.hpp"
#include "core/ulmo.hpp"
#include "power/cacti.hpp"

namespace molcache {

class MolecularCache final : public CacheModel, private MoleculeBroker
{
  public:
    explicit MolecularCache(const MolecularCacheParams &params);

    /**
     * Create a partition for @p asid with the default placement (cluster
     * = asid mod clusters, tiles round-robin within the cluster).
     * @param resizeGoal the miss-rate goal Algorithm 1 steers towards
     */
    void registerApplication(Asid asid, double resizeGoal);

    /** Explicit placement variant; @p tileInCluster is the destination
     * tile's cluster-local ordinal (0..tilesPerCluster-1). */
    void registerApplication(Asid asid, double resizeGoal, ClusterId cluster,
                             u32 tileInCluster, u32 lineMultiple);

    bool hasApplication(Asid asid) const;

    /** Remove the partition and free its molecules.  Statistics for the
     * ASID survive (a re-registration under the same ASID keeps
     * counting); callers recycling the ASID for a *new* application
     * follow up with retireApplicationStats(). */
    void unregisterApplication(Asid asid);

    /**
     * Retire @p asid's statistics slot after unregisterApplication, so
     * the ASID value can be recycled for a future tenant without the
     * per-ASID stats map growing with lifetime tenant count
     * (CacheStats::retire).  Fatal if the ASID is still registered —
     * live regions must keep their counters.
     */
    void retireApplicationStats(Asid asid);

    /** Re-aim Algorithm 1: replace @p asid's miss-rate goal.  The next
     * resize epochs steer the region toward the new goal through the
     * usual grant/withdraw machinery (and guardian admission when
     * enabled).  This is the molcached setGoal verb. */
    void setResizeGoal(Asid asid, double resizeGoal);

    // CacheModel interface -------------------------------------------------
    AccessResult access(const MemAccess &access) override;
    const CacheStats &stats() const override { return stats_; }
    std::string name() const override;
    void resetStats() override;
    double totalEnergyNj() const override { return energyNj_; }

    // Introspection --------------------------------------------------------
    const MolecularCacheParams &params() const { return params_; }
    const Region &region(Asid asid) const;
    const Tile &tile(TileId index) const { return tiles_.at(index.value()); }
    const Ulmo &ulmo(ClusterId cluster) const
    {
        return ulmos_.at(cluster.value());
    }
    const CoherenceDirectory &directory() const { return directory_; }
    const Resizer &resizer() const { return resizer_; }
    /** The QoS guardian, or nullptr when params().guardian is off. */
    const QosGuardian *guardian() const { return guardian_.get(); }

    /** True when phase hints have a consumer (guardian predictive mode
     * on) — callers skip the drain entirely otherwise, so hint-free
     * configurations stay byte-identical. */
    bool
    acceptsPhaseHints() const
    {
        return guardian_ != nullptr && guardian_->predictiveEnabled();
    }

    /** Deliver one phase hint to the guardian's predictive mode; hints
     * for unregistered ASIDs are dropped (tenants may hint before or
     * after their partition exists — the claim is simply void). */
    void postPhaseHint(const PhaseHint &hint);
    Molecule &molecule(MoleculeId id);
    const Molecule &molecule(MoleculeId id) const;

    /** Free molecules across the whole cache / one cluster. */
    u32 freeMolecules() const;
    u32 freeMoleculesInCluster(ClusterId cluster) const;

    /**
     * Per-region capacity floor in molecules (guardian fairness guard):
     * withdrawals never take the region below it and lost capacity is
     * re-granted.  Regions start at params().guardian.floorMolecules
     * when the guardian is enabled; this overrides one region.
     */
    void setRegionFloor(Asid asid, u32 floorMolecules);

    /** @{ Energy/probe reporting (Table 4 inputs). */
    /** All molecules of a tile enabled — the paper's worst case. */
    double worstCaseAccessEnergyNj() const;
    /** Measured mean energy per access so far. */
    double averageAccessEnergyNj() const;
    /** Measured mean molecules probed per access. */
    double averageProbesPerAccess() const;
    /** Measured mean region size (enabled molecules) over accesses. */
    double averageEnabledMolecules() const;
    /** @} */

    /** Lifetime hits of @p asid per currently-held molecule (Figure 6). */
    double hitPerMoleculeOf(Asid asid) const;

    /** Resize activity. */
    u64 resizeCycles() const { return resizeCycles_; }

    /** @{ Way-memoization telemetry (docs/perf.md): last-hit-molecule
     * predictions verified by a single tag probe (hits), predictions
     * that failed verification and fell back to the full schedule
     * (mispredicts), and per-region table rebuilds forced by the
     * generation stamps (invalidations).  Pure simulator-speed
     * accounting — modeled probe/energy/latency counters never see the
     * shortcut. */
    u64 wayMemoHits() const { return wayMemoHits_; }
    u64 wayMemoMispredicts() const { return wayMemoMispredicts_; }
    u64 wayMemoInvalidations() const { return wayMemoInvalidations_; }
    /** @} */

    // Fault injection & graceful degradation (docs/fault_model.md).  The
    // mutators live behind SimAccess (core/sim_access.hpp): they assume a
    // single-threaded quiescent cache, so service-path code must not be
    // able to reach them.  Read-only reporting stays public.
    const FaultStats &faultStats() const { return faultStats_; }

    /** Molecules permanently out of service across the whole cache. */
    u32 decommissionedMolecules() const;

    /** All registered ASIDs, ascending (introspection / audits). */
    std::vector<Asid> registeredAsids() const;

    /** Valid lines currently resident across @p asid's region — what a
     * forced remap or decommission would invalidate (service-level
     * remap-churn accounting, docs/fault_model.md). */
    u32 residentLines(Asid asid) const;

    /** Signature of the debug audit hook SimAccess can install. */
    using AuditHook = std::function<void(const MolecularCache &)>;

  private:
    // Simulator-only single-threaded mutators, reachable through the
    // SimAccess facade (core/sim_access.hpp) and nothing else.  Every
    // one of them rewires the cache mid-run (fault injection, audit
    // hooks) — correct under the trace-replay harness, undefined under
    // concurrent access from service worker threads.
    friend class SimAccess;

    /** Install a deterministic fault schedule, driven off the access
     * tick; replaces any previous schedule. */
    void setFaultInjector(FaultInjector injector);

    /**
     * Permanently fence off @p id: resident lines are written back /
     * invalidated (with coherence-directory eviction notices), the
     * molecule leaves its region's replacement view and its tile's free
     * pool, and it can never be allocated again — the figure-3 ASID
     * comparator acts as the fence bit.  The owning region re-acquires
     * replacement capacity on its next resize epoch.
     * @return false if the molecule was already decommissioned.
     */
    bool decommissionMolecule(MoleculeId id);

    /** One detected hard fault on @p id; decommissions the molecule once
     * its failure counter reaches params().hardFaultThreshold. */
    void injectHardFault(MoleculeId id);

    /** Corrupt line @p line of @p id (modulo capacity); the parity check
     * catches it on the next probe of the slot and reads it as a miss. */
    void injectTransientFlip(MoleculeId id, u32 line);

    /** Decommission every molecule of @p tile at once. */
    void injectTileOutage(TileId tile);

    /** Decommission every molecule of every tile of @p cluster — the
     * whole-shard outage of a service chaos storm (a service shard is
     * exactly one tile cluster). */
    void injectClusterOutage(ClusterId cluster);

    /**
     * Debug audit hook, invoked every @p everyAccesses accesses with the
     * cache in a quiescent state (e.g. InvariantChecker::attach installs
     * a cross-layer consistency audit here).  0 disables.
     */
    void setAuditHook(Tick everyAccesses, AuditHook hook);

    // MoleculeBroker -------------------------------------------------------
    u32 grant(Region &region, u32 count) override;
    u32 withdraw(Region &region, u32 count) override;

    Region &regionFor(Asid asid);
    Tile &tileAt(TileId index) { return tiles_[index.value()]; }

    /** Tile array index hosting @p id — a shift when moleculesPerTile
     * is a power of two (the common geometries), a divide otherwise. */
    u32
    tileIndexOf(MoleculeId id) const
    {
        return molShift_ >= 0
                   ? id.value() >> static_cast<u32>(molShift_)
                   : id.value() / params_.moleculesPerTile;
    }

    /**
     * Probe @p placed (@p region's molecules on @p tile) for @p addr;
     * @return the hit molecule or nullptr.  One pass over the row of
     * the tile's line-major view (Tile::lineFlags) that @p addr maps
     * to, eight flag bytes per word: keep the valid and partial-tag
     * bits, match them against the wanted byte, AND with the entry's
     * membership mask, and confirm each candidate's full tag in offset
     * order.  On a clean tile at most one region molecule holds the
     * line, so the hit does not depend on order.  When a region slot
     * of the row is poisoned the probe falls back to
     * probeInGrantOrder, so poison is met in schedule order.  The one
     * tag probe for home and remote tiles alike.
     */
    Molecule *probeTile(const Region &region, Tile &tile,
                        const TilePlacement::Entry &placed, Addr addr);

    /** Probe @p mols in grant order, up to the first hit: a poisoned
     * slot met before it fails its parity check, is scrubbed
     * (scrubRegionLine) and reads as a miss, and nothing after the hit
     * is touched.  Reached only when the row holds a poisoned region
     * slot. */
    [[gnu::noinline]] Molecule *
    probeInGrantOrder(const Region &region, Tile &tile,
                      const std::vector<MoleculeId> &mols, Addr addr);

    /** Drop the poisoned slot @p addr maps to in @p mol and the rest of
     * its region line (dropRegionLine).  Kept out of the probe loop:
     * inlined there, it spread the loop and cost table2_mixed12 about
     * 12 % of its refs/s. */
    [[gnu::noinline]] void scrubRegionLine(const Region &region,
                                           Molecule &mol, Addr addr);

    /** Drop every resident line of @p addr's region line from @p mol,
     * with an eviction notice each (paper section 3.2: the line-multiple
     * group is the unit of allocation, so a refill brings it back whole
     * into one molecule).  Dirty lines are written back; a poisoned one
     * fails its parity check and its data is lost. */
    void dropRegionLine(const Region &region, Molecule &mol, Addr addr);

    /** One way-memoization prediction: the last molecule that produced
     * a home-tile hit for a line address hashing to this slot.  The
     * stored tag bits filter hash collisions — a colliding line simply
     * has no prediction, it never evicts a live one through a wasted
     * verification probe.  The filter is 32-bit (not the full line
     * address) to keep the entry at 8 bytes: a false filter match is
     * caught by the verification probe like any mispredict, so only
     * the table's cache footprint is at stake, never correctness. */
    struct WayMemoEntry
    {
        u32 tagBits = 0;
        MoleculeId mol = kInvalidMolecule;
    };

    /**
     * The way-memoization slot @p addr hashes to in @p region's table.
     * Revalidates the per-region table when the region's generation
     * moved (revalidateWayMemo).
     */
    WayMemoEntry *
    wayMemoSlot(Region &region, Addr addr)
    {
        WayMemo &memo = wayMemo_[region.asid().value()];
        if (memo.gen != region.generation()) [[unlikely]]
            revalidateWayMemo(region);
        return &memo.slots[(addr >> lineShift_) & memo.mask];
    }

    /** Rebuild @p region's memo table when the region outgrew it or
     * its slot was recycled (sized to the region's capacity in lines,
     * rounded up to a power of two), then stamp it with the region's
     * generation. */
    void revalidateWayMemo(const Region &region);

    /** Drop @p asid's memo table unconditionally (ASID recycling: a new
     * region's generation counter restarts and could collide with the
     * stale stamp). */
    void resetWayMemo(Asid asid);

    /** Fill the miss (line-multiple aware) into the region.
     * @return dynamic energy of the line fills (nJ). */
    double handleMiss(Region &region, const MemAccess &access);

    /** LRU-Direct victim: the region's least-recently-touched slot at
     * the address's molecule index (invalid slots win outright). */
    MoleculeId chooseLruDirectMolecule(const Region &region, Addr addr);

    /** Snoop each cluster of @p clusters (bit c = cluster c, lowest
     * first) for @p lineAddr, dropping the region line of every copy. */
    void applyInvalidations(u32 clusters, LineAddr lineAddr);

    /** Run resize scheduling after an access by @p region. */
    void maybeResize(Region &region);
    void runGlobalResizeCycle();

    /** Apply every scheduled fault due at the current tick. */
    void applyDueFaults();

    double tileAccessEnergyNj(u32 probes) const;

    MolecularCacheParams params_;
    std::vector<Tile> tiles_;
    CoherenceDirectory directory_;
    std::vector<Ulmo> ulmos_;
    // Ordered region authority: stable nodes (regionIndex_ points into
    // them) and ascending-ASID iteration keep resize/invalidation order
    // deterministic.  Never walked on the per-access path — regionFor
    // goes through the dense index.  molcache-lint: allow-map
    std::map<Asid, Region> regions_;
    // Dense ASID -> Region cache for the access hot path.
    std::vector<Region *> regionIndex_;
    Resizer resizer_;
    // QoS guardian (docs/algorithm1.md "Guardrails"); allocated only
    // when params_.guardian.enabled so the disabled control plane stays
    // byte-identical.
    std::unique_ptr<QosGuardian> guardian_;
    std::unique_ptr<RandomSource> rng_;

    CacheStats stats_;
    Tick tick_ = 0;

    // Resize scheduling state.
    u64 globalResizePeriod_;
    Tick nextGlobalResize_;
    u64 resizeCycles_ = 0;
    Counter intervalAccesses_;
    Counter intervalMisses_;

    // Per-cluster app counter for default tile placement.
    std::vector<u32> appsPerCluster_;

    // Precomputed energy constants (nJ).
    double molProbeNj_ = 0.0;
    double molFillNj_ = 0.0;
    double tileFixedNj_ = 0.0;
    double ulmoHopNj_ = 0.0;
    double energyNj_ = 0.0;
    u64 probesTotal_ = 0;
    u64 enabledIntegral_ = 0;

    // Way-memoization state (docs/perf.md).  One table per ASID,
    // parallel to regionIndex_.  Entries survive region membership
    // churn: a prediction is re-validated live (ASID gate + home tile +
    // the verification probe), so only growth or ASID recycling drops
    // the table.
    struct WayMemo
    {
        static constexpr u64 kNoStamp = ~0ull;
        u64 gen = kNoStamp; ///< region generation last revalidated at
        u64 mask = 0; ///< slots.size() - 1 (power-of-two table)
        TileId homeTile{};
        std::vector<WayMemoEntry> slots;
    };
    std::vector<WayMemo> wayMemo_;
    /** On until the first transient flip, then off for good: a poisoned
     * slot must be discovered by the full in-order walk (probeTile
     * scrubs it), which a memo shortcut would skip. */
    bool wayMemoOn_ = true;
    u64 wayMemoHits_ = 0;
    u64 wayMemoMispredicts_ = 0;
    u64 wayMemoInvalidations_ = 0;
    /** @{ Memo-key geometry: lines per molecule, log2(lineSize) and
     * log2(lineSize * linesPerMolecule) (the molecule tag shift). */
    u32 linesPerMol_ = 0;
    u32 lineShift_ = 0;
    u32 tagShift_ = 0;
    /** @} */

    // moleculesPerTile as a shift (-1 when not a power of two).
    i32 molShift_ = -1;

    // Fault injection & audit state.
    FaultInjector injector_;
    FaultStats faultStats_;
    u64 auditInterval_ = 0;
    AuditHook auditHook_;
};

} // namespace molcache

#endif // MOLCACHE_CORE_MOLECULAR_CACHE_HPP
