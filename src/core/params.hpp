/**
 * @file
 * Configuration of a molecular cache instance.
 *
 * Terminology (paper section 3):
 *  - molecule: small direct-mapped caching unit (8-32 KB, 64 B lines);
 *  - tile: 32-256 molecules behind one read/write port; each processor is
 *    assigned to a tile;
 *  - tile cluster: 4-8 tiles managed by one controller (Ulmo) that handles
 *    tile misses and inter-cluster coherence;
 *  - region/partition: the set of molecules configured with one
 *    application's ASID.
 */

#ifndef MOLCACHE_CORE_PARAMS_HPP
#define MOLCACHE_CORE_PARAMS_HPP

#include <string>

#include "util/random.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace molcache {

/** Molecule-selection policy on replacement (paper section 3.3). */
enum class PlacementPolicy
{
    /** Any molecule of the region, uniformly at random. */
    Random,
    /**
     * Randy: the replacement view's row is fixed by the address
     * (row = (addr / moleculeSize) mod rowMax), and a random molecule of
     * that row is chosen; rows can have different widths (variable way
     * size / adaptive associativity).
     */
    Randy,
    /**
     * LRU-Direct (the paper's future-work scheme, section 5): the region
     * acts as one associative set per molecule index — the displaced
     * slot is the least-recently-touched one among the region's
     * molecules at the address's index (direct-mapped within a molecule,
     * LRU across molecules).  Costly in hardware (global recency state);
     * included to evaluate what Random/Randy give up.
     */
    LruDirect,
};

/** When the resize daemon runs (paper section 3.4, "When to add?"). */
enum class ResizeScheme
{
    /** Fixed address count between resizes. */
    Constant,
    /**
     * One global period adapted from the overall cache miss rate:
     * under goal => period doubles, over => period drops to 10 %.
     */
    GlobalAdaptive,
    /** Per-application periods adapted from each application's miss rate. */
    PerAppAdaptive,
};

/** Initial partition size ("Ground Zero" in section 3.4). */
enum class InitialAllocation
{
    /** A very small start (params.initialMolecules, default 2). */
    Small,
    /** Half the molecules of the home tile (the paper's default). */
    HalfTile,
    /** Everything free on the home tile. */
    FullTile,
};

PlacementPolicy parsePlacementPolicy(const std::string &text);
std::string placementPolicyName(PlacementPolicy p);
ResizeScheme parseResizeScheme(const std::string &text);
std::string resizeSchemeName(ResizeScheme s);

/**
 * QoS guardian configuration (docs/algorithm1.md, "Guardrails").
 * Default off — a disabled guardian never touches the control plane, so
 * sweeps stay byte-identical to the unguarded build.  The guard
 * thresholds are fixed constants (core/guardian.hpp, kGuardian* and
 * kHint*).
 */
struct GuardianParams
{
    bool enabled = false;
    /** Default per-region capacity floor in molecules (0 = no floor);
     * overridable per region via MolecularCache::setRegionFloor. */
    u32 floorMolecules = 2;
    /**
     * Predictive apportioning on top of the guardian (docs/algorithm1.md,
     * "Predictive mode & hint trust").  Default off — with it disabled
     * the guardian never reads a phase hint and never pre-provisions, so
     * every guardian-on run stays byte-identical to the reactive control
     * plane (and guardian-off paper sweeps stay byte-identical, full
     * stop).
     */
    bool predictive = false;
};

struct MolecularCacheParams
{
    /** Molecule capacity (paper: 8-32 KB). */
    Bytes moleculeSize = 8_KiB;
    /** Molecule line size in bytes (paper: 64). */
    u32 lineSize = 64;
    /** Molecules per tile (paper: 32-256). */
    u32 moleculesPerTile = 64;
    /** Tiles per cluster (paper: 4-8). */
    u32 tilesPerCluster = 4;
    /** Number of tile clusters. */
    u32 clusters = 1;

    PlacementPolicy placement = PlacementPolicy::Randy;
    ResizeScheme resizeScheme = ResizeScheme::GlobalAdaptive;

    /** Initial resize period, in addresses serviced (paper: ~25000). */
    u64 resizePeriod = 25000;
    /** Clamp for the adaptive period. */
    u64 minResizePeriod = 2500;
    u64 maxResizePeriod = 800000;

    /** Largest molecule grant in one resize step ("How much to add?"). */
    u32 maxAllocationChunk = 32;
    /**
     * Minimum references a partition must have seen before a resize
     * decision is taken on it; below this the interval keeps
     * accumulating.  Guards the adaptive schemes (whose period can drop
     * to 10%) against deciding on statistically meaningless samples.
     */
    u64 minIntervalSample = 2000;

    InitialAllocation initialAllocation = InitialAllocation::HalfTile;
    /** Molecules for InitialAllocation::Small. */
    u32 initialMolecules = 2;

    /** Default region line-size multiple (1 => 64 B, 2 => 128 B, ...). */
    u32 defaultLineMultiple = 1;

    /** Miss-rate goal for applications that were never registered
     * explicitly (the paper uses default goals when none is provided). */
    double defaultMissRateGoal = 0.1;

    /** RNG used for molecule selection (hardware-RNG ablation). */
    RngKind rngKind = RngKind::Pcg32;
    u64 seed = 1;

    /** QoS guardian around the resizer (admission control, hysteresis,
     * floors, watchdog); off by default. */
    GuardianParams guardian;

    /**
     * Hard-fault detections a molecule's failure counter must reach
     * before the molecule is decommissioned (fenced off permanently).
     * 1 = decommission on first detection; higher values model ECC-style
     * correct-then-count policies.  See docs/fault_model.md.
     */
    u32 hardFaultThreshold = 1;

    /** @{ Latency model, in cache cycles.  The ASID comparison adds one
     * pipeline stage to every molecule access (paper section 3.1); tile
     * misses pay an Ulmo hop per remote tile visited (section 3.3). */
    Cycles asidStageCycles{1};
    Cycles moleculeAccessCycles{1};
    Cycles ulmoHopCycles{4};
    Cycles missPenaltyCycles{200};
    /** @} */

    u32 totalTiles() const { return clusters * tilesPerCluster; }
    u32 totalMolecules() const { return totalTiles() * moleculesPerTile; }
    Bytes tileSizeBytes() const { return moleculeSize * moleculesPerTile; }
    Bytes clusterSizeBytes() const
    {
        return tileSizeBytes() * tilesPerCluster;
    }
    Bytes totalSizeBytes() const { return clusterSizeBytes() * clusters; }
    u32 linesPerMolecule() const
    {
        return static_cast<u32>(moleculeSize.value() / lineSize);
    }

    /** fatal() on incoherent geometry. */
    void validate() const;
};

} // namespace molcache

#endif // MOLCACHE_CORE_PARAMS_HPP
