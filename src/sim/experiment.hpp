/**
 * @file
 * Canned experiment configurations — one helper per paper table/figure,
 * shared by the bench harness, the examples and the integration tests.
 * See DESIGN.md's per-experiment index for the mapping.
 */

#ifndef MOLCACHE_SIM_EXPERIMENT_HPP
#define MOLCACHE_SIM_EXPERIMENT_HPP

#include <memory>
#include <string>
#include <vector>

#include "cache/set_assoc.hpp"
#include "core/molecular_cache.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace molcache {

/** References per experiment; the paper's traces held ~3.9 M. */
inline constexpr u64 kPaperTraceLength = 3'900'000;

/** Traditional baseline geometry used throughout the evaluation. */
SetAssocParams traditionalParams(Bytes sizeBytes, u32 associativity,
                                 u64 seed = 1);

/**
 * Molecular geometry for Figure 5: 4 tiles in one cluster, 8 KiB
 * molecules, tile size = totalSize/4 (256 KiB at 1 MB ... 2 MiB at 8 MB).
 */
MolecularCacheParams fig5MolecularParams(Bytes totalSizeBytes,
                                         PlacementPolicy placement,
                                         u64 seed = 1);

/**
 * Molecular geometry for Table 2: 3 clusters x 4 tiles x 512 KiB tiles
 * (64 x 8 KiB molecules), 6 MiB total.
 */
MolecularCacheParams table2MolecularParams(PlacementPolicy placement,
                                           u64 seed = 1);

/**
 * Register the named applications (ASIDs 0..n-1) on @p cache with
 * @p resizeGoal, grouping them over clusters contiguously as the paper
 * does for the mixed workload (apps i*perCluster .. go to cluster i).
 */
void registerApplications(MolecularCache &cache, u32 count,
                          double resizeGoal);

/**
 * Run one multiprogrammed workload, its applications interleaved
 * round-robin, against one model.  Seeds, reference counts, goals,
 * labels and warmup all come from @p options (one path instead of three
 * positional tails):
 *  - options.totalReferences: merged references (0 = kPaperTraceLength)
 *  - options.labels: defaulted to the profile names when empty
 */
SimResult runWorkload(const std::vector<std::string> &profiles,
                      CacheModel &model, const RunOptions &options);

/**
 * Derive per-application miss-rate goals by profiling: each profile runs
 * alone on a reference cache and its goal is set to
 * clamp(soloMissRate * slackFactor, minGoal, 1).  The paper assumes
 * goals are given ("the derivation of the miss rate goal is outside the
 * scope of this paper"); this helper is the obvious derivation an
 * operator would use.
 *
 * Seeding and the per-solo-run reference count come from @p options
 * (options.totalReferences; 0 = 500'000 references per app) so they
 * thread through the same RunOptions path as every other entry point.
 *
 * @param profiles     profile names; ASIDs are assigned 0..n-1 in order
 * @param reference    geometry of the solo profiling cache
 * @param slackFactor  goal = solo miss rate x this (>= 1 leaves headroom)
 * @param minGoal      floor so near-zero solo rates get a usable goal
 */
GoalSet deriveGoalsFromSolo(const std::vector<std::string> &profiles,
                            const SetAssocParams &reference,
                            const RunOptions &options,
                            double slackFactor = 1.5,
                            double minGoal = 0.02);

// The positional deriveGoalsFromSolo(profiles, reference, slackFactor,
// minGoal, refsPerApp, seed) overload was removed one release after the
// RunOptions API landed; the lint rule rejects reintroduction.

} // namespace molcache

#endif // MOLCACHE_SIM_EXPERIMENT_HPP
