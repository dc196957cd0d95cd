#include "sim/experiment.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

namespace molcache {

SetAssocParams
traditionalParams(Bytes sizeBytes, u32 associativity, u64 seed)
{
    SetAssocParams p;
    p.sizeBytes = sizeBytes;
    p.associativity = associativity;
    p.lineSize = 64;
    p.replacement = ReplPolicy::Lru;
    p.ports = 4; // the paper's traditional comparison point (Table 3)
    p.seed = seed;
    return p;
}

MolecularCacheParams
fig5MolecularParams(Bytes totalSizeBytes, PlacementPolicy placement,
                    u64 seed)
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.lineSize = 64;
    p.tilesPerCluster = 4;
    p.clusters = 1;
    const Bytes tile_bytes = totalSizeBytes / 4;
    if ((tile_bytes % p.moleculeSize).value() != 0)
        fatal("figure-5 size ", totalSizeBytes,
              " not divisible into 4 tiles of 8KiB molecules");
    p.moleculesPerTile = static_cast<u32>(tile_bytes / p.moleculeSize);
    p.placement = placement;
    p.seed = seed;
    return p;
}

MolecularCacheParams
table2MolecularParams(PlacementPolicy placement, u64 seed)
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.lineSize = 64;
    p.tilesPerCluster = 4;
    p.clusters = 3;
    p.moleculesPerTile = 64; // 512 KiB tiles -> 2 MiB clusters, 6 MiB total
    p.placement = placement;
    p.seed = seed;
    return p;
}

void
registerApplications(MolecularCache &cache, u32 count, double resizeGoal)
{
    const u32 clusters = cache.params().clusters;
    const u32 per_cluster = (count + clusters - 1) / clusters;
    for (u32 i = 0; i < count; ++i) {
        const ClusterId cluster{i / per_cluster};
        const u32 tile = (i % per_cluster) % cache.params().tilesPerCluster;
        cache.registerApplication(Asid{static_cast<u16>(i)}, resizeGoal,
                                  cluster, tile,
                                  cache.params().defaultLineMultiple);
    }
}

SimResult
runWorkload(const std::vector<std::string> &profiles, CacheModel &model,
            const RunOptions &options)
{
    const u64 refs = options.totalReferences != 0 ? options.totalReferences
                                                  : kPaperTraceLength;
    auto source =
        makeMultiProgramSource(profiles, refs, MixPolicy::RoundRobin,
                               options.seed);
    RunOptions run = options;
    if (run.labels.empty())
        run.labels = labelMap(profiles);
    return Simulator::run(*source, model, run);
}

GoalSet
deriveGoalsFromSolo(const std::vector<std::string> &profiles,
                    const SetAssocParams &reference,
                    const RunOptions &options, double slackFactor,
                    double minGoal)
{
    if (slackFactor < 1.0)
        fatal("goal slack factor must be >= 1");
    const u64 refs_per_app =
        options.totalReferences != 0 ? options.totalReferences : 500'000;
    GoalSet goals;
    for (size_t i = 0; i < profiles.size(); ++i) {
        SetAssocCache solo(reference);
        TraceGenerator gen(profileByName(profiles[i]), Asid{0},
                           refs_per_app, options.seed);
        while (auto a = gen.next())
            solo.access(*a);
        const double mr = solo.stats().global().missRate();
        const double goal =
            std::clamp(mr * slackFactor, minGoal, 1.0);
        goals.set(Asid{static_cast<u16>(i)}, goal);
    }
    return goals;
}

} // namespace molcache
