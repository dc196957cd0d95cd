/**
 * @file
 * Ablation H: tile size and cluster shape at fixed total capacity.
 *
 * The paper prescribes 32-256 molecules per tile and 4-8 tiles per
 * cluster, and claims the resize-scheme choice depends on tile size
 * (section 3.4).  This bench fixes a 4 MiB molecular cache and sweeps
 * the tile/cluster shape, reporting deviation, worst-case access energy
 * (which grows with molecules per tile: every molecule performs the ASID
 * compare) and remote-hit share (which grows as tiles shrink: regions
 * overflow their home tile sooner).  All five shapes run as one sweep.
 */

#include <iostream>

#include "bench_common.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

// clusters x tiles x molecules-per-tile, all 4 MiB of 8 KiB molecules.
const struct
{
    u32 clusters, tiles, perTile;
} kShapes[] = {
    {1, 4, 128}, // 1MiB tiles (the fig-5 shape at 4MiB)
    {1, 8, 64},  // 512KiB tiles
    {2, 4, 64},  // 512KiB tiles, two clusters
    {2, 8, 32},  // 256KiB tiles, two clusters
    {4, 4, 32},  // 256KiB tiles, four clusters
};

std::string
shapeLabel(u32 clusters, u32 tiles, u32 perTile)
{
    return std::to_string(clusters) + " x " + std::to_string(tiles) +
           " x " + std::to_string(perTile);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("ablate_tilesize",
                  "Ablation: tile/cluster shape at fixed 4MiB capacity");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Tile-size ablation: 4MiB molecular cache, SPEC 4-app "
                  "workload, goal 10%, Randy");

    SweepSpec spec("ablate_tilesize");
    for (const auto &s : kShapes) {
        MolecularCacheParams p;
        p.moleculeSize = 8_KiB;
        p.clusters = s.clusters;
        p.tilesPerCluster = s.tiles;
        p.moleculesPerTile = s.perTile;
        p.placement = PlacementPolicy::Randy;
        spec.molecular(shapeLabel(s.clusters, s.tiles, s.perTile), p);
    }
    spec.workload("spec4", spec4Names())
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs)
        .inspect([](const SimJob &, CacheModel &model, MetricMap &extra) {
            auto &cache = dynamic_cast<MolecularCache &>(model);
            extra["worst_case_energy_nj"] = cache.worstCaseAccessEnergyNj();
        });

    const SweepReport report = bench::runSweep(cli, spec);

    TablePrinter table({"shape (cl x tiles x mols)", "tile size",
                        "avg deviation", "worst E/access (nJ)",
                        "avg E/access (nJ)", "remote hit share"});
    for (const auto &s : kShapes) {
        const auto &point =
            report.point(shapeLabel(s.clusters, s.tiles, s.perTile),
                         "spec4");
        const SimResult &r = point.result;
        const double hits =
            static_cast<double>(r.localHits + r.remoteHits);
        const Bytes tile_size = 8_KiB * s.perTile;

        table.row({shapeLabel(s.clusters, s.tiles, s.perTile),
                   formatSize(tile_size),
                   formatDouble(r.qos.averageDeviation, 4),
                   formatDouble(point.extra.at("worst_case_energy_nj"), 2),
                   formatDouble(r.avgEnergyPerAccessNj, 2),
                   hits > 0 ? formatDouble(r.remoteHits / hits, 3)
                            : "0"});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
