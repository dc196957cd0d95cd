/**
 * @file
 * Fault drill: a guided tour of the fault-injection and graceful-
 * degradation machinery (docs/fault_model.md).
 *
 * The walkthrough: build a small molecular cache, warm two applications,
 * then (1) corrupt a line and watch parity catch it, (2) hard-fault
 * molecules until a tile outage fences a whole tile, and (3) let the
 * resizer re-acquire capacity while the invariant audit rides along,
 * verifying every layer's bookkeeping after each blow.
 */

#include <cstdio>

#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"
#include "fault/invariant_checker.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"

using namespace molcache;

namespace {

void
audit(const MolecularCache &cache, const char *when)
{
    const auto rep = InvariantChecker::check(cache);
    std::printf("  audit %-28s %llu checks, %s\n", when,
                static_cast<unsigned long long>(rep.checksRun),
                rep.ok() ? "all invariants hold" : "VIOLATIONS:");
    for (const auto &v : rep.violations)
        std::printf("    - %s\n", v.c_str());
}

void
drive(MolecularCache &cache, AccessSource &source, u64 refs)
{
    for (u64 i = 0; i < refs; ++i) {
        const auto a = source.next();
        if (!a)
            break;
        cache.access(*a);
    }
}

} // namespace

int
main()
{
    // 1. A small cache so single faults are visible: 1 cluster x 4 tiles
    //    x 16 molecules of 8 KiB => 512 KiB.
    MolecularCacheParams params;
    params.moleculeSize = 8_KiB;
    params.moleculesPerTile = 16;
    params.tilesPerCluster = 4;
    params.clusters = 1;
    params.hardFaultThreshold = 2; // ECC-style: decommission on the 2nd hit

    MolecularCache cache(params);
    // Loose goals leave free molecules in the pool — that headroom is
    // what the post-fault re-acquisition draws from.
    cache.registerApplication(Asid{0}, 0.10, ClusterId{0}, /*tile=*/0, 1);
    cache.registerApplication(Asid{1}, 0.50, ClusterId{0}, /*tile=*/1, 1);

    // The invariant audit runs every 10k accesses for the whole drill.
    InvariantChecker::attach(cache, 10'000);

    auto source = makeMultiProgramSource({"ammp", "gcc"}, 400'000);
    drive(cache, *source, 100'000);
    std::printf("warmed up: region0=%u region1=%u free=%u molecules\n",
                cache.region(Asid{0}).size(), cache.region(Asid{1}).size(),
                cache.freeMolecules());
    audit(cache, "after warmup:");

    // 2. Transient flip: corrupt a line in a region molecule.  Parity
    //    catches it on the next probe of the slot and treats it as a
    //    miss; a corrupt dirty line is data loss, never written back.
    const MoleculeId victim = cache.region(Asid{0}).rows()[0][0];
    SimAccess{cache}.injectTransientFlip(victim, 3);
    drive(cache, *source, 50'000);
    std::printf("transient flip into molecule %u: %llu detected, "
                "%llu dirty lines lost\n", victim.value(),
                static_cast<unsigned long long>(
                    cache.faultStats().transientFlipsDetected),
                static_cast<unsigned long long>(
                    cache.faultStats().dirtyLinesLost));
    audit(cache, "after transient flip:");

    // 3. Hard faults: the first detection only counts (threshold 2), the
    //    second fences the molecule — its ASID gate never matches again
    //    and the owning region notes the capacity loss.
    SimAccess{cache}.injectHardFault(victim);
    std::printf("hard fault #1 on molecule %u: decommissioned=%s\n",
                victim.value(),
                cache.molecule(victim).decommissioned() ? "yes" : "no");
    SimAccess{cache}.injectHardFault(victim);
    std::printf("hard fault #2 on molecule %u: decommissioned=%s, "
                "region0 lost %llu molecule(s)\n", victim.value(),
                cache.molecule(victim).decommissioned() ? "yes" : "no",
                static_cast<unsigned long long>(
                    cache.region(Asid{0}).moleculesLost));
    audit(cache, "after decommission:");

    // 4. Whole-tile outage on app 1's home tile.  Everything on the tile
    //    is fenced at once; the region rebuilds from the cluster's other
    //    tiles on the following resize epochs.
    SimAccess{cache}.injectTileOutage(TileId{1});
    std::printf("tile 1 outage: %u molecules decommissioned, "
                "region1=%u molecules\n",
                cache.decommissionedMolecules(), cache.region(Asid{1}).size());
    audit(cache, "after tile outage:");

    // 5. Recovery: keep running; the resizer re-grants capacity ahead of
    //    its normal Algorithm-1 decision until the pool is drained or the
    //    holes are plugged, then steers back to the miss-rate goals.
    drive(cache, *source, 250'000);
    std::printf("after recovery: region0=%u region1=%u free=%u | "
                "recovery grants %llu | region1 reconverged in %u epochs%s\n",
                cache.region(Asid{0}).size(), cache.region(Asid{1}).size(),
                cache.freeMolecules(),
                static_cast<unsigned long long>(
                    cache.resizer().recoveryGrants()),
                cache.region(Asid{1}).lastRecoveryEpochs,
                cache.region(Asid{1}).recovering ? " (still recovering)" : "");
    audit(cache, "after recovery:");

    std::printf("invariant audits run during the drill: %llu\n",
                static_cast<unsigned long long>(InvariantChecker::auditsRun()));
    return 0;
}
