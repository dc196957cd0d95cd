/**
 * @file
 * The sweep engine's headline guarantee: the deterministic JSON report
 * is byte-identical for any thread count.  The spec here deliberately
 * covers every placement policy, all three model kinds and a faulted
 * molecular configuration — the cases where hidden shared state (RNG
 * streams, fault schedules, contract counters) would first leak between
 * concurrently running jobs.  Run under ASan/UBSan via the asan preset
 * and under TSan via the tsan preset.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "cache/way_partitioned.hpp"
#include "exec/sweep.hpp"
#include "sim/experiment.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

namespace molcache {
namespace {

constexpr u64 kRefs = 30000;

/**
 * FNV-1a (64-bit) of runToJson(1).  Refreshing this constant is an
 * explicit, reviewed act, like recapturing BENCH_hotpath.json: a change
 * here means the simulator now computes different results for the
 * coverage spec, and the commit must say why.
 */
constexpr u64 kSerialJsonDigest = 0x69050fd63d8de127ull;

u64
fnv1a64(const std::string &bytes)
{
    u64 h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** All placement policies, every model kind, a faulted config and a
 * multi-cluster molecular config. */
SweepSpec
coverageSpec()
{
    WayPartitionedParams wp;
    wp.sizeBytes = 512_KiB;
    wp.associativity = 8;

    FaultScheduleSpec faults;
    faults.hardFraction = 0.1;
    faults.transientFlips = 50;

    SweepSpec spec("determinism");
    spec.setAssoc("4way", traditionalParams(512_KiB, 4))
        .wayPartitioned("wp8", wp)
        .molecular("random",
                   fig5MolecularParams(1_MiB, PlacementPolicy::Random))
        .molecular("randy",
                   fig5MolecularParams(1_MiB, PlacementPolicy::Randy))
        .molecular("lru-direct",
                   fig5MolecularParams(1_MiB, PlacementPolicy::LruDirect))
        .molecular("randy-faulted",
                   fig5MolecularParams(1_MiB, PlacementPolicy::Randy),
                   faults)
        // Three clusters: the only entry whose coherence directory can
        // invalidate across clusters.
        .molecular("table2-randy",
                   table2MolecularParams(PlacementPolicy::Randy))
        .workload("spec4", spec4Names())
        .workload("pair", {"ammp", "mcf"})
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({1, 2})
        .references(kRefs)
        .inspect([](const SimJob &, CacheModel &model, MetricMap &extra) {
            if (auto *mol = dynamic_cast<MolecularCache *>(&model))
                extra["enabled"] = mol->averageEnabledMolecules();
        });
    return spec;
}

std::string
runToJson(u32 threads)
{
    const SweepReport report = runSweep(coverageSpec(), threads);
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

TEST(SweepDeterminism, ParallelJsonIsByteIdenticalToSerial)
{
    const std::string serial = runToJson(1);
    EXPECT_FALSE(serial.empty());
    // 8 workers even on smaller machines: oversubscription shuffles the
    // schedule harder, which is exactly what the contract must survive.
    const std::string parallel = runToJson(8);
    EXPECT_EQ(serial, parallel)
        << "sweep JSON must not depend on thread count";
}

TEST(SweepDeterminism, SerialJsonMatchesCommittedDigest)
{
    const u64 digest = fnv1a64(runToJson(1));
    EXPECT_EQ(digest, kSerialJsonDigest)
        << "sweep results changed: digest is 0x" << std::hex << digest;
}

TEST(SweepDeterminism, RepeatedParallelRunsAgree)
{
    EXPECT_EQ(runToJson(4), runToJson(4));
}

} // namespace
} // namespace molcache
