/**
 * @file
 * The acceptance bar for the parallel sweep engine: a fig5-sized sweep
 * (24 models x 2 workloads) on 8 threads must finish at least 4x faster
 * than on 1 thread while producing a byte-identical report.  The wall
 * clock only means something with real cores underneath, so the speedup
 * assertion skips (and the byte-identity half still runs) when the host
 * has fewer than 8 hardware threads.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "exec/sweep.hpp"
#include "sim/experiment.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

namespace molcache {
namespace {

/** The fig5 grid (6 kinds x 4 sizes x 2 goal graphs) at short length. */
SweepSpec
fig5SizedSpec(u64 refs)
{
    GoalSet graph_a = GoalSet::uniform(0.1, 4);
    GoalSet graph_b;
    graph_b.set(Asid{0}, 0.1);
    graph_b.set(Asid{1}, 0.1);
    graph_b.set(Asid{2}, 0.1);

    SweepSpec spec("fig5_scaling");
    for (const Bytes size : {1_MiB, 2_MiB, 4_MiB, 8_MiB}) {
        std::string tag = "@";
        tag += formatSize(size); // avoids gcc-12's operator+ restrict FP
        spec.setAssoc("DM" + tag, traditionalParams(size, 1));
        spec.setAssoc("2-way" + tag, traditionalParams(size, 2));
        spec.setAssoc("4-way" + tag, traditionalParams(size, 4));
        spec.setAssoc("8-way" + tag, traditionalParams(size, 8));
        spec.molecular("Mol(Random)" + tag,
                       fig5MolecularParams(size, PlacementPolicy::Random));
        spec.molecular("Mol(Randy)" + tag,
                       fig5MolecularParams(size, PlacementPolicy::Randy));
    }
    spec.workload("graphA", spec4Names(), graph_a)
        .workload("graphB", spec4Names(), graph_b)
        .goals(graph_a)
        .registrationGoal(0.1)
        .references(refs);
    return spec;
}

TEST(SweepScaling, EightThreadsBeatSerialByFourX)
{
    // Byte-identity across thread counts holds on any host; keep the
    // trace short enough that the serial leg stays test-suite friendly.
    const u64 refs = 20000;
    const SweepReport serial = runSweep(fig5SizedSpec(refs), 1);
    const SweepReport parallel = runSweep(fig5SizedSpec(refs), 8);

    ASSERT_EQ(serial.points.size(), 48u);
    std::ostringstream serial_json, parallel_json;
    serial.writeJson(serial_json);
    parallel.writeJson(parallel_json);
    EXPECT_EQ(serial_json.str(), parallel_json.str());

    if (std::thread::hardware_concurrency() < 8)
        GTEST_SKIP() << "speedup needs >= 8 hardware threads, have "
                     << std::thread::hardware_concurrency();

    // Re-time with a workload long enough for per-point setup to vanish
    // into the noise (the short legs above were correctness-only).
    const u64 timed_refs = 150000;
    const SweepReport timed_serial = runSweep(fig5SizedSpec(timed_refs), 1);
    const SweepReport timed_parallel =
        runSweep(fig5SizedSpec(timed_refs), 8);
    EXPECT_GE(timed_serial.wallSeconds / timed_parallel.wallSeconds, 4.0)
        << "serial " << timed_serial.wallSeconds << "s vs parallel "
        << timed_parallel.wallSeconds << "s";
}

} // namespace
} // namespace molcache
