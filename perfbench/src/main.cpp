/**
 * @file
 * perfbench: the end-to-end benchmark of molcache.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --golden <dir> [--update-golden]
 *
 * Prints human-readable notes, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1.  perfbench/run.py
 * builds this binary and is the entry point; README.md documents the
 * workloads and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

/** Every metric a run prints, in order (BENCHMARK.json lists the same
 * names).  A per-layer metric a workload does not exercise reads 0. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec kEndToEnd[] = {
    {"refs_per_s", "1/s"},      {"call_us_p50", "us"},
    {"call_us_p99", "us"},      {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},    {"sim_miss_rate", "ratio"},
    {"sim_avg_deviation", "ratio"},
};

const MetricSpec kPerLayer[] = {
    {"core.home_hit.count", "count"},
    {"core.home_hit.ns_mean", "ns"},
    {"core.home_hit.ns_p50", "ns"},
    {"core.way_memo.coverage", "ratio"},
    {"core.way_memo.hit_ratio", "ratio"},
    {"core.ulmo_hit.count", "count"},
    {"core.ulmo_hit.ns_mean", "ns"},
    {"core.miss.count", "count"},
    {"core.miss.ns_mean", "ns"},
    {"core.directory.fills", "count"},
    {"core.directory.entries", "count"},
    {"core.resize.count", "count"},
    {"core.resize.ns_mean", "ns"},
    {"core.probes_per_access", "count"},
    {"service.access.home_hit.ns_mean", "ns"},
    {"service.access.ulmo_hit.ns_mean", "ns"},
    {"service.access.miss.ns_mean", "ns"},
    {"service.epoch.count", "count"},
    {"service.epoch.us_p50", "us"},
    {"service.epoch.us_max", "us"},
    {"service.epoch.time_share", "ratio"},
    {"service.attach.count", "count"},
    {"service.attach.us_p50", "us"},
    {"service.attach.rejected", "count"},
    {"service.detach.us_p50", "us"},
    {"service.shard_skew", "ratio"},
    {"workload.gen_ns_per_ref", "ns"},
    {"host.raw_refs_per_s", "1/s"},
    {"host.calibration_factor", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fig5_spec4|table2_mixed12|molcached_churn --seed N "
                 "--seconds S --trace 0|1 --golden DIR [--update-golden]\n",
                 why);
    std::exit(2);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig config;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--update-golden") {
            config.updateGolden = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            config.workload = value;
        else if (arg == "--seed")
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            config.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            config.trace = value == "1";
            haveTrace = true;
        } else if (arg == "--golden")
            config.goldenDir = value;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (config.goldenDir.empty() || !haveTrace || !(config.seconds > 0.0))
        usage("--golden, --trace and a positive --seconds are required");

    Outcome outcome;
    if (config.workload == "fig5_spec4")
        outcome = runFig5Spec4(config);
    else if (config.workload == "table2_mixed12")
        outcome = runTable2Mixed12(config);
    else if (config.workload == "molcached_churn")
        outcome = runMolcachedChurn(config);
    else
        usage("unknown workload");

    for (const std::string &note : outcome.notes)
        std::printf("%s\n", note.c_str());
    const double failedRatio =
        static_cast<double>(outcome.failed) /
        static_cast<double>(outcome.attempted);
    std::printf("%-34s %.6g (%llu of %llu checked passes)\n",
                "failed_ratio", failedRatio,
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));

    std::string json = "{\"correct\": ";
    json += outcome.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    bool firstMetric = true;
    const auto emit = [&](const MetricSpec &spec) {
        double value = 0.0;
        bool present = false;
        for (const Metric &m : outcome.metrics) {
            if (m.name == spec.name) {
                value = m.value;
                present = true;
            }
        }
        if (!present && !config.trace) {
            std::fprintf(stderr, "perfbench: %s not measured\n", spec.name);
            std::exit(1);
        }
        std::printf("%-34s %.10g %s\n", spec.name, value, spec.unit);
        char text[64];
        std::snprintf(text, sizeof text, "%.17g", value);
        json += firstMetric ? "" : ", ";
        json += std::string("\"") + spec.name + "\": {\"value\": " + text +
                ", \"unit\": \"" + spec.unit + "\"}";
        firstMetric = false;
    };
    if (config.trace) {
        for (const MetricSpec &spec : kPerLayer)
            emit(spec);
    } else {
        for (const MetricSpec &spec : kEndToEnd)
            emit(spec);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
