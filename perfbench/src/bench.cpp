#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string
goldenPath(const RunConfig &config)
{
    return config.goldenDir + "/" + config.workload + ".txt";
}

/** Peak resident set of this process so far, in MiB. */
double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

PassChecker::PassChecker(const RunConfig &config) : config_(config)
{
    if (config.updateGolden)
        return;
    std::ifstream in(goldenPath(config));
    if (!in) {
        std::fprintf(stderr, "perfbench: cannot read %s\n",
                     goldenPath(config).c_str());
        std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    golden_ = text.str();
    haveGolden_ = true;
}

void
PassChecker::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    passFailed_ = true;
}

void
PassChecker::finishPass(std::uint64_t seed, const std::string &fingerprint)
{
    if (seed == kPinnedSeed) {
        if (config_.updateGolden && !haveGolden_) {
            std::ofstream out(goldenPath(config_));
            out << fingerprint;
            check(static_cast<bool>(out), "cannot write the golden file");
            golden_ = fingerprint;
            haveGolden_ = true;
        }
        check(fingerprint == golden_,
              "statistics differ from golden/" + config_.workload + ".txt");
    }
    bool seen = false;
    for (const auto &[s, first] : first_) {
        if (s != seed)
            continue;
        seen = true;
        check(fingerprint == first,
              "statistics differ between passes of one seed");
    }
    if (!seen)
        first_.emplace_back(seed, fingerprint);
    ++attempted_;
    if (passFailed_)
        ++failed_;
    passFailed_ = false;
}

void
PassTiming::summarizeCalls()
{
    callCount = calls.calNs.size();
    p50Us = quantile(calls.calNs, 0.5) * 1e-3;
    p99Us = quantile(calls.calNs, 0.99) * 1e-3;
    rawP50Us = quantile(calls.rawNs, 0.5) * 1e-3;
    rawP99Us = quantile(calls.rawNs, 0.99) * 1e-3;
    std::vector<double>().swap(calls.calNs);
    std::vector<double>().swap(calls.rawNs);
}

void
reportEndToEnd(const std::vector<const PassTiming *> &plain,
               const SimOutputs &sim, const char *callName, Outcome &outcome)
{
    // Every timing is taken per pass and reported as the median over
    // passes, so one pass disturbed by the host cannot move it.
    struct Series
    {
        std::vector<double> cal;
        std::vector<double> raw;
    } refsPerS, p50, p99, setup;
    size_t samples = 0;
    TimeSum measured;
    for (const PassTiming *p : plain) {
        const auto refs = static_cast<double>(p->measuredRefs);
        refsPerS.cal.push_back(refs / (p->measured.calNs * 1e-9));
        refsPerS.raw.push_back(refs / (p->measured.rawNs * 1e-9));
        p50.cal.push_back(p->p50Us);
        p50.raw.push_back(p->rawP50Us);
        p99.cal.push_back(p->p99Us);
        p99.raw.push_back(p->rawP99Us);
        setup.cal.push_back((p->gen.calNs + p->build.calNs) * 1e-9);
        setup.raw.push_back((p->gen.rawNs + p->build.rawNs) * 1e-9);
        samples = std::min(samples == 0 ? p->callCount : samples,
                           p->callCount);
        measured.rawNs += p->measured.rawNs;
        measured.calNs += p->measured.calNs;
    }
    outcome.metrics.insert(outcome.metrics.end(),
                           {
                               {"refs_per_s", median(refsPerS.cal)},
                               {"call_us_p50", median(p50.cal)},
                               {"call_us_p99", median(p99.cal)},
                               {"setup_s", median(setup.cal)},
                               {"peak_rss_mib", peakRssMib()},
                               {"sim_miss_rate", sim.missRate},
                               {"sim_avg_deviation", sim.avgDeviation},
                           });
    char note[512];
    std::snprintf(note, sizeof note,
                  "%zu passes of at least %zu %s calls each; raw "
                  "(uncalibrated) values: refs_per_s %.6g, call_us_p50 "
                  "%.6g, call_us_p99 %.6g, setup_s %.6g; calibration "
                  "factor %.4f",
                  plain.size(), samples, callName, median(refsPerS.raw),
                  median(p50.raw), median(p99.raw), median(setup.raw),
                  measured.calNs / measured.rawNs);
    outcome.notes.push_back(note);
}

void
reportCommonLayers(const std::vector<const PassTiming *> &plain,
                   const std::vector<const PassTiming *> &traced,
                   Outcome &outcome)
{
    std::vector<double> genNsPerRef;
    std::vector<double> rawRefsPerS;
    TimeSum measured;
    for (const PassTiming *p : plain) {
        genNsPerRef.push_back(p->gen.calNs /
                              static_cast<double>(p->genRefs));
        rawRefsPerS.push_back(static_cast<double>(p->measuredRefs) /
                              (p->measured.rawNs * 1e-9));
        measured.rawNs += p->measured.rawNs;
        measured.calNs += p->measured.calNs;
    }
    std::vector<double> overhead;
    std::vector<double> coverage;
    for (size_t i = 0; i < traced.size(); ++i) {
        overhead.push_back(traced[i]->windowRawNs / plain[i]->windowRawNs);
        coverage.push_back(traced[i]->coverage);
    }
    outcome.metrics.insert(
        outcome.metrics.end(),
        {
            {"workload.gen_ns_per_ref", median(genNsPerRef)},
            {"host.raw_refs_per_s", median(rawRefsPerS)},
            {"host.calibration_factor", measured.calNs / measured.rawNs},
            {"trace.overhead_ratio", median(overhead)},
            {"trace.coverage", median(coverage)},
        });
}

} // namespace perfbench
