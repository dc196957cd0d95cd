/**
 * @file
 * Shared vocabulary of the benchmark harness: run configuration, the
 * metrics a workload reports, the pass loop, and the checks every
 * workload applies to its simulated outputs.
 *
 * A run is a sequence of PASSES.  A pass builds its inputs from the
 * seed, constructs and warms the model (set-up), feeds the measured
 * references, and derives a fingerprint of every simulated statistic.
 * Passes repeat until the run's time is used; because the program sees
 * only generated inputs, every pass of a run must produce the same
 * fingerprint, and a pass at the pinned seed must match the golden file.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <malloc.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "host_clock.hpp"

namespace perfbench {

/** The seed whose statistics are pinned in golden/<workload>.txt. */
inline constexpr std::uint64_t kPinnedSeed = 1;

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = kPinnedSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding <workload>.txt golden files. */
    std::string goldenDir;
    /** Rewrite the golden file from the pinned-seed pass. */
    bool updateGolden = false;
};

/** A measured value; main() owns the names' order and units. */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** What a workload hands back to main(). */
struct Outcome
{
    /** Passes whose outputs were checked / that failed a check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;
};

/**
 * Correctness bookkeeping across a run's passes.  A pass's checks go
 * through check(); finishPass() compares its fingerprint with the first
 * pass of the same seed and, at the pinned seed, with the golden file.
 */
class PassChecker
{
  public:
    explicit PassChecker(const RunConfig &config);

    /** Record one named check of the current pass. */
    void check(bool ok, const std::string &what);

    /** Close the current pass with its statistics fingerprint. */
    void finishPass(std::uint64_t seed, const std::string &fingerprint);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    const RunConfig &config_;
    std::string golden_;
    bool haveGolden_ = false;
    /** First fingerprint per seed seen in this run. */
    std::vector<std::pair<std::uint64_t, std::string>> first_;
    bool passFailed_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Calibrated samples of one kind of call, with their raw twins. */
struct CallSeries
{
    TimeSum total;
    std::vector<double> calNs;
    std::vector<double> rawNs;

    void
    add(double raw, double factor)
    {
        total.add(raw, factor);
        calNs.push_back(raw * factor);
        rawNs.push_back(raw);
    }
};

/** Count and time of one class of traced calls. */
struct CallClass
{
    std::uint64_t count = 0;
    TimeSum time;

    void
    add(double raw, double factor)
    {
        ++count;
        time.add(raw, factor);
    }

    /** Calibrated mean, in ns (0 when no call fell in the class). */
    double
    meanNs() const
    {
        return count == 0 ? 0.0 : time.calNs / static_cast<double>(count);
    }
};

/** Host-time record of one pass, common to every workload. */
struct PassTiming
{
    /** Set-up phases: input generation, then construction + warm-up. */
    TimeSum gen;
    TimeSum build;
    std::uint64_t genRefs = 0;
    /** References fed in the measured window. */
    std::uint64_t measuredRefs = 0;
    /** Untraced: one sample per accessBatch call. */
    CallSeries calls;
    /** Every timed call of the measured window, accessBatch included. */
    TimeSum measured;
    /** Measured window's wall time, slices excluded. */
    double windowRawNs = 0.0;
    /** Traced: (timed call time + calls x timer overhead) / window. */
    double coverage = 0.0;
    /** @{ Quantiles of `calls`, in us, set by summarizeCalls(). */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double rawP50Us = 0.0;
    double rawP99Us = 0.0;
    std::size_t callCount = 0;
    /** @} */

    /** Reduce `calls` to its quantiles and free the samples, so what a
     * run keeps per pass does not grow its resident set. */
    void summarizeCalls();
};

/** Every workload's pass type exposes its simulated outputs like this. */
struct SimOutputs
{
    std::string fingerprint;
    double missRate = 0.0;
    double avgDeviation = 0.0;
};

/**
 * The pass loop shared by every workload: one pinned-seed pass checked
 * against the golden file, then passes at the run's seed until
 * config.seconds have passed (at least one).  With config.trace each
 * untraced pass is followed by a traced one, and the run checks that
 * the traced calls account for the traced windows' wall time.
 * @p runPass is called as runPass(seed, traced) and returns a type with
 * `timing` (PassTiming) and `out` (SimOutputs) members.
 */
template <typename Pass, typename RunPass>
void
runPasses(const RunConfig &config, PassChecker &checker, RunPass &&runPass,
          std::vector<Pass> &plain, std::vector<Pass> &traced)
{
    // Each pass frees everything it built; handing the pages back keeps
    // the peak resident set that of one pass, not of the heap's
    // fragmentation after however many passes the host speed allowed.
    {
        const Pass golden = runPass(kPinnedSeed, false);
        checker.finishPass(kPinnedSeed, golden.out.fingerprint);
    }
    malloc_trim(0);
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(config.seconds * 1e9);
    std::vector<double> coverage;
    bool last = false;
    do {
        plain.push_back(runPass(config.seed, false));
        checker.finishPass(config.seed, plain.back().out.fingerprint);
        plain.back().timing.summarizeCalls();
        malloc_trim(0);
        if (config.trace) {
            traced.push_back(runPass(config.seed, true));
            coverage.push_back(traced.back().timing.coverage);
        }
        last = nowNs() >= deadline;
        if (config.trace) {
            // Checked on the run's median, with the last traced pass, so
            // one pass the host descheduled between calls cannot fail it.
            if (last)
                checker.check(median(coverage) > 0.9 &&
                                  median(coverage) < 1.1,
                              "traced calls do not account for the window");
            checker.finishPass(config.seed, traced.back().out.fingerprint);
            malloc_trim(0);
        }
    } while (!last);
}

/** Append the end-to-end metrics of @p plain passes to @p outcome, and
 * a note with the raw value of every calibrated one. */
void reportEndToEnd(const std::vector<const PassTiming *> &plain,
                    const SimOutputs &sim, const char *callName,
                    Outcome &outcome);

/** Append the per-layer metrics every workload shares: generation cost,
 * host diagnostics, trace overhead and coverage. */
void reportCommonLayers(const std::vector<const PassTiming *> &plain,
                        const std::vector<const PassTiming *> &traced,
                        Outcome &outcome);

/** Collect the PassTiming of each pass (helper for the reporters). */
template <typename Pass>
std::vector<const PassTiming *>
timings(const std::vector<Pass> &passes)
{
    std::vector<const PassTiming *> out;
    for (const Pass &p : passes)
        out.push_back(&p.timing);
    return out;
}

/** num / den, 0 when den is 0. */
inline double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** The three workloads (see README.md for why each was chosen). */
Outcome runFig5Spec4(const RunConfig &config);
Outcome runTable2Mixed12(const RunConfig &config);
Outcome runMolcachedChurn(const RunConfig &config);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
