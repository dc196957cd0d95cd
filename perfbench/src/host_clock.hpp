/**
 * @file
 * Calibrated host time.
 *
 * On a shared host the speed of one core drifts by tens of percent
 * within a minute, so a raw duration says as much about the neighbours
 * as about the code.  The benchmark therefore owns a fixed reference
 * loop (no molcache code) and runs a short slice of it every 20 ms
 * between timed calls.  Each timed interval is scaled by
 * nominal / current slice time, where "current" is the median of the
 * last few slices: an interval that ran while the host was slow is
 * shrunk by the same proportion the reference loop was slowed.  Raw and
 * calibrated sums are both kept so the factor can be audited.
 */

#ifndef PERFBENCH_HOST_CLOCK_HPP
#define PERFBENCH_HOST_CLOCK_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
}

class Calibration
{
  public:
    Calibration();

    Calibration(const Calibration &) = delete;
    Calibration &operator=(const Calibration &) = delete;

    /** Run a slice if the last one is at least kPeriodNs old; @p now is
     * a timestamp the caller already has.  Call only between timed
     * intervals. */
    void
    maybeSlice(std::int64_t now)
    {
        if (now - lastSliceEnd_ >= kPeriodNs)
            slice();
    }

    /** Run one reference slice now. */
    void slice();

    /** Scale for a raw interval measured now (nominal / current). */
    double factor() const { return factor_; }

    /** Wall time spent inside slices (excluded from timed windows). */
    std::int64_t sliceNs() const { return sliceNs_; }

  private:
    /** Slice period.  A slice evicts part of the caller's cache, so the
     * call after it runs slow; at 20 ms those calls stay well under 1 %
     * of every workload's calls and out of call_us_p99. */
    static constexpr std::int64_t kPeriodNs = 20'000'000;
    static constexpr std::size_t kWindow = 5;

    std::vector<std::uint64_t> table_;
    std::uint64_t state_ = 0;
    std::array<double, kWindow> recent_{};
    std::size_t filled_ = 0;
    std::size_t head_ = 0;
    double factor_ = 1.0;
    std::int64_t lastSliceEnd_ = 0;
    std::int64_t sliceNs_ = 0;
};

/** Raw and calibrated sums of a set of timed intervals. */
struct TimeSum
{
    double rawNs = 0.0;
    double calNs = 0.0;

    void
    add(double raw, double factor)
    {
        rawNs += raw;
        calNs += raw * factor;
    }
};

/** Time one call of @p fn into @p sum, with @p cal's current factor. */
template <typename Fn>
void
timed(Calibration &cal, TimeSum &sum, Fn &&fn)
{
    const std::int64_t t0 = nowNs();
    fn();
    const std::int64_t t1 = nowNs();
    sum.add(static_cast<double>(t1 - t0), cal.factor());
    cal.maybeSlice(t1);
}

/** Median of back-to-back nowNs() pairs: the cost one timed call adds
 * beyond the interval it reports. */
double timerOverheadNs();

/** @p q-quantile (0..1) of @p values (reorders them); 0 when empty. */
double quantile(std::vector<double> &values, double q);

/** Median of @p values (reorders them); 0 when empty. */
inline double
median(std::vector<double> &values)
{
    return quantile(values, 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_HOST_CLOCK_HPP
