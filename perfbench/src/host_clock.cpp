#include "host_clock.hpp"

#include <algorithm>

namespace perfbench {

namespace {

/** Entries of the reference table: 1 MiB of u64, about the host
 * footprint of the tag and molecule arrays the simulator touches per
 * access.  Of the loops tried (pure ALU, dependent pointer chases from
 * 256 KiB to 16 MiB, hashed read-modify-write from 256 KiB to 16 MiB),
 * read-modify-write at 0.5-1 MiB tracked fig5_spec4's accessBatch speed
 * best on a shared 4-CPU x86 host: per-second speed varied by 13-16 %
 * raw and 4-6 % after calibration. */
constexpr std::uint64_t kEntries = 1u << 17;

/** Independent hashed read-modify-writes per slice. */
constexpr int kSteps = 4096;

/** What one slice is defined to take.  Any constant works (it only
 * sets the unit of calibrated time); this one is close to a slice on
 * that host, so calibrated and raw values read alike there. */
constexpr double kNominalSliceNs = 50'000.0;

} // namespace

Calibration::Calibration() : table_(kEntries)
{
    for (std::size_t i = 0; i < kWindow; ++i)
        slice();
}

void
Calibration::slice()
{
    const std::int64_t t0 = nowNs();
    std::uint64_t x = state_;
    for (int i = 0; i < kSteps; ++i) {
        // SplitMix64 over a counter picks the slot; the update depends
        // on the slot's old value, so every step is a load and a store.
        x += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z ^= z >> 27;
        std::uint64_t &slot = table_[z & (kEntries - 1)];
        slot = (slot & 7u) == (z & 7u) ? slot + 8u : (slot & ~7ull) | (z & 7u);
    }
    state_ = x;
    const std::int64_t t1 = nowNs();

    recent_[head_] = static_cast<double>(t1 - t0);
    head_ = (head_ + 1) % kWindow;
    filled_ = std::min(filled_ + 1, kWindow);
    std::array<double, kWindow> sorted = recent_;
    std::sort(sorted.begin(), sorted.begin() + filled_);
    factor_ = kNominalSliceNs / sorted[filled_ / 2];

    sliceNs_ += t1 - t0;
    lastSliceEnd_ = t1;
}

double
timerOverheadNs()
{
    std::vector<double> pairs(20'000);
    for (double &d : pairs) {
        const std::int64_t t0 = nowNs();
        const std::int64_t t1 = nowNs();
        d = static_cast<double>(t1 - t0);
    }
    return median(pairs);
}

double
quantile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    const auto k = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1) + 0.5);
    std::nth_element(values.begin(), values.begin() + k, values.end());
    return values[k];
}

} // namespace perfbench
