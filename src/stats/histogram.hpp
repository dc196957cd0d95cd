/**
 * @file
 * Log2-bucketed histogram for distribution reporting.
 */

#ifndef MOLCACHE_STATS_HISTOGRAM_HPP
#define MOLCACHE_STATS_HISTOGRAM_HPP

#include <string>
#include <vector>

#include "util/types.hpp"

namespace molcache {

/** Power-of-two bucketed histogram for values like reuse distances. */
class Log2Histogram
{
  public:
    explicit Log2Histogram(u32 maxLog2 = 40);

    void add(u64 x, u64 weight = 1);

    u64 bucketCount(u32 log2bucket) const { return counts_.at(log2bucket); }
    u32 buckets() const { return static_cast<u32>(counts_.size()); }
    u64 total() const { return total_; }

    std::string toString() const;

  private:
    std::vector<u64> counts_;
    u64 total_ = 0;
};

} // namespace molcache

#endif // MOLCACHE_STATS_HISTOGRAM_HPP
