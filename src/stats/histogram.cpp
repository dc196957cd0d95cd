#include "stats/histogram.hpp"

#include <sstream>

#include "util/bits.hpp"

namespace molcache {

Log2Histogram::Log2Histogram(u32 maxLog2)
    : counts_(maxLog2 + 1, 0)
{
}

void
Log2Histogram::add(u64 x, u64 weight)
{
    u32 bucket = x == 0 ? 0 : floorLog2(x) + 1;
    if (bucket >= counts_.size())
        bucket = static_cast<u32>(counts_.size()) - 1;
    counts_[bucket] += weight;
    total_ += weight;
}

std::string
Log2Histogram::toString() const
{
    std::ostringstream os;
    for (u32 i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        if (i == 0)
            os << "[0] ";
        else
            os << "[2^" << (i - 1) << "..2^" << i << ") ";
        os << counts_[i] << "\n";
    }
    return os.str();
}

} // namespace molcache
