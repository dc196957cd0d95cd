#include "workload/generator.hpp"

#include "util/logging.hpp"
#include "workload/profiles.hpp"

namespace molcache {

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile, Asid asid,
                               u64 limit, u64 seed)
    : stream_(buildStream(profile, applicationBase(asid))),
      rng_(seed * 0x9E3779B97F4A7C15ull + asid.value() + 1, asid.value()),
      asid_(asid), limit_(limit),
      writeFraction_(profile.writeFraction)
{
    MOLCACHE_ASSERT(writeFraction_ >= 0.0 && writeFraction_ <= 1.0,
                    "write fraction out of [0,1]");
}

std::optional<MemAccess>
TraceGenerator::next()
{
    if (limit_ != 0 && produced_ >= limit_)
        return std::nullopt;
    ++produced_;
    MemAccess a;
    a.addr = stream_->next(rng_);
    a.asid = asid_;
    a.type = rng_.chance(writeFraction_) ? AccessType::Write
                                         : AccessType::Read;
    return a;
}

std::vector<MemAccess>
generateTrace(const BenchmarkProfile &profile, Asid asid, u64 n, u64 seed)
{
    TraceGenerator gen(profile, asid, n, seed);
    std::vector<MemAccess> out;
    out.reserve(n);
    while (auto a = gen.next())
        out.push_back(*a);
    return out;
}

std::unique_ptr<AccessSource>
makeMultiProgramSource(const std::vector<std::string> &profileNames,
                       u64 totalReferences, MixPolicy, u64 seed)
{
    MOLCACHE_ASSERT(!profileNames.empty(), "no profiles given");
    std::vector<std::unique_ptr<AccessSource>> sources;
    sources.reserve(profileNames.size());
    for (size_t i = 0; i < profileNames.size(); ++i) {
        sources.push_back(std::make_unique<TraceGenerator>(
            profileByName(profileNames[i]), static_cast<Asid>(i),
            /*limit=*/0, seed));
    }
    return std::make_unique<Interleaver>(std::move(sources),
                                         totalReferences);
}

} // namespace molcache
