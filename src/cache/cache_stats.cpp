#include "cache/cache_stats.hpp"

namespace molcache {

AccessCounters &
CacheStats::slot(Asid asid)
{
    const u32 v = asid.value();
    if (v < denseIndex_.size() && denseIndex_[v] != nullptr)
        return *denseIndex_[v];
    AccessCounters &c = perAsid_[asid]; // node-stable insertion
    if (denseIndex_.size() <= v)
        denseIndex_.resize(v + 1u, nullptr);
    denseIndex_[v] = &c;
    return c;
}

void
CacheStats::recordWriteback(Asid asid)
{
    ++global_.writebacks;
    ++slot(asid).writebacks;
}

const AccessCounters &
CacheStats::forAsid(Asid asid) const
{
    static const AccessCounters kZero{};
    const auto it = perAsid_.find(asid);
    return it == perAsid_.end() ? kZero : it->second;
}

void
CacheStats::retire(Asid asid)
{
    const u32 v = asid.value();
    const auto it = perAsid_.find(asid);
    if (it != perAsid_.end()) {
        perAsid_.erase(it);
        if (v < denseIndex_.size())
            denseIndex_[v] = nullptr;
    }
    // Bump the generation even when the tenant never recorded an
    // access: the tag marks the reuse boundary of the ASID value, not
    // of the counters, so (asid, generation) stays unique across
    // recycling of completely idle tenants too.
    if (generation_.size() <= v)
        generation_.resize(v + 1u, 0u);
    ++generation_[v];
}

u32
CacheStats::generationOf(Asid asid) const
{
    const u32 v = asid.value();
    return v < generation_.size() ? generation_[v] : 0u;
}

std::map<Asid, double>
CacheStats::missRates() const
{
    std::map<Asid, double> out;
    for (const auto &[asid, c] : perAsid_)
        out[asid] = c.missRate();
    return out;
}

void
CacheStats::reset()
{
    global_ = AccessCounters{};
    perAsid_.clear();
    denseIndex_.clear();
    generation_.clear();
}

} // namespace molcache
