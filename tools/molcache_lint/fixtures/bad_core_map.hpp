// Negative fixture: node-based container members in a (pretend)
// src/core hot-path class.  The bare members must fire hot-path-map;
// the annotated ones are allowlisted and must not.
#ifndef MOLCACHE_FIXTURE_BAD_CORE_MAP_HPP
#define MOLCACHE_FIXTURE_BAD_CORE_MAP_HPP

#include <list>
#include <map>
#include <set>
#include <unordered_map>

#include "util/types.hpp"

namespace molcache {

class BadCoreMap
{
  public:
    // Return types and locals are fine; only members are hot state.
    std::map<u32, double> snapshot() const;

  private:
    std::unordered_map<u64, u32> index_; // hot-path-map

    // Genuinely sparse, never walked per access.  molcache-lint: allow-map
    std::map<u64, u32> sparse_;

    // Nested scratch structs use plain member names (no trailing
    // underscore); the rule must hold them to the same dense-layout
    // bar.
    struct BadProbeScratch
    {
        std::list<u64> pendingRefs;   // hot-path-map
        std::set<u32> touchedTiles;   // hot-path-map

        // Cold, rebuilt only on generation change.  molcache-lint: allow-map
        std::map<u32, u32> rebuildScratch;
    };
};

} // namespace molcache

#endif // MOLCACHE_FIXTURE_BAD_CORE_MAP_HPP
