/**
 * @file
 * Deterministic seed derivation for parallel work.
 *
 * Each of a run's parallel parts (a service shard, a drill thread) owns
 * a private RNG stream derived from (base seed, index): no part ever
 * shares generator state with another, and the derivation is pure
 * arithmetic — independent of scheduling order.
 *
 * The mixer is SplitMix64 (Steele, Lea & Flood 2014), the standard
 * stream-splitting finalizer: invertible, full 64-bit avalanche, so
 * adjacent bases/indices yield uncorrelated seeds.
 */

#ifndef MOLCACHE_EXEC_SEED_STREAM_HPP
#define MOLCACHE_EXEC_SEED_STREAM_HPP

#include "util/types.hpp"

namespace molcache {

/** One SplitMix64 finalization round. */
constexpr u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Seed for part @p index of a run rooted at @p baseSeed.
 * Counter-based: the mixed base selects a stream and the index steps
 * along it by the golden gamma, exactly how SplitMix64 itself advances.
 * The combination is asymmetric in (base, index) — an XOR of two mixed
 * halves would alias (a, b) with (b+1, a-1) structurally — so distinct
 * (base, index) pairs collide only by 64-bit accident.
 */
constexpr u64
deriveJobSeed(u64 baseSeed, u64 index)
{
    return splitmix64(splitmix64(baseSeed) +
                      (index + 1) * 0x9e3779b97f4a7c15ull);
}

} // namespace molcache

#endif // MOLCACHE_EXEC_SEED_STREAM_HPP
