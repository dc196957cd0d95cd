/**
 * @file
 * Deterministic trace generation from benchmark profiles.
 */

#ifndef MOLCACHE_WORKLOAD_GENERATOR_HPP
#define MOLCACHE_WORKLOAD_GENERATOR_HPP

#include <memory>
#include <string>
#include <vector>

#include "mem/interleave.hpp"
#include "workload/profile.hpp"

namespace molcache {

/**
 * AccessSource producing a profile's reference stream tagged with one
 * ASID.  Fully deterministic: the RNG is seeded from (seed, asid).
 */
class TraceGenerator final : public AccessSource
{
  public:
    /**
     * @param profile  the benchmark recipe
     * @param asid     ASID stamped on every reference (also selects the
     *                 application's address window)
     * @param limit    number of references to produce (0 = unbounded)
     * @param seed     base RNG seed
     */
    TraceGenerator(const BenchmarkProfile &profile, Asid asid, u64 limit,
                   u64 seed = 1);

    std::optional<MemAccess> next() override;

    u64 produced() const { return produced_; }

  private:
    std::unique_ptr<AddressStream> stream_;
    Pcg32 rng_;
    Asid asid_;
    u64 limit_;
    u64 produced_ = 0;
    double writeFraction_;
};

/** Generate @p n references of @p profile into a vector. */
std::vector<MemAccess> generateTrace(const BenchmarkProfile &profile,
                                     Asid asid, u64 n, u64 seed = 1);

/**
 * Build the merged multi-application stream the shared cache sees:
 * one TraceGenerator per named profile (ASIDs 0..n-1 in list order,
 * each seeded with @p seed), merged round robin, ending after
 * @p totalReferences.
 */
std::unique_ptr<AccessSource>
makeMultiProgramSource(const std::vector<std::string> &profileNames,
                       u64 totalReferences, MixPolicy policy = MixPolicy::RoundRobin,
                       u64 seed = 1);

} // namespace molcache

#endif // MOLCACHE_WORKLOAD_GENERATOR_HPP
