/**
 * @file
 * Runtime consistency audit of a molecular cache.
 *
 * The checker walks the whole structure — tiles, molecules, regions,
 * replacement views — and cross-checks the bookkeeping that the fault
 * and resize machinery must keep consistent (docs/fault_model.md):
 *
 *  - every non-free molecule is owned by exactly one region,
 *    and its ASID gate matches that region's ASID;
 *  - no region claims a free or decommissioned molecule;
 *  - per-tile free counts match the molecules' actual gate state, and
 *    owned + free + decommissioned == total on every tile;
 *  - replacement views are internally consistent (row totals and
 *    per-tile totals both equal the region size), and each tile
 *    entry's membership mask marks exactly its listed molecules;
 *  - valid-line counters match the resident-line sets;
 *  - decommissioned molecules are empty, fenced, and never admitted;
 *  - decommission tallies agree between tiles, Ulmos, and fault stats.
 *
 * check() is pure observation and returns a report; attach() installs
 * the audit as the cache's periodic hook and panic()s on the first
 * violation — the debug-mode harness for fuzz and fault-drill runs.
 */

#ifndef MOLCACHE_FAULT_INVARIANT_CHECKER_HPP
#define MOLCACHE_FAULT_INVARIANT_CHECKER_HPP

#include <string>
#include <vector>

#include "util/types.hpp"

namespace molcache {

class MolecularCache;

class InvariantChecker
{
  public:
    struct Report
    {
        /** Individual checks evaluated (grows with cache geometry). */
        u64 checksRun = 0;
        /** Human-readable descriptions of every violated invariant. */
        std::vector<std::string> violations;

        bool ok() const { return violations.empty(); }
    };

    /** Audit @p cache; never mutates it. */
    static Report check(const MolecularCache &cache);

    /**
     * Audit the coherence directory against the lines resident in
     * @p cache's molecules: no line sits in two molecules of one
     * region (ASID), the directory counts exactly the resident copies, each
     * resident line's chunk mask carries its cluster's bit, and until
     * some chunk is shared each mask carries exactly one bit.  The same
     * walk checks that each resident line's flag byte carries
     * lineKeyOf(its tag), the partial tag the tile probe matches.
     *
     * Not part of check(): it reads every resident line's tag, and
     * check() runs in every service epoch, whose shards are one-cluster
     * caches with nothing to invalidate.  (check()'s valid-line count
     * reads only flag bytes; reading the tags too would add about 100 us
     * to every molcached_churn epoch.)
     */
    static Report checkDirectory(const MolecularCache &cache);

    /**
     * Install the audit as @p cache's periodic hook (runs every
     * @p everyAccesses accesses) and panic() with the full violation
     * list the first time any invariant breaks.
     */
    static void attach(MolecularCache &cache, u64 everyAccesses);

    /** Total audits run through attach()-installed hooks. */
    static u64 auditsRun() { return auditsRun_; }

  private:
    static u64 auditsRun_;
};

} // namespace molcache

#endif // MOLCACHE_FAULT_INVARIANT_CHECKER_HPP
