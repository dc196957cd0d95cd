/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every sweep-based bench accepts the same execution flags
 * (--threads, --json) and funnels through
 * bench::runSweep, so `<bench> --threads 8 --json BENCH_sweep.json`
 * works uniformly and every emitted report carries the same schema.
 */

#ifndef MOLCACHE_BENCH_COMMON_HPP
#define MOLCACHE_BENCH_COMMON_HPP

#include <cstdio>
#include <iostream>
#include <string>

#include "exec/sweep.hpp"
#include "util/cli.hpp"

namespace molcache::bench {

/** Standard options every reproduction binary accepts. */
inline void
addCommonOptions(CliParser &cli, u64 defaultRefs)
{
    cli.addOption("refs", std::to_string(defaultRefs),
                  "merged references per run");
    cli.addOption("seed", "1", "base RNG seed");
    cli.addFlag("csv", "emit CSV instead of an aligned table");
}

/** Execution flags for benches that run through the sweep engine. */
inline void
addSweepFlags(CliParser &cli)
{
    cli.addOption("threads", "0",
                  "sweep worker threads (0 = hardware concurrency)");
    cli.addOption("json", "",
                  "write the machine-readable sweep report here "
                  "(convention: BENCH_sweep.json)");
}

/**
 * Execute @p spec on the CLI-selected thread count and, when --json was
 * given, write the report.  Benches that run several sweeps pass
 * @p appendSweepName so each report lands in its own file
 * (`out.json` -> `out.<sweep>.json`).
 */
inline SweepReport
runSweep(const CliParser &cli, const SweepSpec &spec,
         bool appendSweepName = false)
{
    const SweepReport report = molcache::runSweep(
        spec, static_cast<u32>(cli.integer("threads")));

    std::string path = cli.str("json");
    if (!path.empty()) {
        if (appendSweepName) {
            const size_t dot = path.rfind('.');
            const std::string tag = "." + spec.name();
            if (dot == std::string::npos)
                path += tag;
            else
                path.insert(dot, tag);
        }
        report.writeFile(path);
        std::fprintf(stderr, "wrote %s (%zu points, %u threads)\n",
                     path.c_str(), report.points.size(), report.threads);
    }
    return report;
}

inline void
banner(const std::string &title)
{
    std::printf("== %s ==\n", title.c_str());
}

/**
 * The exit gate of a self-checking drill: every failed check prints a
 * `FAIL:` line, and verdict() turns the checks into the exit code.
 */
class Gate
{
  public:
    void
    operator()(bool pass, const std::string &what)
    {
        if (!pass) {
            std::printf("FAIL: %s\n", what.c_str());
            ok_ = false;
        }
    }

    /** Print @p passLine, or FAIL; @return the process exit code. */
    int
    verdict(const char *passLine) const
    {
        std::printf("%s\n", ok_ ? passLine : "FAIL");
        return ok_ ? 0 : 1;
    }

  private:
    bool ok_ = true;
};

} // namespace molcache::bench

#endif // MOLCACHE_BENCH_COMMON_HPP
