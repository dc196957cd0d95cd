/**
 * @file
 * Trace tool: generate, convert, and inspect molcache trace files.
 *
 *   trace_tool gen --profiles art,mcf --refs 100000 --out mix.mct
 *   trace_tool gen --profiles gcc --l1-filter --out gcc_misses.mct
 *   trace_tool info mix.mct
 *   trace_tool convert mix.mct mix.txt      # binary <-> text by extension
 *   trace_tool replay mix.mct --size 1M --assoc 4
 *   trace_tool replay mix.mct --model molecular --size 2M
 *   trace_tool replay mix.mct --model waypart --assoc 8
 *
 * Demonstrates the trace I/O layer and lets molcache interoperate with
 * external trace-driven tools (the paper fed SESC traces into a modified
 * Dinero; this is the equivalent plumbing).  --l1-filter interposes the
 * per-ASID private L1s so the written trace is an L1-miss stream, the
 * paper's exact methodology.
 */

#include <cstdio>
#include <map>
#include <string>

#include "cache/set_assoc.hpp"
#include "cache/way_partitioned.hpp"
#include "core/molecular_cache.hpp"
#include "mem/filter.hpp"
#include "mem/trace.hpp"
#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

int
cmdGen(const CliParser &cli)
{
    const auto profiles = split(cli.str("profiles"), ',');
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const std::string out = cli.str("out");
    if (out.empty())
        fatal("gen needs --out <file>");

    std::unique_ptr<AccessSource> source = makeMultiProgramSource(
        profiles, refs, MixPolicy::RoundRobin,
        static_cast<u64>(cli.integer("seed")));
    if (cli.flag("l1-filter")) {
        // Emit the L1-miss stream, as SESC's recorded traces did.
        source = std::make_unique<L1FilterSource>(std::move(source),
                                                  L1Params{});
    }
    const TraceFormat format = out.size() > 4 &&
                                       out.substr(out.size() - 4) == ".txt"
                                   ? TraceFormat::Text
                                   : TraceFormat::Binary;
    TraceWriter writer(out, format);
    while (auto a = source->next())
        writer.append(*a);
    writer.close();
    std::printf("wrote %llu references to %s (%s)\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                out.c_str(),
                format == TraceFormat::Text ? "text" : "binary");
    return 0;
}

int
cmdInfo(const std::string &path)
{
    TraceReader reader(path);
    std::map<Asid, u64> per_asid;
    u64 total = 0, writes = 0;
    Addr lo = kInvalidAddr, hi = 0;
    while (auto a = reader.next()) {
        ++total;
        ++per_asid[a->asid];
        if (a->isWrite())
            ++writes;
        lo = std::min(lo, a->addr);
        hi = std::max(hi, a->addr);
    }
    std::printf("%s: %llu records (%s), %.1f%% writes\n", path.c_str(),
                static_cast<unsigned long long>(total),
                reader.format() == TraceFormat::Text ? "text" : "binary",
                total ? 100.0 * static_cast<double>(writes) /
                            static_cast<double>(total)
                      : 0.0);
    if (total) {
        std::printf("address range: %#llx .. %#llx\n",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi));
    }
    for (const auto &[asid, count] : per_asid) {
        std::printf("  asid %u: %llu refs\n", asid.value(),
                    static_cast<unsigned long long>(count));
    }
    return 0;
}

int
cmdConvert(const std::string &in, const std::string &out)
{
    const auto trace = readTrace(in);
    const TraceFormat format = out.size() > 4 &&
                                       out.substr(out.size() - 4) == ".txt"
                                   ? TraceFormat::Text
                                   : TraceFormat::Binary;
    writeTrace(out, trace, format);
    std::printf("converted %zu records %s -> %s\n", trace.size(), in.c_str(),
                out.c_str());
    return 0;
}

void
printReplay(const std::string &path, const CacheModel &cache)
{
    std::printf("replayed %s through %s\n", path.c_str(),
                cache.name().c_str());
    std::printf("global miss rate: %.4f\n",
                cache.stats().global().missRate());
    for (const auto &[asid, c] : cache.stats().perAsid()) {
        std::printf("  asid %u: %llu refs, miss rate %.4f\n", asid.value(),
                    static_cast<unsigned long long>(c.accesses),
                    c.missRate());
    }
}

int
cmdReplay(const std::string &path, const CliParser &cli)
{
    const std::string model = cli.str("model");
    const Bytes size{cli.size("size")};
    const u32 assoc = static_cast<u32>(cli.integer("assoc"));
    const double goal = cli.real("goal");

    std::unique_ptr<CacheModel> cache;
    if (model == "setassoc") {
        SetAssocParams p;
        p.sizeBytes = size;
        p.associativity = assoc;
        cache = std::make_unique<SetAssocCache>(p);
    } else if (model == "molecular") {
        MolecularCacheParams p;
        p.moleculeSize = 8_KiB;
        p.moleculesPerTile = 64;
        p.tilesPerCluster = 4;
        if (size % p.clusterSizeBytes() != Bytes{0})
            fatal("molecular replay size must be a multiple of 2M");
        p.clusters = static_cast<u32>(size / p.clusterSizeBytes());
        p.defaultMissRateGoal = goal;
        cache = std::make_unique<MolecularCache>(p); // apps auto-register
    } else if (model == "waypart") {
        WayPartitionedParams p;
        p.sizeBytes = size;
        p.associativity = assoc;
        cache = std::make_unique<WayPartitionedCache>(p);
    } else {
        fatal("unknown --model '", model,
              "' (expected setassoc|molecular|waypart)");
    }

    TraceReader reader(path);
    while (auto a = reader.next())
        cache->access(*a);
    printReplay(path, *cache);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("trace_tool",
                  "generate / inspect / convert / replay trace files "
                  "(subcommands: gen, info, convert, replay)");
    cli.addOption("profiles", "art,mcf", "comma-separated profile names");
    cli.addOption("refs", "100000", "references to generate");
    cli.addOption("seed", "1", "RNG seed");
    cli.addOption("out", "", "output file (gen)");
    cli.addOption("size", "1M", "replay cache size");
    cli.addOption("assoc", "4", "replay cache associativity");
    cli.addOption("model", "setassoc",
                  "replay model: setassoc | molecular | waypart");
    cli.addOption("goal", "0.1", "miss-rate goal (molecular replay)");
    cli.addFlag("l1-filter", "gen: write the L1-miss stream instead of "
                             "raw references");
    cli.parse(argc, argv);

    const auto &pos = cli.positional();
    if (pos.empty())
        fatal("need a subcommand: gen | info <file> | convert <in> <out> | "
              "replay <file>");
    const std::string &cmd = pos[0];
    if (cmd == "gen")
        return cmdGen(cli);
    if (cmd == "info" && pos.size() >= 2)
        return cmdInfo(pos[1]);
    if (cmd == "convert" && pos.size() >= 3)
        return cmdConvert(pos[1], pos[2]);
    if (cmd == "replay" && pos.size() >= 2)
        return cmdReplay(pos[1], cli);
    fatal("bad subcommand or missing arguments (see --help)");
}
