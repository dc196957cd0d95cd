/**
 * @file
 * Ablation G: phase tracking.
 *
 * Dynamic repartitioning only earns its complexity if it follows program
 * *phases* (the paper cites Yeh & Reinman's phase-based resizing as the
 * closest related approach).  This bench builds a two-phase application —
 * a small hot working set alternating with a large one every
 * `phase-length` accesses — runs it against a phase-oblivious co-runner,
 * and reports the deviation under three regimes:
 *
 *   - static-half:  resizing disabled, each app keeps its initial half
 *                   tile (what a static partitioner would do);
 *   - adaptive:     Algorithm 1 at the paper's period;
 *   - adaptive-10x: Algorithm 1 at a 10x shorter period (faster
 *                   tracking, more resize work).
 *
 * Also prints the phased app's region-size swing, the direct evidence
 * that the partitions breathe with the phases.
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/molecular_cache.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

/** Two-phase source: hot 32 KiB set <-> hot 512 KiB set. */
class PhasedApp final : public AccessSource
{
  public:
    PhasedApp(Asid asid, u64 phaseLength, u64 limit, u64 seed)
        : asid_(asid), limit_(limit), rng_(seed)
    {
        std::vector<std::unique_ptr<AddressStream>> phases;
        const Addr base = applicationBase(asid);
        phases.push_back(
            std::make_unique<WorkingSetStream>(base, (32_KiB).value(), 0.9));
        phases.push_back(std::make_unique<WorkingSetStream>(
            base + (16_MiB).value(), (512_KiB).value(), 0.6));
        stream_ = std::make_unique<PhaseStream>(std::move(phases),
                                                phaseLength);
    }

    std::optional<MemAccess>
    next() override
    {
        if (limit_ != 0 && produced_ >= limit_)
            return std::nullopt; // 0 = unbounded (the mix sets the limit)
        ++produced_;
        return MemAccess{stream_->next(rng_), asid_, AccessType::Read};
    }

  private:
    Asid asid_;
    u64 limit_;
    u64 produced_ = 0;
    Pcg32 rng_;
    std::unique_ptr<AddressStream> stream_;
};

struct Outcome
{
    double deviation;
    u32 minRegion = ~0u;
    u32 maxRegion = 0;
    u64 resizeCycles = 0;
};

Outcome
run(u64 refs, u64 phaseLength, u64 resizePeriod, bool staticHalf, u64 seed)
{
    MolecularCacheParams p =
        fig5MolecularParams(2_MiB, PlacementPolicy::Randy, seed);
    if (staticHalf) {
        p.resizePeriod = 1ull << 40;
        p.maxResizePeriod = 1ull << 40;
    } else {
        p.resizePeriod = resizePeriod;
        p.minResizePeriod = std::max<u64>(resizePeriod / 10, 500);
        p.maxResizePeriod = resizePeriod * 8;
    }
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.10, ClusterId{0}, 0, 1); // the phased app
    cache.registerApplication(Asid{1}, 0.10, ClusterId{0}, 1, 1); // steady co-runner

    std::vector<std::unique_ptr<AccessSource>> sources;
    sources.push_back(
        std::make_unique<PhasedApp>(Asid{0}, phaseLength, 0, seed));
    sources.push_back(std::make_unique<TraceGenerator>(
        profileByName("gcc"), Asid{1}, 0, seed));
    Interleaver mix(std::move(sources), refs);

    Outcome out;
    u64 n = 0;
    GoalSet goals = GoalSet::uniform(0.1, 2);
    while (auto a = mix.next()) {
        cache.access(*a);
        if (++n % 10000 == 0) {
            const u32 size = cache.region(Asid{0}).size();
            out.minRegion = std::min(out.minRegion, size);
            out.maxRegion = std::max(out.maxRegion, size);
        }
    }
    out.deviation =
        averageDeviation(cache.stats().missRates(), goals);
    out.resizeCycles = cache.resizeCycles();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("ablate_phases",
                  "Ablation: does dynamic repartitioning track program "
                  "phases?");
    bench::addCommonOptions(cli, 2'000'000);
    cli.addOption("phase-length", "400000",
                  "accesses per phase of the phased application");
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 phase = static_cast<u64>(cli.integer("phase-length"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Phase tracking: 32KiB<->512KiB phased app + gcc on a "
                  "2MiB molecular cache, goal 10%");

    TablePrinter table({"regime", "avg deviation", "region min..max",
                        "resize cycles"});
    const struct
    {
        const char *label;
        u64 period;
        bool staticHalf;
    } rows[] = {
        {"static-half (no resizing)", 0, true},
        {"adaptive (paper period)", 25000, false},
        {"adaptive-10x", 2500, false},
    };
    for (const auto &r : rows) {
        const Outcome o = run(refs, phase, r.period, r.staticHalf, seed);
        table.row({r.label, formatDouble(o.deviation, 4),
                   std::to_string(o.minRegion) + ".." +
                       std::to_string(o.maxRegion),
                   std::to_string(o.resizeCycles)});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nthe region swing (min..max) is the phased working set "
                "being tracked;\nstatic partitions cannot follow it.\n");
    return 0;
}
