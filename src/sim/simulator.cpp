#include "sim/simulator.hpp"

#include <algorithm>
#include <vector>

#include "contract/contract.hpp"
#include "core/molecular_cache.hpp"
#include "stats/counter.hpp"

namespace molcache {

namespace {

constexpr u64 kNever = ~u64{0};

/**
 * Accesses pulled from the source per AccessSource::nextBatch call.
 * Batching amortizes the per-reference virtual dispatch; results are
 * identical for any value >= 1.
 */
constexpr size_t kBatch = 1024;

} // namespace

SimResult
Simulator::run(AccessSource &source, CacheModel &model,
               const RunOptions &options)
{
    u64 done = 0;
    u64 local_hits = 0;
    u64 remote_hits = 0;
    const u64 violations_before = contract::counters().total();

    // Hot loop: references are pulled in batches so the per-reference
    // virtual dispatch on the source is amortized, and the warmup check
    // compares against a precomputed tick.
    std::vector<MemAccess> buffer(kBatch);
    std::vector<AccessResult> results(kBatch);
    const u64 warmup_tick = options.warmup == 0 ? kNever : options.warmup;

    // Phase-hint side band: drained only when the model has a consumer
    // (guardian predictive mode), so every other configuration skips
    // the virtual call entirely and stays byte-identical.
    MolecularCache *hint_sink = dynamic_cast<MolecularCache *>(&model);
    if (hint_sink != nullptr && !hint_sink->acceptsPhaseHints())
        hint_sink = nullptr;
    std::vector<PhaseHint> hints(hint_sink != nullptr ? 64 : 0);

    for (;;) {
        const size_t n = source.nextBatch(buffer.data(), kBatch);
        if (n == 0)
            break;
        // Deliver hints ahead of the references they were emitted with,
        // preserving (slightly pessimistically) the announced lead.
        if (hint_sink != nullptr) {
            for (;;) {
                const size_t h =
                    source.drainHints(hints.data(), hints.size());
                for (size_t i = 0; i < h; ++i)
                    hint_sink->postPhaseHint(hints[i]);
                if (h < hints.size())
                    break;
            }
        }
        // Feed the block through the model's batched entry point,
        // splitting exactly at the warmup boundary so resetStats() lands
        // between the same two accesses as the scalar loop would put it.
        size_t off = 0;
        while (off < n) {
            u64 seg = n - off;
            if (done < warmup_tick)
                seg = std::min<u64>(seg, warmup_tick - done);
            model.accessBatch({buffer.data() + off, seg},
                              {results.data() + off, seg});
            done += seg;
            u64 count_from = 0;
            if (done == warmup_tick) {
                // The scalar loop resets counters before tallying the
                // warmup-boundary access itself, so only the segment's
                // last outcome survives into the measured window.
                model.resetStats();
                local_hits = 0;
                remote_hits = 0;
                count_from = seg - 1;
            }
            for (u64 i = count_from; i < seg; ++i) {
                const AccessResult &r = results[off + i];
                if (r.hit) {
                    if (r.level == 0)
                        ++local_hits;
                    else
                        ++remote_hits;
                }
            }
            off += seg;
        }
    }

    SimResult out;
    out.cacheName = model.name();
    out.qos = summarize(model, options.goals, options.labels);
    out.accesses = model.stats().global().accesses;
    out.hits = model.stats().global().hits;
    out.misses = model.stats().global().misses;
    out.totalEnergyNj = model.totalEnergyNj();
    out.avgEnergyPerAccessNj =
        out.accesses ? out.totalEnergyNj / static_cast<double>(out.accesses)
                     : 0.0;
    out.localHits = local_hits;
    out.remoteHits = remote_hits;
    out.contractViolations =
        contract::counters().total() - violations_before;

    if (const auto *mc = dynamic_cast<const MolecularCache *>(&model)) {
        const FaultStats &fs = mc->faultStats();
        out.faultEventsApplied = fs.eventsApplied();
        out.transientFlipsDetected = fs.transientFlipsDetected;
        out.dirtyLinesLost = fs.dirtyLinesLost;
        out.moleculesDecommissioned = fs.moleculesDecommissioned;
        out.tileOutages = fs.tileOutages;
        out.recoveryGrants = mc->resizer().recoveryGrants();
        out.wayMemoHits = mc->wayMemoHits();
        out.wayMemoMispredicts = mc->wayMemoMispredicts();
        out.wayMemoInvalidations = mc->wayMemoInvalidations();
        for (const Asid asid : mc->registeredAsids()) {
            const Region &region = mc->region(asid);
            out.maxReconvergenceEpochs = std::max(
                out.maxReconvergenceEpochs, region.lastRecoveryEpochs);
            if (region.recovering)
                ++out.regionsStillRecovering;
        }
        if (const QosGuardian *guardian = mc->guardian()) {
            out.guardian = guardian->summary();
            for (AppSummary &app : out.qos.apps)
                app.guardian = guardian->telemetry(app.asid);
        }
    }
    return out;
}

std::map<Asid, std::string>
labelMap(const std::vector<std::string> &names)
{
    std::map<Asid, std::string> out;
    for (size_t i = 0; i < names.size(); ++i)
        out[Asid{static_cast<u16>(i)}] = names[i];
    return out;
}

} // namespace molcache
