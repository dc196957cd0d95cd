#include "workload/adversarial.hpp"

#include <algorithm>

#include "util/config.hpp"
#include "util/logging.hpp"
#include "workload/profile.hpp"

namespace molcache {

namespace {

// Footprints are sized against the default guardian test geometry (a
// 2 MiB cluster of 8 KiB molecules):
//  - the PhaseFlip hot set fits in a handful of molecules while its
//    cold chase wants the whole cluster;
//  - the Hog's chase is 8x the cluster, so no allocation helps it;
//  - the Steady victim needs ~12 molecules to sit at its goal.
constexpr u64 kPhaseHotFootprint = 48 * 1024;
constexpr u64 kPhaseColdFootprint = 1024 * 1024;
constexpr u64 kPhaseLength = 40'000;
constexpr u64 kHogFootprint = 16ull * 1024 * 1024;
constexpr u64 kBurstFootprint = 256 * 1024;
constexpr u64 kBurstIdleFootprint = 64;
constexpr u64 kBurstOnLength = 25'000;
constexpr u64 kBurstOffLength = 25'000;
constexpr u64 kSteadyFootprint = 96 * 1024;

/** Nominal resize period (MolecularCacheParams default) used to express
 * a hint's lead in control epochs. */
constexpr double kNominalResizePeriod = 25'000.0;

} // namespace

bool
isAdversaryKind(const std::string &text)
{
    return text == "phaseflip" || text == "hog" || text == "bursty" ||
           text == "steady";
}

HintPolicy
hintPolicyFromConfig(const Config &cfg)
{
    HintPolicy hints;
    hints.enabled = cfg.getBool("workload.hint.enabled", hints.enabled);
    hints.leadAccesses = static_cast<u64>(
        cfg.getInt("workload.hint.lead",
                   static_cast<i64>(hints.leadAccesses)));
    hints.jitterAccesses = static_cast<u64>(
        cfg.getInt("workload.hint.jitter",
                   static_cast<i64>(hints.jitterAccesses)));
    hints.magnitudeScale =
        cfg.getDouble("workload.hint.magnitude", hints.magnitudeScale);
    hints.invertPhase =
        cfg.getBool("workload.hint.invert", hints.invertPhase);
    hints.dropProbability =
        cfg.getDouble("workload.hint.drop", hints.dropProbability);
    hints.confidence =
        cfg.getDouble("workload.hint.confidence", hints.confidence);
    return hints;
}

AdversaryKind
parseAdversaryKind(const std::string &text)
{
    if (text == "phaseflip")
        return AdversaryKind::PhaseFlip;
    if (text == "hog")
        return AdversaryKind::Hog;
    if (text == "bursty")
        return AdversaryKind::Bursty;
    if (text == "steady")
        return AdversaryKind::Steady;
    fatal("unknown adversary kind '", text,
          "' (expected phaseflip|hog|bursty|steady)");
}

std::string
adversaryKindName(AdversaryKind kind)
{
    switch (kind) {
      case AdversaryKind::PhaseFlip:
        return "phaseflip";
      case AdversaryKind::Hog:
        return "hog";
      case AdversaryKind::Bursty:
        return "bursty";
      case AdversaryKind::Steady:
        return "steady";
    }
    return "unknown";
}

BurstyStream::BurstyStream(std::unique_ptr<AddressStream> on,
                           std::unique_ptr<AddressStream> off, u64 onLength,
                           u64 offLength)
    : on_(std::move(on)), off_(std::move(off)),
      onLength_(std::max<u64>(1, onLength)),
      offLength_(std::max<u64>(1, offLength))
{
}

Addr
BurstyStream::next(RandomSource &rng)
{
    const u64 span = inBurst_ ? onLength_ : offLength_;
    if (count_ >= span) {
        count_ = 0;
        inBurst_ = !inBurst_;
    }
    ++count_;
    return inBurst_ ? on_->next(rng) : off_->next(rng);
}

std::unique_ptr<AddressStream>
makeAdversaryStream(AdversaryKind kind, Addr base)
{
    switch (kind) {
      case AdversaryKind::PhaseFlip: {
        std::vector<std::unique_ptr<AddressStream>> phases;
        phases.push_back(std::make_unique<WorkingSetStream>(
            base, kPhaseHotFootprint, /*alpha=*/0.9));
        phases.push_back(std::make_unique<PointerChaseStream>(
            base + kPhaseHotFootprint, kPhaseColdFootprint));
        return std::make_unique<PhaseStream>(std::move(phases),
                                             kPhaseLength);
      }
      case AdversaryKind::Hog:
        return std::make_unique<PointerChaseStream>(base, kHogFootprint);
      case AdversaryKind::Bursty:
        // Idle spans hammer one line: every access hits, the measured
        // miss rate collapses to ~0 and the controller is invited to
        // withdraw everything it granted during the burst.
        return std::make_unique<BurstyStream>(
            std::make_unique<PointerChaseStream>(base, kBurstFootprint),
            std::make_unique<SequentialStream>(base + kBurstFootprint,
                                               /*footprint=*/64),
            kBurstOnLength, kBurstOffLength);
      case AdversaryKind::Steady:
        return std::make_unique<WorkingSetStream>(base, kSteadyFootprint,
                                                  /*alpha=*/1.1);
    }
    fatal("unhandled adversary kind");
}

AdversaryGenerator::AdversaryGenerator(AdversaryKind kind, Asid asid,
                                       u64 limit, u64 seed,
                                       HintPolicy hints)
    : stream_(makeAdversaryStream(kind, applicationBase(asid))),
      rng_(seed * 0x9E3779B97F4A7C15ull + asid.value() + 1, asid.value()),
      asid_(asid), limit_(limit), writeFraction_(0.25), hints_(hints),
      kind_(kind),
      // Distinct multiplier: the hint stream must never collide with
      // (or leak draws into) the address stream's RNG.
      hintRng_(seed * 0xC2B2AE3D27D4EB4Full + asid.value() + 1,
               0x5851u + asid.value())
{
    if (hints_.enabled)
        scheduleBoundary(0);
}

void
AdversaryGenerator::scheduleBoundary(u64 after)
{
    boundaryAt_ = 0;
    u64 at = 0;
    u64 next_foot = 0;
    u64 prev_foot = 0;
    switch (kind_) {
      case AdversaryKind::PhaseFlip: {
        // Phase of access n (1-based) is ((n-1)/len) % 2; boundary k
        // sits after access k*len, opening phase k%2 (0 hot, 1 cold).
        const u64 k = after / kPhaseLength + 1;
        at = k * kPhaseLength;
        next_foot = k % 2 == 1 ? kPhaseColdFootprint : kPhaseHotFootprint;
        prev_foot = k % 2 == 1 ? kPhaseHotFootprint : kPhaseColdFootprint;
        break;
      }
      case AdversaryKind::Bursty: {
        const u64 cycle = kBurstOnLength + kBurstOffLength;
        const u64 pos = after % cycle;
        if (pos < kBurstOnLength) {
            at = after - pos + kBurstOnLength; // idle span starts
            next_foot = kBurstIdleFootprint;
            prev_foot = kBurstFootprint;
        } else {
            at = after - pos + cycle; // next burst starts
            next_foot = kBurstFootprint;
            prev_foot = kBurstIdleFootprint;
        }
        break;
      }
      case AdversaryKind::Hog:
      case AdversaryKind::Steady:
        // No phase structure: these model the unhinted tenants of a
        // mixed population and never emit.
        return;
    }
    boundaryAt_ = at;
    boundaryFootprint_ = next_foot;
    boundaryPrevFootprint_ = prev_foot;
    i64 jitter = 0;
    if (hints_.jitterAccesses > 0) {
        const u64 j = hints_.jitterAccesses;
        jitter = static_cast<i64>(hintRng_.below(
                     static_cast<u32>(2 * j + 1))) -
                 static_cast<i64>(j);
    }
    const i64 emit =
        static_cast<i64>(at) - static_cast<i64>(hints_.leadAccesses) +
        jitter;
    emitAt_ = emit <= static_cast<i64>(after) ? after + 1
                                              : static_cast<u64>(emit);
}

void
AdversaryGenerator::maybeEmitHints()
{
    while (boundaryAt_ != 0 && produced_ >= emitAt_) {
        // The dropout draw happens for every boundary (dropped or not),
        // so two policies differing only in dropProbability still walk
        // the same jitter sequence.
        const bool dropped = hintRng_.chance(hints_.dropProbability);
        if (!dropped) {
            const u64 truth = hints_.invertPhase ? boundaryPrevFootprint_
                                                 : boundaryFootprint_;
            const double scaled =
                static_cast<double>(truth) * hints_.magnitudeScale;
            PhaseHint h;
            h.asid = asid_;
            h.leadAccesses =
                boundaryAt_ > produced_ ? boundaryAt_ - produced_ : 0;
            h.epochsAhead = static_cast<double>(h.leadAccesses) /
                            kNominalResizePeriod;
            h.predictedFootprintBytes =
                scaled < 1.0 ? 1 : static_cast<u64>(scaled);
            h.confidence = hints_.confidence;
            pending_.push_back(h);
        }
        scheduleBoundary(boundaryAt_);
    }
}

size_t
AdversaryGenerator::drainHints(PhaseHint *out, size_t max)
{
    const size_t n = std::min(max, pending_.size());
    std::copy_n(pending_.begin(), n, out);
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(n));
    return n;
}

std::optional<MemAccess>
AdversaryGenerator::next()
{
    if (limit_ != 0 && produced_ >= limit_)
        return std::nullopt;
    ++produced_;
    MemAccess a;
    a.addr = stream_->next(rng_);
    a.asid = asid_;
    a.type = rng_.chance(writeFraction_) ? AccessType::Write
                                         : AccessType::Read;
    if (hints_.enabled)
        maybeEmitHints();
    return a;
}

std::unique_ptr<AccessSource>
makeAdversarialSource(const std::vector<AdversaryKind> &apps,
                      u64 totalReferences, u64 seed)
{
    return makeAdversarialSource(apps,
                                 std::vector<HintPolicy>(apps.size()),
                                 totalReferences, seed);
}

std::unique_ptr<AccessSource>
makeAdversarialSource(const std::vector<AdversaryKind> &apps,
                      const std::vector<HintPolicy> &hints,
                      u64 totalReferences, u64 seed)
{
    MOLCACHE_ASSERT(!apps.empty(), "no adversaries given");
    MOLCACHE_ASSERT(hints.size() == apps.size(),
                    "one hint policy per adversary");
    std::vector<std::unique_ptr<AccessSource>> sources;
    sources.reserve(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        sources.push_back(std::make_unique<AdversaryGenerator>(
            apps[i], Asid{static_cast<u16>(i)}, /*limit=*/0, seed,
            hints[i]));
    }
    return std::make_unique<Interleaver>(std::move(sources),
                                         totalReferences);
}

} // namespace molcache
