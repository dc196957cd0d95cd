#include "service/service_options.hpp"

#include "util/logging.hpp"

namespace molcache {
namespace mc {

void
ServiceOptions::note(const std::source_location &loc,
                     const std::string &message)
{
    errors_.push_back(detail::concat(loc.file_name(), ":", loc.line(), ": ",
                                     message));
}

ServiceOptions &
ServiceOptions::withShards(u32 count, std::source_location loc)
{
    if (count == 0)
        note(loc, "service.shards must be >= 1, got 0");
    shards = count;
    return *this;
}

ServiceOptions &
ServiceOptions::withEpochMillis(u64 millis, std::source_location loc)
{
    if (millis != 0)
        note(loc, detail::concat("service.epoch_millis must be 0 (the "
                                 "service has no epoch timer; call "
                                 "runEpochNow()), got ",
                                 millis));
    return *this;
}

ServiceOptions &
ServiceOptions::withMaxTenants(u32 count, std::source_location)
{
    maxTenants = count;
    return *this;
}

ServiceOptions &
ServiceOptions::withGuardian(bool enabled, std::source_location)
{
    cache.guardian.enabled = enabled;
    return *this;
}

ServiceOptions &
ServiceOptions::withChaos(const ChaosSpec &spec, std::source_location loc)
{
    if (spec.windowEnd < spec.windowStart)
        note(loc, detail::concat("service.chaos window is empty (start ",
                                 spec.windowStart, " > end ",
                                 spec.windowEnd, ")"));
    chaos = spec;
    return *this;
}

ServiceOptions &
ServiceOptions::withAdmitWatermarks(double high, double low,
                                    std::source_location loc)
{
    if (high < 0.0)
        note(loc, detail::concat("service.admit_high_water must be >= 0, "
                                 "got ",
                                 high));
    if (low < 0.0 || (high > 0.0 && low > high))
        note(loc, detail::concat("service.admit_low_water must be in "
                                 "[0, admit_high_water], got ",
                                 low));
    admitHighWater = high;
    admitLowWater = low;
    return *this;
}

ServiceOptions &
ServiceOptions::withRecoverySlack(double slack, std::source_location loc)
{
    if (slack < 0.0 || slack >= 1.0)
        note(loc, detail::concat("service.recovery_slack must be in "
                                 "[0, 1), got ",
                                 slack));
    recoverySlack = slack;
    return *this;
}

void
ServiceOptions::validate() const
{
    std::vector<std::string> all = errors_;
    if (shards == 0)
        all.push_back("service.shards must be >= 1");
    if (shards > 0xffffu)
        all.push_back(detail::concat(
            "service.shards must fit the 16-bit routing field (<= 65535), "
            "got ",
            shards));
    if (admitHighWater > 0.0 && admitLowWater > admitHighWater)
        all.push_back(detail::concat(
            "service.admit_low_water (", admitLowWater,
            ") exceeds service.admit_high_water (", admitHighWater, ")"));
    if (chaos.windowEnd < chaos.windowStart)
        all.push_back(detail::concat("service.chaos window is empty (start ",
                                     chaos.windowStart, " > end ",
                                     chaos.windowEnd, ")"));
    if (cache.clusters != 1)
        all.push_back(detail::concat(
            "per-shard cache geometry must have clusters == 1, got ",
            cache.clusters));
    if (!all.empty()) {
        std::string joined;
        for (const std::string &e : all) {
            if (!joined.empty())
                joined += "\n  ";
            joined += e;
        }
        fatal("invalid ServiceOptions:\n  ", joined);
    }
    cache.validate();
}

} // namespace mc
} // namespace molcache
