#include "util/config_keys.hpp"

#include <algorithm>

namespace molcache {

const std::vector<ConfigKeyInfo> &
knownConfigKeys()
{
    // Keep sorted by key.  molcache_lint parses this initializer, so
    // every entry must be a plain "key", "help" string-literal pair.
    static const std::vector<ConfigKeyInfo> keys = {
        {"assoc", "set-associative/way-partitioned associativity"},
        {"audit", "invariant audit period in accesses (0 = off)"},
        {"clusters", "number of tile clusters"},
        {"fault.events_per_molecule", "hard-fault detections per victim"},
        {"fault.hard_fraction", "fraction of molecules hard-faulted"},
        {"fault.seed", "fault schedule RNG seed"},
        {"fault.tile_outages", "whole-tile outages scheduled"},
        {"fault.transient_flips", "transient bit flips scheduled"},
        {"fault.window_end", "one past the last eligible fault tick"},
        {"fault.window_start", "first eligible fault tick"},
        {"goal", "common per-application miss-rate goal"},
        {"goal.", "per-ASID miss-rate goal override (goal.<asid>)"},
        {"guardian.enabled", "QoS guardian around the resizer (0/1)"},
        {"guardian.floor", "default per-region capacity floor, molecules"},
        {"guardian.floor.", "per-ASID capacity floor (guardian.floor.<asid>)"},
        {"guardian.predictive.enabled", "phase-hint pre-provisioning (0/1)"},
        {"hard_fault_threshold", "detections before decommissioning"},
        {"model", "cache model: molecular | setassoc | waypart"},
        {"molecule", "molecule capacity in bytes"},
        {"placement", "placement policy: random | randy | lrudirect"},
        {"profiles", "comma-separated workload profile names"},
        {"refs", "references to simulate"},
        {"resize", "resize scheme: constant | global | perapp"},
        {"seed", "workload/model RNG seed"},
        {"size", "total cache capacity in bytes"},
        {"tiles", "tiles per cluster"},
        {"workload.hint.confidence", "confidence stamped on emitted hints"},
        {"workload.hint.drop", "probability a due hint is never emitted"},
        {"workload.hint.enabled", "adversary phase-hint emission (0/1)"},
        {"workload.hint.invert", "promise the departing phase (0/1)"},
        {"workload.hint.jitter", "+/- emission jitter, references"},
        {"workload.hint.lead", "hint lead ahead of the boundary, references"},
        {"workload.hint.magnitude", "promised footprint = truth * this"},
    };
    return keys;
}

std::vector<std::string>
knownConfigKeyNames()
{
    std::vector<std::string> names;
    names.reserve(knownConfigKeys().size());
    for (const ConfigKeyInfo &info : knownConfigKeys())
        names.emplace_back(info.key);
    return names;
}

bool
isKnownConfigKey(const std::string &key)
{
    return std::any_of(
        knownConfigKeys().begin(), knownConfigKeys().end(),
        [&](const ConfigKeyInfo &info) {
            const std::string known = info.key;
            if (!known.empty() && known.back() == '.')
                return key.compare(0, known.size(), known) == 0;
            return key == known;
        });
}

} // namespace molcache
