#include "exec/sweep.hpp"

#include <chrono>
#include <fstream>

#include "core/sim_access.hpp"
#include "exec/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/result_json.hpp"
#include "stats/json.hpp"
#include "util/logging.hpp"

namespace molcache {

namespace {

template <class... Ts> struct Overloaded : Ts...
{
    using Ts::operator()...;
};
template <class... Ts> Overloaded(Ts...) -> Overloaded<Ts...>;

} // namespace

SweepSpec::SweepSpec(std::string name)
    : name_(std::move(name))
{
}

SweepSpec &
SweepSpec::setAssoc(const std::string &label, const SetAssocParams &p)
{
    models_.push_back({label, p, std::nullopt});
    return *this;
}

SweepSpec &
SweepSpec::wayPartitioned(const std::string &label,
                          const WayPartitionedParams &p)
{
    models_.push_back({label, p, std::nullopt});
    return *this;
}

SweepSpec &
SweepSpec::molecular(const std::string &label, const MolecularCacheParams &p,
                     const std::optional<FaultScheduleSpec> &faults)
{
    models_.push_back({label, p, faults});
    return *this;
}

SweepSpec &
SweepSpec::workload(const std::string &label,
                    const std::vector<std::string> &profiles,
                    const std::optional<GoalSet> &goals)
{
    workloads_.push_back({label, profiles, goals});
    return *this;
}

SweepSpec &
SweepSpec::seeds(const std::vector<u64> &s)
{
    seeds_ = s;
    return *this;
}

SweepSpec &
SweepSpec::goals(const GoalSet &g)
{
    goals_ = g;
    return *this;
}

SweepSpec &
SweepSpec::registrationGoal(double goal)
{
    registrationGoal_ = goal;
    return *this;
}

SweepSpec &
SweepSpec::references(u64 refs)
{
    totalReferences_ = refs;
    return *this;
}

SweepSpec &
SweepSpec::inspect(InspectFn fn)
{
    inspect_ = std::move(fn);
    return *this;
}

std::vector<SimJob>
SweepSpec::expand() const
{
    if (models_.empty())
        fatal("sweep '", name_, "' has no model axis");
    if (workloads_.empty())
        fatal("sweep '", name_, "' has no workload axis");
    const std::vector<u64> seeds = seeds_.empty() ? std::vector<u64>{1}
                                                  : seeds_;

    std::vector<SimJob> jobs;
    jobs.reserve(models_.size() * workloads_.size() * seeds.size());
    u64 index = 0;
    for (const ModelPoint &m : models_) {
        for (const WorkloadPoint &w : workloads_) {
            for (const u64 seed : seeds) {
                SimJob job;
                job.index = index++;
                job.modelLabel = m.label;
                job.workloadLabel = w.label;
                job.profiles = w.profiles;
                job.model = m.params;
                job.faults = m.faults;
                job.registrationGoal = registrationGoal_;
                job.options.goals = w.goals ? *w.goals : goals_;
                job.options.totalReferences = totalReferences_;
                job.options.seed = seed;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

std::unique_ptr<CacheModel>
buildJobModel(const SimJob &job)
{
    const u64 seed = job.options.seed;
    const u32 apps = static_cast<u32>(job.profiles.size());

    return std::visit(
        Overloaded{
            [&](const SetAssocParams &base) -> std::unique_ptr<CacheModel> {
                return std::make_unique<SetAssocCache>(base);
            },
            [&](const WayPartitionedParams &base)
                -> std::unique_ptr<CacheModel> {
                auto cache = std::make_unique<WayPartitionedCache>(base);
                for (u32 i = 0; i < apps; ++i) {
                    const Asid asid{static_cast<u16>(i)};
                    cache->registerApplication(
                        asid, job.options.goals.goal(asid).value_or(
                                  job.registrationGoal));
                }
                return cache;
            },
            [&](const MolecularCacheParams &base)
                -> std::unique_ptr<CacheModel> {
                MolecularCacheParams p = base;
                p.seed = seed;
                auto cache = std::make_unique<MolecularCache>(p);
                registerApplications(*cache, apps, job.registrationGoal);
                if (job.faults) {
                    FaultScheduleSpec spec = *job.faults;
                    spec.seed = seed;
                    if (spec.windowStart == 0 && spec.windowEnd <= 1) {
                        // Default window: the middle half of the run, so
                        // the cache warms first and can re-converge.
                        const u64 refs = job.options.totalReferences != 0
                                             ? job.options.totalReferences
                                             : kPaperTraceLength;
                        spec.windowStart = refs / 4;
                        spec.windowEnd = refs / 4 * 3;
                    }
                    SimAccess{*cache}.setFaultInjector(FaultInjector::fromSpec(
                        spec, p.totalMolecules(), p.moleculesPerTile,
                        p.linesPerMolecule()));
                }
                return cache;
            },
        },
        job.model);
}

SweepPointResult
runSimJob(const SimJob &job, const InspectFn &inspect)
{
    SweepPointResult out;
    out.index = job.index;
    out.modelLabel = job.modelLabel;
    out.workloadLabel = job.workloadLabel;
    out.seed = job.options.seed;

    auto model = buildJobModel(job);
    out.result = runWorkload(job.profiles, *model, job.options);
    if (inspect)
        inspect(job, *model, out.extra);
    return out;
}

const SweepPointResult &
SweepReport::point(const std::string &modelLabel,
                   const std::string &workloadLabel) const
{
    for (const SweepPointResult &p : points)
        if (p.modelLabel == modelLabel && p.workloadLabel == workloadLabel)
            return p;
    fatal("sweep '", sweep, "' has no point (", modelLabel, ", ",
          workloadLabel, ")");
}

void
SweepReport::writeJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    writeSchemaVersion(json);
    json.key("kind");
    json.value("sweep");
    json.key("sweep");
    json.value(sweep);
    json.key("points");
    json.beginArray();
    for (const SweepPointResult &p : points) {
        json.beginObject();
        json.key("index");
        json.value(p.index);
        json.key("model");
        json.value(p.modelLabel);
        json.key("workload");
        json.value(p.workloadLabel);
        json.key("seed");
        json.value(p.seed);
        if (!p.extra.empty()) {
            json.key("extra");
            json.beginObject();
            for (const auto &[key, value] : p.extra) {
                json.key(key);
                json.value(value);
            }
            json.endObject();
        }
        json.key("result");
        writeSimResultJson(json, p.result);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

void
SweepReport::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    writeJson(out);
}

SweepReport
runSweep(const SweepSpec &spec, u32 threads)
{
    const std::vector<SimJob> jobs = spec.expand();

    SweepReport report;
    report.sweep = spec.name();
    report.points.resize(jobs.size());

    // Each job writes only its own pre-sized slot.
    const auto start = std::chrono::steady_clock::now();
    report.threads = parallelFor(threads, jobs.size(), [&](u64 i) {
        report.points[i] = runSimJob(jobs[i], spec.inspector());
    });
    report.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return report;
}

} // namespace molcache
