#include "core/molecular_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "contract/contract.hpp"
#include "power/report.hpp"
#include "util/bits.hpp"
#include "util/logging.hpp"
#include "util/units.hpp"

namespace molcache {

namespace {

/** The home-tile probes of a region with no molecule on its home tile. */
const std::vector<MoleculeId> kNoMolecules;

} // namespace

MolecularCache::MolecularCache(const MolecularCacheParams &params)
    : params_(params),
      // Sized for every line slot resident at once; the max() only
      // keeps an invalid zero line size away from the divide so
      // validate() below can report it.
      directory_(params.clusters,
                 params.totalSizeBytes().value() /
                     std::max(params.lineSize, 1u),
                 this),
      resizer_(params)
{
    params_.validate();

    const u32 total_tiles = params_.totalTiles();
    tiles_.reserve(total_tiles);
    for (u32 t = 0; t < total_tiles; ++t) {
        tiles_.emplace_back(TileId{t}, ClusterId{t / params_.tilesPerCluster},
                            MoleculeId{t * params_.moleculesPerTile},
                            params_.moleculesPerTile,
                            params_.linesPerMolecule(), params_.lineSize);
    }

    ulmos_.reserve(params_.clusters);
    for (u32 c = 0; c < params_.clusters; ++c) {
        std::vector<TileId> cluster_tiles;
        for (u32 i = 0; i < params_.tilesPerCluster; ++i)
            cluster_tiles.push_back(TileId{c * params_.tilesPerCluster + i});
        ulmos_.emplace_back(ClusterId{c}, std::move(cluster_tiles));
    }

    appsPerCluster_.assign(params_.clusters, 0);
    if (isPowerOfTwo(params_.moleculesPerTile))
        molShift_ = static_cast<i32>(floorLog2(params_.moleculesPerTile));
    linesPerMol_ = params_.linesPerMolecule();
    lineShift_ = floorLog2(params_.lineSize);
    tagShift_ = lineShift_ + floorLog2(linesPerMol_);
    rng_ = makeRandomSource(params_.rngKind, params_.seed);

    globalResizePeriod_ = params_.resizePeriod;
    nextGlobalResize_ = params_.resizePeriod;

    if (params_.guardian.enabled)
        guardian_ = std::make_unique<QosGuardian>(params_);

    const CactiModel model(TechNode::Nm70);
    CacheGeometry mol;
    mol.sizeBytes = params_.moleculeSize;
    mol.associativity = 1;
    mol.lineSize = params_.lineSize;
    mol.ports = 1;
    mol.extraTagBits = 17; // 16-bit ASID + the figure-3 shared bit
    molProbeNj_ = molecularPerProbeEnergyNj(model, mol,
                                            params_.moleculesPerTile);
    molFillNj_ = model.evaluate(mol).writeEnergyNj;
    tileFixedNj_ = molecularTileFixedEnergyNj(model, mol,
                                              params_.moleculesPerTile);
    // Ulmo hop: request + line flight across the cluster's footprint.
    const double mol_area = model.evaluate(mol).areaMm2;
    const double cluster_area = mol_area * params_.moleculesPerTile *
                                params_.tilesPerCluster;
    const double flight_mm = 2.0 * std::sqrt(cluster_area);
    const u64 bus_bits = mol.addrBits +
                         static_cast<u64>(params_.lineSize) * 8;
    ulmoHopNj_ = static_cast<double>(bus_bits) * flight_mm *
                 model.tech().wireCapFfPerMm * model.tech().vdd *
                 model.tech().vdd * 1e-6;
}

void
MolecularCache::registerApplication(Asid asid, double resizeGoal)
{
    const ClusterId cluster{asid.value() % params_.clusters};
    const u32 tile = appsPerCluster_[cluster.value()] %
                     params_.tilesPerCluster;
    registerApplication(asid, resizeGoal, cluster, tile,
                        params_.defaultLineMultiple);
}

void
MolecularCache::registerApplication(Asid asid, double resizeGoal,
                                    ClusterId cluster, u32 tileInCluster,
                                    u32 lineMultiple)
{
    if (asid == kInvalidAsid)
        fatal("cannot register the invalid ASID");
    if (hasApplication(asid))
        fatal("ASID ", asid, " is already registered");
    if (cluster.value() >= params_.clusters)
        fatal("cluster ", cluster, " out of range");
    if (tileInCluster >= params_.tilesPerCluster)
        fatal("tile ", tileInCluster, " out of cluster range");
    if (lineMultiple == 0 || !isPowerOfTwo(lineMultiple) ||
        lineMultiple > params_.linesPerMolecule())
        fatal("bad region line multiple ", lineMultiple);
    if (resizeGoal <= 0.0 || resizeGoal > 1.0)
        fatal("miss-rate goal out of (0,1]");

    const TileId home_tile{cluster.value() * params_.tilesPerCluster +
                           tileInCluster};
    auto [it, inserted] = regions_.emplace(
        std::piecewise_construct, std::forward_as_tuple(asid),
        std::forward_as_tuple(asid, params_.placement, lineMultiple,
                              home_tile, cluster, params_.moleculeSize));
    MOLCACHE_ENSURE(inserted, "region emplace failed");
    Region &region = it->second;
    if (regionIndex_.size() <= asid.value())
        regionIndex_.resize(asid.value() + 1u, nullptr);
    regionIndex_[asid.value()] = &region;
    if (wayMemo_.size() <= asid.value())
        wayMemo_.resize(asid.value() + 1u);
    resetWayMemo(asid);
    region.resizeGoal = resizeGoal;
    region.maxAllocation = params_.maxAllocationChunk;
    region.resizePeriod = params_.resizePeriod;
    region.nextResizeTick = params_.resizePeriod;
    if (guardian_ != nullptr)
        region.capacityFloor = params_.guardian.floorMolecules;
    ++appsPerCluster_[cluster.value()];

    // Ground Zero (section 3.4): the initial grant comes from the home
    // tile; if it is exhausted we fall back to the cluster so the region
    // is never created empty while molecules remain.
    u32 want = 0;
    switch (params_.initialAllocation) {
      case InitialAllocation::Small:
        want = params_.initialMolecules;
        break;
      case InitialAllocation::HalfTile:
        want = params_.moleculesPerTile / 2;
        break;
      case InitialAllocation::FullTile:
        want = params_.moleculesPerTile;
        break;
    }
    want = std::max<u32>(want, 1);

    u32 got = 0;
    Tile &home = tiles_[home_tile.value()];
    while (got < want) {
        const MoleculeId id = home.allocate(asid);
        if (id == kInvalidMolecule)
            break;
        region.addMolecule(id, home_tile, /*initial=*/true);
        ++got;
    }
    if (got == 0)
        got = grant(region, 1);
    if (got == 0)
        warn("region for ASID ", asid, " created without molecules");
    // The initial allocation counts as the last grant; a shortfall here
    // already signals pool pressure to the thrash clause.
    region.lastGrant = got;
    region.lastGrantShort = got < want;
}

bool
MolecularCache::hasApplication(Asid asid) const
{
    return regions_.count(asid) != 0;
}

void
MolecularCache::unregisterApplication(Asid asid)
{
    const auto it = regions_.find(asid);
    if (it == regions_.end())
        fatal("ASID ", asid, " is not registered");
    Region &region = it->second;

    std::vector<MoleculeId> mols;
    for (const auto &[tile, ids] : region.byTile())
        mols.insert(mols.end(), ids.begin(), ids.end());
    for (const MoleculeId id : mols) {
        Molecule &m = molecule(id);
        m.forEachResidentLine([&](Addr la) {
            directory_.noteEviction(LineAddr{la}, region.homeCluster());
        });
        const u32 dirty = tiles_[m.tile().value()].release(id);
        for (u32 i = 0; i < dirty; ++i)
            stats_.recordWriteback(asid);
        region.removeMolecule(id);
    }
    MOLCACHE_INVARIANT(appsPerCluster_[region.homeCluster().value()] > 0,
                       "cluster app count underflow");
    --appsPerCluster_[region.homeCluster().value()];
    regionIndex_[asid.value()] = nullptr;
    resetWayMemo(asid);
    regions_.erase(it);
}

void
MolecularCache::retireApplicationStats(Asid asid)
{
    // Deliberately not folded into unregisterApplication: an
    // application unregistered and later re-registered under the same
    // ASID keeps counting into the same slot.  Only a caller recycling
    // the ASID for a *different* tenant (the molcached drain and remap
    // paths) retires the slot.
    if (hasApplication(asid))
        fatal("cannot retire stats of live ASID ", asid,
              "; unregister it first");
    stats_.retire(asid);
}

void
MolecularCache::setResizeGoal(Asid asid, double resizeGoal)
{
    const auto it = regions_.find(asid);
    if (it == regions_.end())
        fatal("ASID ", asid, " is not registered");
    if (resizeGoal <= 0.0 || resizeGoal > 1.0)
        fatal("resize goal ", resizeGoal, " outside (0, 1]");
    it->second.resizeGoal = resizeGoal;
}

Region &
MolecularCache::regionFor(Asid asid)
{
    // Dense per-ASID index: the per-access path must not pay a
    // node-based map walk (docs/perf.md).  regions_ stays the ordered
    // authority (stable nodes, ascending-ASID iteration for
    // deterministic resize/invalidation order); this is a cache of it.
    const u32 v = asid.value();
    if (v < regionIndex_.size() && regionIndex_[v] != nullptr)
        return *regionIndex_[v];
    registerApplication(asid, params_.defaultMissRateGoal);
    return *regionIndex_[v];
}

const Region &
MolecularCache::region(Asid asid) const
{
    const auto it = regions_.find(asid);
    if (it == regions_.end())
        fatal("ASID ", asid, " is not registered");
    return it->second;
}

u32
MolecularCache::residentLines(Asid asid) const
{
    const Region &r = region(asid);
    u32 lines = 0;
    for (const auto &[tile, mols] : r.byTile())
        for (const MoleculeId id : mols)
            lines += molecule(id).validLines();
    return lines;
}

Molecule &
MolecularCache::molecule(MoleculeId id)
{
    const u32 tile = tileIndexOf(id);
    MOLCACHE_EXPECT(tile < tiles_.size(), "molecule id out of range");
    return tiles_[tile].molecule(id);
}

const Molecule &
MolecularCache::molecule(MoleculeId id) const
{
    const u32 tile = tileIndexOf(id);
    MOLCACHE_EXPECT(tile < tiles_.size(), "molecule id out of range");
    return tiles_[tile].molecule(id);
}

u32
MolecularCache::freeMolecules() const
{
    u32 n = 0;
    for (const Tile &t : tiles_)
        n += t.freeCount();
    return n;
}

u32
MolecularCache::freeMoleculesInCluster(ClusterId cluster) const
{
    MOLCACHE_EXPECT(cluster.value() < params_.clusters,
                    "cluster out of range");
    u32 n = 0;
    for (const TileId t : ulmos_[cluster.value()].tiles())
        n += tiles_[t.value()].freeCount();
    return n;
}

Molecule *
MolecularCache::probeTile(const Region &region, Tile &tile,
                          const std::vector<MoleculeId> &mols, Addr addr)
{
    // Line-major slots (Tile::lineTags): every probe of this scan reads
    // one row, row + (id - first).  No software prefetch: the scanned
    // slots are usually cache-resident, and prefetching two probes
    // ahead measured ~10 % slower end to end (docs/perf.md).
    const Addr tag = addr >> tagShift_;
    const u32 li =
        static_cast<u32>(addr >> lineShift_) & (linesPerMol_ - 1);
    const Addr *tags = tile.lineTags();
    const u8 *flags = tile.lineFlags();
    const MoleculeId first = tile.firstMolecule();
    const u32 row = li * tile.numMolecules();
    for (const MoleculeId id : mols) {
        const u32 slot = row + (id - first);
        const u8 f = flags[slot];
        // One rarely-taken branch per probe: non-short-circuit &/| read
        // the tag whether or not the slot is valid, keeping the valid
        // bit out of the branch.  Exact because poisoned implies valid
        // (poisonLine only marks valid slots) and an invalid slot is
        // all-zero (clearLine), so it never carries a poisoned bit.
        const bool candidate =
            (((f & kLineValid) != 0) & (tags[slot] == tag)) |
            ((f & kLinePoisoned) != 0);
        if (!candidate)
            continue;
        if ((f & kLinePoisoned) != 0) [[unlikely]] {
            // The probe read data + tag + parity; the poisoned slot
            // failed the parity check, is dropped, and reads as a miss.
            scrubRegionLine(region, tile.molecule(id), addr);
            continue;
        }
        return &tile.molecule(id);
    }
    return nullptr;
}

void
MolecularCache::scrubRegionLine(const Region &region, Molecule &mol,
                                Addr addr)
{
    const ClusterId cluster = tiles_[mol.tile().value()].cluster();
    const auto dropped = mol.scrubIfPoisoned(addr);
    MOLCACHE_ENSURE(dropped.has_value(), "poisoned slot vanished");
    ++faultStats_.transientFlipsDetected;
    if (dropped->dirty)
        ++faultStats_.dirtyLinesLost;
    directory_.noteEviction(LineAddr{dropped->addr}, cluster);

    // The group's other lines sit in the neighbouring slots of the same
    // molecule (fills are unit-aligned).  One that is itself poisoned is
    // caught by the same parity read; the others are written back.
    const u64 unit = static_cast<u64>(region.lineMultiple()) *
                     params_.lineSize;
    const Addr base = alignDown(dropped->addr, unit);
    for (Addr la = base; la < base + unit; la += params_.lineSize) {
        if (la == dropped->addr || !mol.lookup(la))
            continue;
        if (const auto sibling = mol.scrubIfPoisoned(la)) {
            ++faultStats_.transientFlipsDetected;
            if (sibling->dirty)
                ++faultStats_.dirtyLinesLost;
        } else if (mol.invalidate(la)) {
            stats_.recordWriteback(region.asid());
        }
        directory_.noteEviction(LineAddr{la}, cluster);
    }
}

double
MolecularCache::tileAccessEnergyNj(u32 probes) const
{
    return tileFixedNj_ + probes * molProbeNj_;
}

void
MolecularCache::revalidateWayMemo(const Region &region)
{
    WayMemo &memo = wayMemo_[region.asid().value()];
    // Predictions are cheap to keep and expensive to re-learn, so the
    // table is only dropped when live re-validation cannot catch the
    // staleness: a recycled ASID slot (a new region, possibly on
    // another home tile) or a capacity growth that outran the table
    // (collision pressure, not correctness).  Size only moves with a
    // generation bump, so this runs once per generation.
    const u64 lines =
        std::max<u64>(static_cast<u64>(region.size()) * linesPerMol_, 64);
    if (memo.slots.size() < 2 * lines ||
        memo.homeTile != region.homeTile()) {
        // 2x the capacity in lines: halves hash collisions for an
        // 8-byte-per-entry table whose footprint stays well under the
        // modeled line state it shadows.  assign() reuses the vector's
        // capacity, so steady state never allocates.
        const u64 entries = std::bit_ceil(2 * lines);
        memo.slots.assign(entries, WayMemoEntry{});
        memo.mask = entries - 1;
        memo.homeTile = region.homeTile();
        ++wayMemoInvalidations_;
    }
    memo.gen = region.generation();
}

void
MolecularCache::resetWayMemo(Asid asid)
{
    if (asid.value() >= wayMemo_.size())
        return;
    WayMemo &memo = wayMemo_[asid.value()];
    memo.gen = WayMemo::kNoStamp;
    memo.slots.clear();
}

AccessResult
MolecularCache::access(const MemAccess &a)
{
    if (a.asid == kInvalidAsid)
        fatal("access with the invalid ASID");
    ++tick_;
    if (tick_ >= injector_.nextDueTick()) [[unlikely]]
        applyDueFaults();

    Region &region = regionFor(a.asid);
    const TileId home_tile = region.homeTile();
    Tile &home = tiles_[home_tile.value()];

    // The probe schedule is the region's placement (paper section 3.3):
    // its molecules on the home tile first, then the other tiles in
    // ascending order via Ulmo.  At most tilesPerCluster entries, so a
    // linear scan finds the home entry.
    const TilePlacement &placed = region.byTile();
    const std::vector<MoleculeId> *home_mols = &kNoMolecules;
    for (const TilePlacement::Entry &e : placed) {
        if (e.tile == home_tile) {
            home_mols = &e.molecules;
            break;
        }
    }

    u32 probes = static_cast<u32>(home_mols->size());
    double energy = tileAccessEnergyNj(probes);
    // The ASID stage gates every tile visit; matching molecules of a
    // tile are probed in parallel behind the single port.
    Cycles latency = params_.asidStageCycles +
                     params_.moleculeAccessCycles;
    u8 level = 0;

    // Way-memoization (docs/perf.md): verify the last-hit molecule for
    // this line address with a single tag probe before paying the full
    // schedule walk.  The verification makes the shortcut
    // self-correcting, and probes/energy/latency above were already
    // charged for the whole home schedule — the model cannot tell the
    // difference.
    Molecule *hit_mol = nullptr;
    WayMemoEntry *memo_slot = nullptr;
    if (wayMemoOn_ && !region.empty()) {
        memo_slot = wayMemoSlot(region, a.addr);
        const u32 tag_bits = static_cast<u32>(a.addr >> lineShift_ >> 10);
        if (memo_slot->mol != kInvalidMolecule &&
            memo_slot->tagBits == tag_bits) {
            Molecule &m = molecule(memo_slot->mol);
            // Live re-validation: the prediction survived membership
            // churn, so re-check the figure-3 ASID gate and the home
            // tile before trusting the verification probe.  A molecule
            // that passes both is in today's home schedule (its tile
            // never changes; an admitted molecule is the region's own).
            if (m.admits(a.asid) && m.tile() == region.homeTile() &&
                m.probe(a.addr) == Molecule::ProbeOutcome::Hit) {
                hit_mol = &m;
                ++wayMemoHits_;
            } else {
                memo_slot->mol = kInvalidMolecule;
                ++wayMemoMispredicts_;
            }
        }
        if (hit_mol == nullptr) {
            hit_mol = probeTile(region, home, *home_mols, a.addr);
            if (hit_mol != nullptr)
                *memo_slot = WayMemoEntry{tag_bits, hit_mol->id()};
        }
    } else {
        hit_mol = probeTile(region, home, *home_mols, a.addr);
    }

    if (hit_mol == nullptr) {
        // Tile miss: Ulmo forwards to the region's other tiles.
        for (const TilePlacement::Entry &e : placed) {
            if (e.tile == home_tile)
                continue;
            const u32 n = static_cast<u32>(e.molecules.size());
            energy += ulmoHopNj_ + tileAccessEnergyNj(n);
            latency += params_.ulmoHopCycles + params_.asidStageCycles +
                       params_.moleculeAccessCycles;
            probes += n;
            hit_mol = probeTile(region, tiles_[e.tile.value()], e.molecules,
                                a.addr);
            if (hit_mol != nullptr) {
                level = 1;
                break;
            }
        }
    }

    const bool hit = hit_mol != nullptr;
    if (hit) {
        if (params_.placement == PlacementPolicy::LruDirect)
            hit_mol->noteTouch(a.addr, tick_);
        if (a.isWrite()) {
            hit_mol->markDirty(a.addr);
            const LineAddr line = lineAddrOf(a.addr, params_.lineSize);
            applyInvalidations(
                directory_.noteWrite(line, region.homeCluster()), line,
                a.asid);
        }
    } else {
        level = 2;
        latency += params_.missPenaltyCycles;
        energy += handleMiss(region, a);
    }

    region.noteAccess(hit);
    if (guardian_ != nullptr)
        guardian_->noteAccess(region, hit);
    stats_.record(a.asid, hit, a.isWrite(), latency);
    intervalAccesses_.increment();
    if (!hit)
        intervalMisses_.increment();
    probesTotal_ += probes;
    enabledIntegral_ += region.size();
    energyNj_ += energy;

    // Resize scheduling: the global schemes are due on the access tick;
    // the per-app scheme checks the region's own deadline.
    if (tick_ >= nextGlobalResize_ ||
        params_.resizeScheme == ResizeScheme::PerAppAdaptive)
        maybeResize(region);

    if (auditInterval_ != 0 && auditHook_ && tick_ % auditInterval_ == 0)
        auditHook_(*this);

    AccessResult result;
    result.hit = hit;
    result.energyNj = energy;
    result.latencyCycles = latency;
    result.level = level;
    return result;
}

double
MolecularCache::handleMiss(Region &region, const MemAccess &a)
{
    if (region.empty()) {
        // A region can be starved when its cluster was exhausted at
        // registration time; retry on every miss so it recovers as soon
        // as molecules free up.
        if (grant(region, 1) == 0)
            return 0.0; // uncacheable this access
    }

    const u64 unit = static_cast<u64>(region.lineMultiple()) *
                     params_.lineSize;
    const Addr base = alignDown(a.addr, unit);
    const Addr accessed_line = alignDown(a.addr, params_.lineSize);

    const MoleculeId mol_id =
        params_.placement == PlacementPolicy::LruDirect
            ? chooseLruDirectMolecule(region, a.addr)
            : region.chooseFillMolecule(a.addr, *rng_);
    Molecule &mol = molecule(mol_id);

    bool replaced = false;
    for (u32 i = 0; i < region.lineMultiple(); ++i) {
        const Addr la = base + static_cast<u64>(i) * params_.lineSize;
        const bool dirty = a.isWrite() && la == accessed_line;
        if (const auto ev = mol.fill(la, dirty, tick_)) {
            replaced = true;
            if (ev->poisoned) {
                // The fill displaced a corrupt line: the write of fresh
                // data is where the parity check catches it.
                ++faultStats_.transientFlipsDetected;
                if (ev->dirty)
                    ++faultStats_.dirtyLinesLost;
            } else if (ev->dirty) {
                stats_.recordWriteback(a.asid);
            }
            directory_.noteEviction(LineAddr{ev->addr},
                                    region.homeCluster());
        }
        applyInvalidations(
            directory_.noteFill(LineAddr{la}, region.homeCluster(), dirty),
            LineAddr{la}, a.asid);
    }

    if (replaced) {
        // The paper's resize counters record misses that lead to line
        // replacements (section 3.4, "Where to add?").
        region.noteReplacement(mol_id, a.addr);
    }
    // The fill writes lineMultiple lines into the chosen molecule.
    return static_cast<double>(region.lineMultiple()) * molFillNj_;
}

MoleculeId
MolecularCache::chooseLruDirectMolecule(const Region &region, Addr addr)
{
    MOLCACHE_EXPECT(!region.empty(), "LRU-Direct fill into empty region");
    MoleculeId best = kInvalidMolecule;
    u64 best_tick = ~0ull;
    for (const auto &[tile, mols] : region.byTile()) {
        for (const MoleculeId id : mols) {
            const auto tick = molecule(id).slotTouchTick(addr);
            if (!tick)
                return id; // invalid slot: take it immediately
            if (*tick < best_tick) {
                best_tick = *tick;
                best = id;
            }
        }
    }
    MOLCACHE_ENSURE(best != kInvalidMolecule, "no LRU-Direct candidate");
    return best;
}

void
MolecularCache::applyInvalidations(u32 clusters, LineAddr lineAddr,
                                   Asid except)
{
    for (; clusters != 0; clusters &= clusters - 1) {
        const ClusterId c{static_cast<u32>(std::countr_zero(clusters))};
        for (auto &[asid, region] : regions_) {
            if (region.homeCluster() != c || asid == except)
                continue;
            for (const auto &[tile, mols] : region.byTile()) {
                for (const MoleculeId id : mols) {
                    if (molecule(id).invalidate(lineAddr.value()))
                        stats_.recordWriteback(asid);
                }
            }
        }
    }
}

void
MolecularCache::maybeResize(Region &region)
{
    switch (params_.resizeScheme) {
      case ResizeScheme::Constant:
        if (tick_ >= nextGlobalResize_) {
            runGlobalResizeCycle();
            intervalAccesses_.takeInterval();
            intervalMisses_.takeInterval();
            nextGlobalResize_ = tick_ + globalResizePeriod_;
        }
        break;
      case ResizeScheme::GlobalAdaptive:
        if (tick_ >= nextGlobalResize_) {
            runGlobalResizeCycle();
            const u64 acc = intervalAccesses_.takeInterval();
            const u64 miss = intervalMisses_.takeInterval();
            double mean_goal = 0.0;
            for (const auto &[asid, r] : regions_)
                mean_goal += r.resizeGoal;
            mean_goal /= regions_.empty() ? 1.0
                                          : static_cast<double>(
                                                regions_.size());
            globalResizePeriod_ = resizer_.adaptPeriod(
                globalResizePeriod_, ratio(miss, acc), mean_goal);
            nextGlobalResize_ = tick_ + globalResizePeriod_;
        }
        break;
      case ResizeScheme::PerAppAdaptive:
        // Side-band hint wakeup: a trusted phase hint may need to act
        // between two reactive wakeups (the adaptive period can dwarf
        // the hint's lead).  The pulse runs predictiveStep alone — the
        // reactive schedule, intervals and period adaptation are not
        // touched, so an armed hint never changes *when* Algorithm 1
        // evaluates, only how much capacity is there when it does.
        if (region.hintWakeTick != 0 &&
            region.accesses() >= region.hintWakeTick) {
            region.hintWakeTick = 0;
            if (region.accesses() < region.nextResizeTick)
                resizer_.predictivePulse(region, *this, guardian_.get());
        }
        if (region.accesses() >= region.nextResizeTick) {
            const RegionResize rr = resizer_.resizeRegion(
                region, region.resizeGoal, *this, guardian_.get());
            ++resizeCycles_;
            if (rr.evaluated) {
                region.resizePeriod = resizer_.adaptPeriod(
                    region.resizePeriod, rr.missRate, region.resizeGoal);
                // Oscillation backoff survives the adaptation: a
                // thrashing region's control loop stays slowed down
                // until it earns its responsiveness back.
                if (guardian_ != nullptr)
                    region.resizePeriod = guardian_->scaledPeriod(
                        region.asid(), region.resizePeriod);
            }
            region.nextResizeTick = region.accesses() + region.resizePeriod;
        }
        break;
    }
}

void
MolecularCache::runGlobalResizeCycle()
{
    ++resizeCycles_;
    for (auto &[asid, region] : regions_)
        resizer_.resizeRegion(region, region.resizeGoal, *this,
                              guardian_.get());
}

u32
MolecularCache::grant(Region &region, u32 count)
{
    if (count == 0)
        return 0;
    u32 got = 0;

    auto take_from = [&](TileId tile_index) {
        Tile &tile = tiles_[tile_index.value()];
        while (got < count) {
            const MoleculeId id = tile.allocate(region.asid());
            if (id == kInvalidMolecule)
                break;
            region.addMolecule(id, tile_index, /*initial=*/false);
            ++got;
        }
    };

    take_from(region.homeTile());

    for (const TileId t : ulmos_[region.homeCluster().value()].tiles()) {
        if (t == region.homeTile() || got >= count)
            continue;
        take_from(t);
    }
    return got;
}

void
MolecularCache::postPhaseHint(const PhaseHint &hint)
{
    if (guardian_ == nullptr || !guardian_->predictiveEnabled())
        return;
    if (!hasApplication(hint.asid))
        return;
    Region &region = regionFor(hint.asid);
    if (guardian_->acceptHint(hint, region)) {
        // Make sure a wakeup lands inside the hint's pre-shift window:
        // a quiet phase may have adapted the period far past the
        // announced lead, and a hint nobody wakes up for cannot act.
        // The side-band tick fires predictiveStep alone (maybeResize),
        // leaving the reactive schedule untouched.
        region.hintWakeTick =
            region.accesses() + std::max<u64>(1, hint.leadAccesses / 2);
    }
}

void
MolecularCache::setRegionFloor(Asid asid, u32 floorMolecules)
{
    Region &region = regionFor(asid);
    if (floorMolecules > params_.tilesPerCluster * params_.moleculesPerTile)
        fatal("capacity floor ", floorMolecules,
              " exceeds cluster capacity");
    region.capacityFloor = floorMolecules;
}

u32
MolecularCache::withdraw(Region &region, u32 count)
{
    u32 got = 0;
    while (got < count && region.size() > 1) {
        const MoleculeId id = region.pickWithdrawal();
        if (id == kInvalidMolecule)
            break;
        Molecule &m = molecule(id);
        m.forEachResidentLine([&](Addr la) {
            directory_.noteEviction(LineAddr{la}, region.homeCluster());
        });
        const u32 dirty = tiles_[m.tile().value()].release(id);
        for (u32 i = 0; i < dirty; ++i)
            stats_.recordWriteback(region.asid());
        region.removeMolecule(id);
        ++got;
    }
    return got;
}

void
MolecularCache::forEachResidentLine(const Visit &visit) const
{
    for (const Tile &tile : tiles_) {
        const MoleculeId first = tile.firstMolecule();
        for (MoleculeId id = first; id < first + tile.numMolecules(); ++id) {
            const Molecule &m = tile.molecule(id);
            m.forEachResidentLine([&](Addr la) {
                visit(LineAddr{la}, tile.cluster(), m.isDirty(la));
            });
        }
    }
}

std::string
MolecularCache::name() const
{
    std::ostringstream os;
    os << "molecular " << formatSize(params_.totalSizeBytes()) << " ("
       << placementPolicyName(params_.placement) << ", " << params_.clusters
       << "x" << params_.tilesPerCluster << " tiles, "
       << formatSize(params_.moleculeSize) << " molecules)";
    return os.str();
}

void
MolecularCache::resetStats()
{
    stats_.reset();
    energyNj_ = 0.0;
    probesTotal_ = 0;
    enabledIntegral_ = 0;
    wayMemoHits_ = 0;
    wayMemoMispredicts_ = 0;
    wayMemoInvalidations_ = 0;
}

double
MolecularCache::worstCaseAccessEnergyNj() const
{
    return tileFixedNj_ + params_.moleculesPerTile * molProbeNj_;
}

double
MolecularCache::averageAccessEnergyNj() const
{
    const u64 acc = stats_.global().accesses;
    return acc == 0 ? 0.0 : energyNj_ / static_cast<double>(acc);
}

double
MolecularCache::averageProbesPerAccess() const
{
    return ratio(probesTotal_, stats_.global().accesses);
}

double
MolecularCache::averageEnabledMolecules() const
{
    return ratio(enabledIntegral_, stats_.global().accesses);
}

void
MolecularCache::setFaultInjector(FaultInjector injector)
{
    injector_ = std::move(injector);
}

void
MolecularCache::applyDueFaults()
{
    while (const FaultEvent *ev = injector_.drainOne(tick_)) {
        switch (ev->kind) {
          case FaultKind::TransientFlip:
            injectTransientFlip(
                MoleculeId{ev->target % params_.totalMolecules()},
                ev->line);
            break;
          case FaultKind::HardFault:
            injectHardFault(
                MoleculeId{ev->target % params_.totalMolecules()});
            break;
          case FaultKind::TileOutage:
            injectTileOutage(TileId{ev->target % params_.totalTiles()});
            break;
        }
    }
}

void
MolecularCache::injectTransientFlip(MoleculeId id, u32 line)
{
    Molecule &m = molecule(id);
    ++faultStats_.transientFlipsInjected;
    // Poison must be discovered by the full in-order schedule walk —
    // probeTile scrubs the slot and accounts the loss — so the memo
    // shortcut (which skips earlier schedule entries) is retired for
    // the rest of the run on the first flip, in every access path.
    wayMemoOn_ = false;
    if (m.decommissioned())
        return; // fenced arrays are power-gated: nothing to corrupt
    m.poisonLine(line % params_.linesPerMolecule());
}

void
MolecularCache::injectHardFault(MoleculeId id)
{
    Molecule &m = molecule(id);
    ++faultStats_.hardFaultEvents;
    if (m.decommissioned())
        return;
    if (m.noteHardFault() >= params_.hardFaultThreshold)
        decommissionMolecule(id);
}

void
MolecularCache::injectTileOutage(TileId tile)
{
    MOLCACHE_EXPECT(tile.value() < tiles_.size(),
                    "tile outage out of range");
    ++faultStats_.tileOutages;
    const Tile &t = tiles_[tile.value()];
    const MoleculeId first = t.firstMolecule();
    for (MoleculeId id = first; id < first + t.numMolecules(); ++id)
        decommissionMolecule(id);
}

void
MolecularCache::injectClusterOutage(ClusterId cluster)
{
    MOLCACHE_EXPECT(cluster.value() < params_.clusters,
                    "cluster outage out of range");
    const u32 first = cluster.value() * params_.tilesPerCluster;
    for (u32 i = 0; i < params_.tilesPerCluster; ++i)
        injectTileOutage(TileId{first + i});
}

bool
MolecularCache::decommissionMolecule(MoleculeId id)
{
    Molecule &m = molecule(id);
    if (m.decommissioned())
        return false;
    const TileId tile_index = m.tile();
    const ClusterId cluster{tile_index.value() / params_.tilesPerCluster};
    const Asid owner = m.configuredAsid();

    if (!m.isFree()) {
        for (auto &[asid, region] : regions_) {
            if (!region.contains(id))
                continue;
            // Drain: the directory forgets the lines, the replacement
            // view forgets the molecule, and the region notes the
            // capacity hole so the resizer re-acquires around it.
            m.forEachResidentLine([&](Addr la) {
                directory_.noteEviction(LineAddr{la}, region.homeCluster());
            });
            region.removeMolecule(id);
            region.noteMoleculeLost();
            break;
        }
    }

    const u32 dirty = tiles_[tile_index.value()].decommission(id);
    for (u32 i = 0; i < dirty; ++i)
        stats_.recordWriteback(owner);
    ulmos_[cluster.value()].noteDecommission();
    ++faultStats_.moleculesDecommissioned;
    return true;
}

u32
MolecularCache::decommissionedMolecules() const
{
    u32 n = 0;
    for (const Tile &t : tiles_)
        n += t.decommissionedCount();
    return n;
}

std::vector<Asid>
MolecularCache::registeredAsids() const
{
    std::vector<Asid> out;
    out.reserve(regions_.size());
    for (const auto &[asid, region] : regions_)
        out.push_back(asid);
    return out;
}

void
MolecularCache::setAuditHook(Tick everyAccesses, AuditHook hook)
{
    auditInterval_ = everyAccesses;
    auditHook_ = std::move(hook);
}

double
MolecularCache::hitPerMoleculeOf(Asid asid) const
{
    const Region &r = region(asid);
    if (r.size() == 0 || r.accesses() == 0)
        return 0.0;
    return (static_cast<double>(r.hits()) /
            static_cast<double>(r.accesses())) /
           static_cast<double>(r.size());
}

} // namespace molcache
