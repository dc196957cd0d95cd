#include "cache/set_assoc.hpp"

#include <sstream>

#include "util/bits.hpp"
#include "util/logging.hpp"
#include "util/units.hpp"

namespace molcache {

u32
SetAssocParams::numSets() const
{
    return static_cast<u32>(
        sizeBytes.value() / (static_cast<u64>(associativity) * lineSize));
}

u32
SetAssocParams::numLines() const
{
    return static_cast<u32>(sizeBytes.value() / lineSize);
}

void
SetAssocParams::validate() const
{
    if (lineSize == 0 || !isPowerOfTwo(lineSize))
        fatal("line size must be a power of two, got ", lineSize);
    if (associativity == 0)
        fatal("associativity must be >= 1");
    const u64 setBytes = static_cast<u64>(associativity) * lineSize;
    if (sizeBytes.value() == 0 || sizeBytes.value() % setBytes != 0)
        fatal("cache size ", sizeBytes,
              " is not a multiple of associativity*lineSize");
    if (!isPowerOfTwo(numSets()))
        fatal("number of sets (", numSets(), ") must be a power of two");
}

SetAssocCache::SetAssocCache(const SetAssocParams &params)
    : params_(params)
{
    params_.validate();
    sets_ = params_.numSets();
    lines_.resize(static_cast<size_t>(sets_) * params_.associativity);
    stamps_.resize(lines_.size(), 0);
}

u32
SetAssocCache::setIndex(Addr addr) const
{
    return static_cast<u32>((addr / params_.lineSize) & (sets_ - 1));
}

Addr
SetAssocCache::tagOf(Addr addr) const
{
    return addr / params_.lineSize / sets_;
}

size_t
SetAssocCache::slotOf(u32 set, u32 way) const
{
    return static_cast<size_t>(set) * params_.associativity + way;
}

SetAssocCache::Line &
SetAssocCache::lineAt(u32 set, u32 way)
{
    return lines_[slotOf(set, way)];
}

const SetAssocCache::Line &
SetAssocCache::lineAt(u32 set, u32 way) const
{
    return lines_[slotOf(set, way)];
}

AccessResult
SetAssocCache::access(const MemAccess &access)
{
    const u32 set = setIndex(access.addr);
    const Addr tag = tagOf(access.addr);

    AccessResult result;
    result.energyNj = params_.energyPerAccessNj;
    energyNj_ += params_.energyPerAccessNj;

    // Lookup.
    for (u32 w = 0; w < params_.associativity; ++w) {
        Line &line = lineAt(set, w);
        if (line.valid && line.tag == tag) {
            stamps_[slotOf(set, w)] = ++clock_;
            if (access.isWrite())
                line.dirty = true;
            result.latencyCycles = params_.hitLatencyCycles;
            stats_.record(access.asid, true, access.isWrite(),
                          result.latencyCycles);
            result.hit = true;
            result.level = 0;
            return result;
        }
    }

    // Miss: find a fill slot — invalid way first, else the LRU way (the
    // first way holding the oldest stamp).
    u32 fill = params_.associativity;
    for (u32 w = 0; w < params_.associativity; ++w) {
        if (!lineAt(set, w).valid) {
            fill = w;
            break;
        }
    }
    if (fill == params_.associativity) {
        fill = 0;
        u64 oldest = stamps_[slotOf(set, 0)];
        for (u32 w = 1; w < params_.associativity; ++w) {
            const u64 stamp = stamps_[slotOf(set, w)];
            if (stamp < oldest) {
                oldest = stamp;
                fill = w;
            }
        }
    }

    Line &line = lineAt(set, fill);
    if (line.valid && line.dirty)
        stats_.recordWriteback(line.asid);
    line.valid = true;
    line.tag = tag;
    line.asid = access.asid;
    line.dirty = access.isWrite();
    stamps_[slotOf(set, fill)] = ++clock_;

    result.latencyCycles =
        params_.hitLatencyCycles + params_.missPenaltyCycles;
    stats_.record(access.asid, false, access.isWrite(),
                  result.latencyCycles);
    result.hit = false;
    result.level = 2;
    return result;
}

std::string
SetAssocCache::name() const
{
    std::ostringstream os;
    os << formatSize(params_.sizeBytes) << " ";
    if (params_.associativity == 1)
        os << "direct-mapped";
    else
        os << params_.associativity << "-way";
    os << " lru";
    return os.str();
}

void
SetAssocCache::resetStats()
{
    stats_.reset();
    energyNj_ = 0.0;
}

bool
SetAssocCache::probe(Addr addr) const
{
    const u32 set = setIndex(addr);
    const Addr tag = tagOf(addr);
    for (u32 w = 0; w < params_.associativity; ++w) {
        const Line &line = lineAt(set, w);
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

u32
SetAssocCache::occupancy(Asid asid) const
{
    u32 count = 0;
    for (const Line &line : lines_)
        if (line.valid && line.asid == asid)
            ++count;
    return count;
}

void
SetAssocCache::flush()
{
    for (Line &line : lines_)
        line = Line{};
}

} // namespace molcache
