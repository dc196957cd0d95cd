#include "mem/interleave.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace molcache {

VectorSource::VectorSource(std::vector<MemAccess> accesses)
    : accesses_(std::move(accesses))
{
}

std::optional<MemAccess>
VectorSource::next()
{
    if (pos_ >= accesses_.size())
        return std::nullopt;
    return accesses_[pos_++];
}

size_t
AccessSource::nextBatch(MemAccess *out, size_t max)
{
    size_t n = 0;
    while (n < max) {
        auto a = next();
        if (!a)
            break;
        out[n++] = *a;
    }
    return n;
}

size_t
AccessSource::drainHints(PhaseHint *out, size_t max)
{
    (void)out;
    (void)max;
    return 0;
}

size_t
VectorSource::nextBatch(MemAccess *out, size_t max)
{
    const size_t n = std::min(max, accesses_.size() - pos_);
    std::copy_n(accesses_.begin() + static_cast<std::ptrdiff_t>(pos_), n,
                out);
    pos_ += n;
    return n;
}

Interleaver::Interleaver(std::vector<std::unique_ptr<AccessSource>> sources,
                         u64 limit)
    : limit_(limit)
{
    MOLCACHE_ASSERT(!sources.empty(), "interleaver needs >= 1 source");
    slots_.reserve(sources.size());
    for (auto &source : sources)
        slots_.push_back(Slot{std::move(source)});
}

int
Interleaver::pickSource()
{
    for (size_t step = 0; step < slots_.size(); ++step) {
        const size_t idx = (rrNext_ + step) % slots_.size();
        if (slots_[idx].live) {
            rrNext_ = (idx + 1) % slots_.size();
            return static_cast<int>(idx);
        }
    }
    return -1;
}

std::optional<MemAccess>
Interleaver::next()
{
    if (limit_ != 0 && produced_ >= limit_)
        return std::nullopt;

    while (true) {
        const int idx = pickSource();
        if (idx < 0)
            return std::nullopt;
        Slot &slot = slots_[static_cast<size_t>(idx)];
        if (auto a = slot.source->next()) {
            ++produced_;
            return a;
        }
        slot.live = false;
    }
}

size_t
Interleaver::nextBatch(MemAccess *out, size_t max)
{
    size_t n = 0;
    while (n < max) {
        if (limit_ != 0 && produced_ >= limit_)
            break;
        const int idx = pickSource();
        if (idx < 0)
            break;
        Slot &slot = slots_[static_cast<size_t>(idx)];
        if (auto a = slot.source->next()) {
            ++produced_;
            out[n++] = *a;
        } else {
            slot.live = false;
        }
    }
    return n;
}

size_t
Interleaver::drainHints(PhaseHint *out, size_t max)
{
    size_t n = 0;
    for (Slot &slot : slots_) {
        if (n >= max)
            break;
        n += slot.source->drainHints(out + n, max - n);
    }
    return n;
}

} // namespace molcache
