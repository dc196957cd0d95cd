#include "core/coherence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "contract/contract.hpp"
#include "util/random.hpp"

namespace molcache {
namespace {

TEST(Coherence, ReadFillsShareFreely)
{
    CoherenceDirectory dir(4);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{0}, false), 0u);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{1}, false), 0u);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{2}, false), 0u);
    EXPECT_EQ(dir.holderCount(LineAddr{0x1000}), 3u);
    EXPECT_TRUE(dir.isHeld(LineAddr{0x1000}, ClusterId{0}));
    EXPECT_TRUE(dir.isHeld(LineAddr{0x1000}, ClusterId{2}));
    EXPECT_FALSE(dir.isHeld(LineAddr{0x1000}, ClusterId{3}));
    EXPECT_FALSE(dir.isModified(LineAddr{0x1000}));
}

TEST(Coherence, WriteInvalidatesOtherHolders)
{
    CoherenceDirectory dir(4);
    dir.noteFill(LineAddr{0x2000}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x2000}, ClusterId{1}, false);
    dir.noteFill(LineAddr{0x2000}, ClusterId{3}, false);
    // Clusters 0 and 3 lose their copies.
    EXPECT_EQ(dir.noteWrite(LineAddr{0x2000}, ClusterId{1}), 0b1001u);
    EXPECT_EQ(dir.holderCount(LineAddr{0x2000}), 1u);
    EXPECT_TRUE(dir.isHeld(LineAddr{0x2000}, ClusterId{1}));
    EXPECT_TRUE(dir.isModified(LineAddr{0x2000}));
    EXPECT_EQ(dir.stats().invalidationsSent, 2u);
}

TEST(Coherence, ExclusiveFillInvalidates)
{
    CoherenceDirectory dir(2);
    dir.noteFill(LineAddr{0x3000}, ClusterId{0}, false);
    EXPECT_EQ(dir.noteFill(LineAddr{0x3000}, ClusterId{1}, /*exclusive=*/true),
              0b01u);
    EXPECT_TRUE(dir.isModified(LineAddr{0x3000}));
    EXPECT_TRUE(dir.isHeld(LineAddr{0x3000}, ClusterId{1}));
    EXPECT_FALSE(dir.isHeld(LineAddr{0x3000}, ClusterId{0}));
}

TEST(Coherence, ReadOfModifiedLineDowngrades)
{
    CoherenceDirectory dir(2);
    dir.noteWrite(LineAddr{0x4000}, ClusterId{0});
    EXPECT_TRUE(dir.isModified(LineAddr{0x4000}));
    EXPECT_EQ(dir.noteFill(LineAddr{0x4000}, ClusterId{1}, false), 0u);
    EXPECT_FALSE(dir.isModified(LineAddr{0x4000})); // downgraded to shared
    EXPECT_EQ(dir.holderCount(LineAddr{0x4000}), 2u);
    EXPECT_EQ(dir.stats().downgrades, 1u);
}

TEST(Coherence, EvictionRemovesHolderAndEntry)
{
    CoherenceDirectory dir(2);
    dir.noteFill(LineAddr{0x5000}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x5000}, ClusterId{1}, false);
    EXPECT_EQ(dir.entries(), 1u);
    dir.noteEviction(LineAddr{0x5000}, ClusterId{0});
    EXPECT_FALSE(dir.isHeld(LineAddr{0x5000}, ClusterId{0}));
    EXPECT_TRUE(dir.isHeld(LineAddr{0x5000}, ClusterId{1}));
    dir.noteEviction(LineAddr{0x5000}, ClusterId{1});
    EXPECT_EQ(dir.entries(), 0u); // last holder gone: entry reclaimed
}

TEST(Coherence, EvictionOfUnknownLineIsNoop)
{
    CoherenceDirectory dir(2);
    dir.noteEviction(LineAddr{0xdead}, ClusterId{0});
    EXPECT_EQ(dir.entries(), 0u);
    EXPECT_EQ(dir.stats().evictions, 0u);
}

TEST(Coherence, ModifiedOwnerEvictionClearsState)
{
    CoherenceDirectory dir(2);
    dir.noteWrite(LineAddr{0x6000}, ClusterId{0});
    dir.noteEviction(LineAddr{0x6000}, ClusterId{0});
    EXPECT_FALSE(dir.isModified(LineAddr{0x6000}));
    EXPECT_EQ(dir.holderCount(LineAddr{0x6000}), 0u);
}

TEST(Coherence, WriteByOnlyHolderInvalidatesNothing)
{
    CoherenceDirectory dir(4);
    dir.noteFill(LineAddr{0x7000}, ClusterId{2}, false);
    EXPECT_EQ(dir.noteWrite(LineAddr{0x7000}, ClusterId{2}), 0u);
    EXPECT_EQ(dir.stats().invalidationsSent, 0u);
}

TEST(Coherence, DistinctLinesIndependent)
{
    CoherenceDirectory dir(2);
    dir.noteWrite(LineAddr{0x8000}, ClusterId{0});
    dir.noteWrite(LineAddr{0x8040}, ClusterId{1});
    EXPECT_TRUE(dir.isHeld(LineAddr{0x8000}, ClusterId{0}));
    EXPECT_TRUE(dir.isHeld(LineAddr{0x8040}, ClusterId{1}));
    EXPECT_FALSE(dir.isHeld(LineAddr{0x8000}, ClusterId{1}));
    EXPECT_EQ(dir.entries(), 2u);
}

TEST(Coherence, StatsAccumulate)
{
    CoherenceDirectory dir(2);
    dir.noteFill(LineAddr{0x1}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x1}, ClusterId{1}, false);
    dir.noteWrite(LineAddr{0x1}, ClusterId{0});
    dir.noteEviction(LineAddr{0x1}, ClusterId{0});
    EXPECT_EQ(dir.stats().fills, 2u);
    EXPECT_EQ(dir.stats().writes, 1u);
    EXPECT_EQ(dir.stats().evictions, 1u);
    EXPECT_EQ(dir.stats().invalidationsSent, 1u);
}

/** The node-map directory the flat table replaced, kept as the
 * reference model for the differential test below. */
class ReferenceDirectory
{
    struct Entry
    {
        u32 holders = 0;
        bool modified = false;
        u32 owner = 0;
    };

  public:
    u32
    fill(u64 line, u32 cluster, bool exclusive)
    {
        ++stats.fills;
        Entry &e = map[line];
        if (exclusive)
            return takeExclusive(e, cluster);
        if (e.modified && e.owner != cluster) {
            e.modified = false;
            ++stats.downgrades;
        }
        e.holders |= 1u << cluster;
        return 0;
    }

    u32
    write(u64 line, u32 cluster)
    {
        ++stats.writes;
        return takeExclusive(map[line], cluster);
    }

    void
    evict(u64 line, u32 cluster)
    {
        const auto it = map.find(line);
        if (it == map.end())
            return;
        ++stats.evictions;
        it->second.holders &= ~(1u << cluster);
        if (it->second.modified && it->second.owner == cluster)
            it->second.modified = false;
        if (it->second.holders == 0)
            map.erase(it);
    }

    u32
    holders(u64 line) const
    {
        const auto it = map.find(line);
        return it == map.end() ? 0 : it->second.holders;
    }

    bool
    modified(u64 line) const
    {
        const auto it = map.find(line);
        return it != map.end() && it->second.modified;
    }

    CoherenceStats stats;
    std::unordered_map<u64, Entry> map;

  private:
    u32
    takeExclusive(Entry &e, u32 cluster)
    {
        const u32 others = e.holders & ~(1u << cluster);
        stats.invalidationsSent += static_cast<u32>(std::popcount(others));
        e.holders = 1u << cluster;
        e.modified = true;
        e.owner = cluster;
        return others;
    }
};

void
expectSameLine(const CoherenceDirectory &dir, const ReferenceDirectory &ref,
               u64 line, u32 clusters)
{
    const LineAddr la{line};
    const u32 holders = ref.holders(line);
    EXPECT_EQ(dir.holderCount(la), static_cast<u32>(std::popcount(holders)))
        << "line " << line;
    EXPECT_EQ(dir.isModified(la), ref.modified(line)) << "line " << line;
    for (u32 c = 0; c < clusters; ++c)
        EXPECT_EQ(dir.isHeld(la, ClusterId{c}), (holders >> c & 1u) != 0)
            << "line " << line << " cluster " << c;
}

TEST(Coherence, RandomOpsMatchMapReference)
{
    // Thousands of lines sharing their low 24 bits, driven from the
    // default (small) capacity: the table must grow several times, and
    // evictions keep backward-shifting long probe runs.
    constexpr u32 kClusters = 4;
    constexpr u32 kLines = 3000;
    constexpr u32 kOps = 60000;
    auto lineOf = [](u32 k) { return (static_cast<u64>(k) << 24) | 0x40; };

    CoherenceDirectory dir(kClusters);
    ReferenceDirectory ref;
    Pcg32 rng(2024);
    size_t peak = 0;
    for (u32 op = 0; op < kOps; ++op) {
        const u64 line = lineOf(rng.below(kLines));
        const u32 c = rng.below(kClusters);
        const LineAddr la{line};
        const u32 kind = rng.below(20);
        if (kind < 8) {
            ASSERT_EQ(dir.noteFill(la, ClusterId{c}, false),
                      ref.fill(line, c, false));
        } else if (kind < 11) {
            ASSERT_EQ(dir.noteFill(la, ClusterId{c}, true),
                      ref.fill(line, c, true));
        } else if (kind < 14) {
            ASSERT_EQ(dir.noteWrite(la, ClusterId{c}), ref.write(line, c));
        } else {
            dir.noteEviction(la, ClusterId{c});
            ref.evict(line, c);
        }

        const CoherenceStats &got = dir.stats();
        ASSERT_EQ(got.fills, ref.stats.fills) << "op " << op;
        ASSERT_EQ(got.writes, ref.stats.writes) << "op " << op;
        ASSERT_EQ(got.evictions, ref.stats.evictions) << "op " << op;
        ASSERT_EQ(got.invalidationsSent, ref.stats.invalidationsSent)
            << "op " << op;
        ASSERT_EQ(got.downgrades, ref.stats.downgrades) << "op " << op;
        ASSERT_EQ(dir.entries(), ref.map.size()) << "op " << op;
        peak = std::max(peak, dir.entries());

        expectSameLine(dir, ref, line, kClusters);
        for (int i = 0; i < 3; ++i)
            expectSameLine(dir, ref, lineOf(rng.below(kLines)), kClusters);
        if (HasFailure())
            FAIL() << "diverged at op " << op;
    }
    // Far past the default capacity, so grow() ran.
    EXPECT_GT(peak, 1000u);
    for (u32 k = 0; k < kLines; ++k)
        expectSameLine(dir, ref, lineOf(k), kClusters);
}

// These deaths come from contracts, which a pure Release build
// compiles out (Contract.CompiledOutChecksDoNotEvaluate pins that).
#if MOLCACHE_CONTRACTS_ACTIVE

TEST(CoherenceDeath, TooManyClusters)
{
    EXPECT_DEATH(CoherenceDirectory dir(33), "1..32");
}

#endif // MOLCACHE_CONTRACTS_ACTIVE

} // namespace
} // namespace molcache
