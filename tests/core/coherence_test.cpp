#include "core/coherence.hpp"

#include <gtest/gtest.h>

#include "contract/contract.hpp"

namespace molcache {
namespace {

TEST(Coherence, ReadFillsShareFreely)
{
    CoherenceDirectory dir(4);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{0}, false), 0u);
    EXPECT_FALSE(dir.shared());
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{1}, false), 0u);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{2}, false), 0u);
    EXPECT_TRUE(dir.shared());
    EXPECT_EQ(dir.chunkHolders(LineAddr{0x1000}), 0b0111u);
    EXPECT_EQ(dir.entries(), 3u);
}

TEST(Coherence, WriteInvalidatesOtherHolders)
{
    CoherenceDirectory dir(4);
    dir.noteFill(LineAddr{0x2000}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x2000}, ClusterId{1}, false);
    dir.noteFill(LineAddr{0x2000}, ClusterId{3}, false);
    // Clusters 0 and 3 are snooped; the masks are grow-only.
    EXPECT_EQ(dir.noteWrite(LineAddr{0x2000}, ClusterId{1}), 0b1001u);
    EXPECT_EQ(dir.noteWrite(LineAddr{0x2040}, ClusterId{0}), 0b1010u);
    EXPECT_EQ(dir.chunkHolders(LineAddr{0x2000}), 0b1011u);
}

TEST(Coherence, ExclusiveFillInvalidates)
{
    CoherenceDirectory dir(3);
    dir.noteFill(LineAddr{0x3000}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x3040}, ClusterId{2}, false);
    // An exclusive fill returns the chunk's other holders, whichever of
    // its lines they filled.
    EXPECT_EQ(dir.noteFill(LineAddr{0x3000}, ClusterId{1}, /*exclusive=*/true),
              0b101u);
    EXPECT_EQ(dir.chunkHolders(LineAddr{0x3000}), 0b111u);
}

TEST(Coherence, WriteByOnlyHolderInvalidatesNothing)
{
    CoherenceDirectory dir(4);
    dir.noteFill(LineAddr{0x7000}, ClusterId{2}, false);
    EXPECT_EQ(dir.noteFill(LineAddr{0x7040}, ClusterId{2}, true), 0u);
    EXPECT_EQ(dir.noteWrite(LineAddr{0x7000}, ClusterId{2}), 0u);
    EXPECT_FALSE(dir.shared());
    // Still the sole holder of its chunk once another chunk is shared.
    dir.noteFill(LineAddr{0x10000}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x10000}, ClusterId{1}, false);
    ASSERT_TRUE(dir.shared());
    EXPECT_EQ(dir.noteWrite(LineAddr{0x7000}, ClusterId{2}), 0u);
}

TEST(Coherence, DistinctLinesIndependent)
{
    // Lines in distinct 64 KiB chunks never name each other's holders.
    CoherenceDirectory dir(2);
    dir.noteFill(LineAddr{0x8000}, ClusterId{0}, true);
    EXPECT_EQ(dir.noteFill(LineAddr{0x18000}, ClusterId{1}, true), 0u);
    EXPECT_FALSE(dir.shared());
    EXPECT_EQ(dir.chunkHolders(LineAddr{0x8000}), 0b01u);
    EXPECT_EQ(dir.chunkHolders(LineAddr{0x18000}), 0b10u);
    EXPECT_EQ(dir.chunkHolders(LineAddr{0x28000}), 0u);
    EXPECT_EQ(dir.entries(), 2u);
}

TEST(Coherence, StatsAccumulate)
{
    CoherenceDirectory dir(2);
    dir.noteFill(LineAddr{0x1}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x1}, ClusterId{1}, false);
    dir.noteWrite(LineAddr{0x1}, ClusterId{0});
    dir.noteInvalidation();
    dir.noteEviction();
    dir.noteEviction(0);
    EXPECT_EQ(dir.stats().fills, 2u);
    EXPECT_EQ(dir.stats().writes, 1u);
    EXPECT_EQ(dir.stats().evictions, 1u);
    EXPECT_EQ(dir.stats().invalidationsSent, 1u);
    EXPECT_EQ(dir.entries(), 1u);
}

TEST(Coherence, ChunkTableGrowthKeepsEveryMask)
{
    // 1000 chunks, far past the 256 initial slots, so the table doubled
    // at least twice; every mask survives each rehash.
    constexpr u32 kClusters = 5;
    constexpr u64 kChunks = 1000;
    const auto lineOf = [](u64 k) { return LineAddr{k << 16 | 0x40}; };
    CoherenceDirectory dir(kClusters);
    for (u64 k = 0; k < kChunks; ++k) {
        dir.noteFill(lineOf(k), ClusterId{static_cast<u32>(k % kClusters)},
                     false);
        if (k % 3 == 0)
            dir.noteFill(lineOf(k),
                         ClusterId{static_cast<u32>((k + 1) % kClusters)},
                         false);
    }
    for (u64 k = 0; k < kChunks; ++k) {
        u32 want = 1u << (k % kClusters);
        if (k % 3 == 0)
            want |= 1u << ((k + 1) % kClusters);
        EXPECT_EQ(dir.chunkHolders(lineOf(k)), want) << "chunk " << k;
    }
    EXPECT_EQ(dir.chunkHolders(lineOf(kChunks)), 0u);
    EXPECT_EQ(dir.entries(), kChunks + (kChunks + 2) / 3);
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
