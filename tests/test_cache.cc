/**
 * @file
 * Unit tests for the set-associative L2 cache model.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"

using namespace ccnuma::sim;

namespace {
constexpr std::uint32_t kLine = 128;
} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(8 << 10, 2, kLine);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000 + kLine - 1, false).hit) <<
        "same line, different offset";
    EXPECT_FALSE(c.access(0x1000 + kLine, false).hit) << "next line";
}

TEST(Cache, WriteAllocatesDirty)
{
    Cache c(8 << 10, 2, kLine);
    EXPECT_FALSE(c.access(0x2000, true).hit);
    EXPECT_EQ(c.probe(0x2000), LineState::Dirty);
}

TEST(Cache, ReadAllocatesShared)
{
    Cache c(8 << 10, 2, kLine);
    c.access(0x2000, false);
    EXPECT_EQ(c.probe(0x2000), LineState::Shared);
}

TEST(Cache, WriteHitOnSharedUpgrades)
{
    Cache c(8 << 10, 2, kLine);
    c.access(0x2000, false);
    const CacheResult r = c.access(0x2000, true);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.upgrade);
    EXPECT_EQ(c.probe(0x2000), LineState::Dirty);
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way: lines mapping to the same set evict the least recently used.
    Cache c(8 << 10, 2, kLine);
    const std::uint64_t set_stride = c.numSets() * kLine;
    const Addr a = 0x0, b = a + set_stride, d = a + 2 * set_stride;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // refresh a; b is now LRU
    const CacheResult r = c.access(d, false);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.victim, b);
    EXPECT_EQ(r.victimState, LineState::Shared);
    EXPECT_EQ(c.probe(a), LineState::Shared);
    EXPECT_EQ(c.probe(b), LineState::Invalid);
}

TEST(Cache, DirtyVictimReported)
{
    Cache c(8 << 10, 2, kLine);
    const std::uint64_t set_stride = c.numSets() * kLine;
    c.access(0x0, true);
    c.access(set_stride, false);
    const CacheResult r = c.access(2 * set_stride, false);
    EXPECT_EQ(r.victim, 0u);
    EXPECT_EQ(r.victimState, LineState::Dirty);
}

TEST(Cache, InvalidateAndDowngrade)
{
    Cache c(8 << 10, 2, kLine);
    c.access(0x4000, true);
    c.downgrade(0x4000);
    EXPECT_EQ(c.probe(0x4000), LineState::Shared);
    EXPECT_EQ(c.invalidate(0x4000), LineState::Shared);
    EXPECT_EQ(c.probe(0x4000), LineState::Invalid);
    EXPECT_EQ(c.invalidate(0x4000), LineState::Invalid);
}

TEST(Cache, CapacityWorkingSetBehaviour)
{
    // A working set equal to capacity fits (fully-assoc would; 2-way LRU
    // with sequential fill also does since each set sees its own lines in
    // order); 2x capacity thrashes.
    const std::uint64_t cap = 64 << 10;
    Cache c(cap, 2, kLine);
    const int lines = static_cast<int>(cap / kLine);
    for (int i = 0; i < lines; ++i)
        c.access(static_cast<Addr>(i) * kLine, false);
    EXPECT_EQ(c.residentLines(), static_cast<std::uint64_t>(lines));
    int hits = 0;
    for (int i = 0; i < lines; ++i)
        hits += c.access(static_cast<Addr>(i) * kLine, false).hit;
    EXPECT_EQ(hits, lines) << "capacity-sized set should fully hit";

    c.reset();
    for (int rep = 0; rep < 2; ++rep)
        for (int i = 0; i < 2 * lines; ++i)
            c.access(static_cast<Addr>(i) * kLine, false);
    hits = 0;
    for (int i = 0; i < 2 * lines; ++i)
        hits += c.access(static_cast<Addr>(i) * kLine, false).hit;
    EXPECT_EQ(hits, 0) << "2x working set under LRU sequential scan "
                          "should thrash completely";
}

TEST(Cache, InstallIdempotentAndStateMerge)
{
    Cache c(8 << 10, 2, kLine);
    c.install(0x8000, LineState::Shared);
    EXPECT_EQ(c.probe(0x8000), LineState::Shared);
    const CacheResult r = c.install(0x8000, LineState::Dirty);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c.probe(0x8000), LineState::Dirty);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(100, 2, 128), std::invalid_argument);
    EXPECT_THROW(Cache(8 << 10, 2, 100), std::invalid_argument);
}

TEST(Cache, ResidentCountTracksEvictions)
{
    Cache c(2 * kLine, 2, kLine); // one set, two ways
    c.access(0, false);
    c.access(kLine, false);
    c.access(2 * kLine, false); // evicts
    EXPECT_EQ(c.residentLines(), 2u);
}

// ---------------------------------------------------------------------------
// Way arrays come from a process-wide pool of all-zero arrays, and a
// cache zeroes only the chunks it filled before giving its array back.
// Each test below uses a geometry no other test uses, so the pool
// deltas it checks hold whatever other tests ran earlier in the
// process (not under --gtest_repeat, which leaves its own arrays idle).
// ---------------------------------------------------------------------------

namespace {

/// Fill every way of every set, then invalidate some so
/// Invalid-but-stale ways exist too. The upper half of the sets fills
/// by install() only, so some chunks see no access() fill at all.
void
fillEverySet(Cache& c)
{
    const std::uint64_t set_stride = c.numSets() * kLine;
    for (int w = 0; w < c.assoc(); ++w) {
        for (std::uint64_t s = 0; s < c.numSets(); ++s) {
            const Addr a = 0x4000000 + w * set_stride + s * kLine;
            if (2 * s >= c.numSets())
                c.install(a, LineState::Shared);
            else
                c.access(a, (s + w) % 3 == 0);
        }
    }
    for (std::uint64_t s = 0; s < c.numSets(); s += 5)
        c.invalidate(0x4000000 + s * kLine);
}

/// Drive the same seeded access/install sequence through both caches
/// and require identical results: hits, upgrades, victims, states.
void
expectSameBehaviour(Cache& a, Cache& b)
{
    ASSERT_EQ(a.numSets(), b.numSets());
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const std::uint64_t lines = 4 * a.numSets() * a.assoc();
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr addr = (x % lines) * kLine;
        SCOPED_TRACE(i);
        if (x % 11 == 0) {
            const CacheResult ra = a.install(addr, LineState::Shared);
            const CacheResult rb = b.install(addr, LineState::Shared);
            ASSERT_EQ(ra.hit, rb.hit);
            ASSERT_EQ(ra.victim, rb.victim);
            ASSERT_EQ(ra.victimState, rb.victimState);
        } else if (x % 13 == 0) {
            ASSERT_EQ(a.invalidate(addr), b.invalidate(addr));
        } else {
            const bool write = (x >> 20) % 4 == 0;
            const CacheResult ra = a.access(addr, write);
            const CacheResult rb = b.access(addr, write);
            ASSERT_EQ(ra.hit, rb.hit);
            ASSERT_EQ(ra.upgrade, rb.upgrade);
            ASSERT_EQ(ra.victim, rb.victim);
            ASSERT_EQ(ra.victimState, rb.victimState);
        }
        ASSERT_EQ(a.probe(addr), b.probe(addr));
    }
    EXPECT_EQ(a.residentLines(), b.residentLines());
}

} // namespace

TEST(CachePool, RecycledArrayStartsEmpty)
{
    // 3-way: sets straddle the 256-way chunks the cache tracks.
    constexpr std::uint64_t kBytes = 96 << 10; // 256 sets, 12 KB array
    constexpr std::uint64_t kArray = 256 * 3 * 16;
    const std::uint64_t before = Cache::pooledBytes();
    {
        Cache dirty(kBytes, 3, kLine);
        fillEverySet(dirty);
        ASSERT_GT(dirty.residentLines(), 0u);
    }
    ASSERT_EQ(Cache::pooledBytes(), before + kArray)
        << "the destroyed cache's array went back to the pool";

    Cache recycled(kBytes, 3, kLine);
    EXPECT_EQ(Cache::pooledBytes(), before) << "and came out again";
    EXPECT_EQ(recycled.residentLines(), 0u);
    const std::uint64_t set_stride = recycled.numSets() * kLine;
    for (int w = 0; w < 3; ++w)
        for (std::uint64_t s = 0; s < recycled.numSets(); ++s)
            ASSERT_EQ(recycled.probe(0x4000000 + w * set_stride +
                                     s * kLine),
                      LineState::Invalid);

    // The pool holds no other array of this size, so this one is
    // freshly mapped: the LRU/victim sequence must match it.
    Cache fresh(kBytes, 3, kLine);
    expectSameBehaviour(recycled, fresh);
}

TEST(CachePool, ResetThenRefillBehavesLikeFresh)
{
    Cache c(160 << 10, 5, kLine); // 256 sets x 5 ways
    fillEverySet(c);
    c.reset();
    EXPECT_EQ(c.residentLines(), 0u);
    Cache fresh(160 << 10, 5, kLine);
    expectSameBehaviour(c, fresh);
}

TEST(CachePool, GeometriesNeverShareAnArray)
{
    constexpr std::uint64_t kSmall = 16 << 10;  // 8-way: 2 KB array
    constexpr std::uint64_t kLarge = 128 << 10; // 8-way: 16 KB array
    const std::uint64_t before = Cache::pooledBytes();
    {
        Cache small(kSmall, 8, kLine);
        fillEverySet(small);
    }
    ASSERT_EQ(Cache::pooledBytes(), before + 2048);
    {
        Cache large(kLarge, 8, kLine);
        EXPECT_EQ(Cache::pooledBytes(), before + 2048)
            << "a larger geometry must not take the smaller array";
        EXPECT_EQ(large.residentLines(), 0u);
    }
    ASSERT_EQ(Cache::pooledBytes(), before + 2048 + 16384);
    Cache small(kSmall, 8, kLine);
    EXPECT_EQ(Cache::pooledBytes(), before + 16384)
        << "the same geometry takes its own size back";
    EXPECT_EQ(small.residentLines(), 0u);
}

TEST(CachePool, ValidationSeesExactlyTheResidentLines)
{
    // Lines spread over every chunk, some invalidated again: the
    // filled-chunk walk must report exactly the valid ones.
    Cache c(1 << 20, 2, kLine); // 4096 sets, 32 chunks
    std::uint64_t expect = 0;
    for (std::uint64_t s = 0; s < c.numSets(); s += 37) {
        c.access(s * kLine, s % 2 == 0);
        ++expect;
        if (s % 3 == 0) {
            c.invalidate(s * kLine);
            --expect;
        }
    }
    std::uint64_t seen = 0;
    c.forEachLine([&](Addr line, LineState st) {
        ++seen;
        EXPECT_EQ(c.probe(line), st);
        EXPECT_NE(st, LineState::Invalid);
    });
    EXPECT_EQ(seen, expect);
    EXPECT_EQ(c.residentLines(), expect);
}
