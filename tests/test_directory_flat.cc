/**
 * @file
 * Differential tests for the flat sharded directory storage.
 *
 * Three layers of evidence that the FlatHashMap-based directory behaves
 * exactly like the std::unordered_map it replaced:
 *  - the container itself, exercised with randomized insert/find/erase
 *    mixes against a std::unordered_map oracle (backward-shift deletion
 *    is the subtle part, so the mixes are erase-heavy and collision-
 *    heavy);
 *  - sim::Directory, driven directly with randomized lookup+mutate,
 *    probe, drop and reserveLines mixes against a test-local
 *    std::unordered_map<LineAddr, DirEntry>, with keys spread over
 *    several shards and across page boundaries, and compared through
 *    size(), probe() and forEach();
 *  - the whole protocol, by running randomized stress traces on a
 *    hostile tiny-cache machine with frequent validateCoherence()
 *    sweeps.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "check/stress.hh"
#include "sim/directory.hh"
#include "sim/flat_hash.hh"

namespace {

using ccnuma::sim::FlatHashMap;

// Randomized op mix against a std::unordered_map oracle. Keys are line
// addresses: page-strided multiples of the line size, the same
// low-entropy pattern the directory sees.
void
differentialRun(std::uint64_t seed, std::uint64_t key_space, int ops)
{
    std::mt19937_64 rng(seed);
    FlatHashMap<std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    auto randKey = [&] {
        return (rng() % key_space) * 128; // line-aligned addresses
    };

    for (int i = 0; i < ops; ++i) {
        const std::uint64_t key = randKey();
        switch (rng() % 4) {
          case 0:   // insert or overwrite
          case 1: {
            const std::uint64_t v = rng();
            flat[key] = v;
            ref[key] = v;
            break;
          }
          case 2: { // erase
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
            break;
          }
          case 3: { // lookup
            const std::uint64_t* fv = flat.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(fv != nullptr, it != ref.end());
            if (fv)
                EXPECT_EQ(*fv, it->second);
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    // Full-content sweep both ways.
    std::size_t seen = 0;
    flat.forEach([&](std::uint64_t k, const std::uint64_t& v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "flat has spurious key " << k;
        EXPECT_EQ(v, it->second);
        ++seen;
    });
    EXPECT_EQ(seen, ref.size());
    for (const auto& [k, v] : ref) {
        const std::uint64_t* fv = flat.find(k);
        ASSERT_NE(fv, nullptr) << "flat lost key " << k;
        EXPECT_EQ(*fv, v);
    }
}

TEST(FlatHashMap, MatchesUnorderedMapDenseKeys)
{
    // Tiny key space: constant churn on the same slots, maximal
    // backward-shift activity.
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        differentialRun(seed, 32, 4000);
}

TEST(FlatHashMap, MatchesUnorderedMapSparseKeys)
{
    // Wide key space: growth/rehash dominates.
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        differentialRun(seed, 1 << 16, 8000);
}

TEST(FlatHashMap, EraseDuringCollisionRuns)
{
    // Force long probe chains by inserting many keys, then erase them
    // in a different order while verifying the remainder stays findable.
    FlatHashMap<int> flat;
    std::unordered_map<std::uint64_t, int> ref;
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t k = rng() % 4096 * 128;
        if (!ref.count(k))
            keys.push_back(k);
        flat[k] = i;
        ref[k] = i;
    }
    std::shuffle(keys.begin(), keys.end(), rng);
    for (const std::uint64_t k : keys) {
        ASSERT_TRUE(flat.erase(k));
        ref.erase(k);
        ASSERT_EQ(flat.size(), ref.size());
        for (const auto& [k2, v2] : ref) {
            const int* fv = flat.find(k2);
            ASSERT_NE(fv, nullptr);
            ASSERT_EQ(*fv, v2);
        }
    }
    EXPECT_TRUE(flat.empty());
}

// ---- sim::Directory against a test-local reference map ----

using ccnuma::sim::DirEntry;
using ccnuma::sim::Directory;
using ccnuma::sim::DirState;
using ccnuma::sim::LineAddr;
using ccnuma::sim::ProcId;
using RefDirectory = std::unordered_map<LineAddr, DirEntry>;

constexpr std::uint64_t kLineBytes = 128;

/// Every entry forEach() reports is in `ref` with equal contents, each
/// line is reported once, and nothing in `ref` is missing.
void
expectSameContents(const Directory& dir, const RefDirectory& ref)
{
    ASSERT_EQ(dir.size(), ref.size());
    RefDirectory seen;
    dir.forEach([&](LineAddr line, const DirEntry& e) {
        const auto it = ref.find(line);
        ASSERT_NE(it, ref.end()) << "spurious line 0x" << std::hex << line;
        EXPECT_EQ(e, it->second) << "line 0x" << std::hex << line;
        EXPECT_TRUE(seen.emplace(line, e).second)
            << "line 0x" << std::hex << line << " reported twice";
    });
    EXPECT_EQ(seen.size(), ref.size());
    for (const auto& [line, e] : ref) {
        const DirEntry* got = dir.probe(line);
        ASSERT_NE(got, nullptr) << "lost line 0x" << std::hex << line;
        EXPECT_EQ(*got, e) << "line 0x" << std::hex << line;
    }
}

/// Randomized lookup+mutate / probe / drop / reserveLines mix. Keys are
/// line addresses in `pages` consecutive pages, so they spread over
/// every shard and cross page (hence shard) boundaries, while a small
/// `linesPerPage` keeps each shard's table dense and erase-heavy.
void
directoryDifferential(std::uint64_t seed, int numNodes,
                      std::uint32_t pageBytes, int pages,
                      int linesPerPage, int ops)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Directory dir(numNodes, pageBytes);
    RefDirectory ref;
    const auto randLine = [&]() -> LineAddr {
        return (rng() % pages) * pageBytes +
               (rng() % linesPerPage) * kLineBytes;
    };
    for (int i = 0; i < ops; ++i) {
        const LineAddr line = randLine();
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2: { // lookup (creating Uncached if absent), then mutate
            DirEntry& e = dir.lookup(line);
            DirEntry& r = ref[line];
            ASSERT_EQ(e, r) << "line 0x" << std::hex << line;
            const ProcId p = static_cast<ProcId>(rng() % 64);
            switch (rng() % 4) {
              case 0:
                e.state = r.state = DirState::Shared;
                e.sharers.add(p);
                r.sharers.add(p);
                break;
              case 1:
                e.state = r.state = DirState::Dirty;
                e.owner = r.owner = p;
                e.sharers.clear();
                r.sharers.clear();
                e.sharers.add(p);
                r.sharers.add(p);
                break;
              case 2:
                e.sharers.remove(p);
                r.sharers.remove(p);
                e.overflow = r.overflow = !r.overflow;
                break;
              case 3:
                break; // read-only lookup: the entry still materializes
            }
            break;
          }
          case 3:
          case 4: { // probe never allocates
            const DirEntry* e = dir.probe(line);
            const auto it = ref.find(line);
            ASSERT_EQ(e != nullptr, it != ref.end())
                << "line 0x" << std::hex << line;
            if (e) {
                EXPECT_EQ(*e, it->second);
            }
            break;
          }
          case 5:
          case 6: // drop
            dir.drop(line);
            ref.erase(line);
            break;
          case 7:
            if (rng() % 64 == 0) { // presize: contents must not move
                dir.reserveLines(ref.size() * 2 + rng() % 4096);
                expectSameContents(dir, ref);
            }
            break;
        }
        ASSERT_EQ(dir.size(), ref.size()) << "after op " << i;
    }
    expectSameContents(dir, ref);
}

TEST(DirectoryDifferential, MatchesReferenceMapAcrossShardsAndPages)
{
    // 8 shards (6 nodes round up), 16 KB pages: 24 pages cover every
    // shard three times over.
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        directoryDifferential(seed, 6, 16u << 10, 24, 32, 6000);
    // Many shards, small pages: most consecutive keys change shard.
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        directoryDifferential(seed, 64, 4u << 10, 256, 8, 6000);
    // One shard: every key lands in the same table.
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        directoryDifferential(seed, 1, 16u << 10, 4, 128, 6000);
    // A handful of lines per shard: constant insert/drop on the same
    // slots, the backward-shift deletion path at its busiest.
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        directoryDifferential(seed, 4, 16u << 10, 4, 4, 4000);
}

TEST(DirectoryDifferential, DropDuringCollisionRuns)
{
    // Fill one shard with a long run of keys (every page maps to shard
    // 0), then drop them in shuffled order; after each drop everything
    // left must still be found, unchanged, and the dropped line gone.
    const std::uint32_t pageBytes = 16u << 10;
    Directory dir(4, pageBytes);
    RefDirectory ref;
    std::mt19937_64 rng(7);
    std::vector<LineAddr> lines;
    for (int i = 0; i < 600; ++i) {
        const LineAddr line = (rng() % 16) * 4 * pageBytes +
                              (rng() % 128) * kLineBytes;
        if (!ref.count(line))
            lines.push_back(line);
        DirEntry& e = dir.lookup(line);
        e.state = DirState::Shared;
        e.sharers.add(static_cast<ProcId>(i % 200));
        ref[line] = e;
    }
    expectSameContents(dir, ref);
    std::shuffle(lines.begin(), lines.end(), rng);
    for (const LineAddr line : lines) {
        dir.drop(line);
        ref.erase(line);
        ASSERT_EQ(dir.probe(line), nullptr)
            << "line 0x" << std::hex << line;
        ASSERT_NO_FATAL_FAILURE(expectSameContents(dir, ref));
    }
    EXPECT_EQ(dir.size(), 0u);
    dir.drop(lines.front()); // dropping an absent line is a no-op
    EXPECT_EQ(dir.size(), 0u);
}

TEST(DirectoryDifferential, HostileStressStaysCoherent)
{
    // The whole protocol on the hostile tiny-cache stress machine, 20
    // seeds, with validateCoherence() sweeping the directory against
    // every cache every 64 commits.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ccnuma::check::StressOptions opt;
        opt.seed = seed;
        opt.procs = 8;
        opt.opsPerProc = 300;
        opt.validateEvery = 64;
        const ccnuma::check::StressReport rep =
            ccnuma::check::runStress(opt);
        EXPECT_FALSE(rep.failed)
            << "seed " << seed << ": " << rep.message;
        EXPECT_GT(rep.validations, 0u) << "seed " << seed;
    }
}

} // namespace
