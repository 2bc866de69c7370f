/**
 * @file
 * Set-associative L2 cache model with LRU replacement.
 *
 * The simulator models only the unified L2 (4 MB, 2-way, 128 B lines on
 * the Origin2000): the paper's entire analysis is at the level of L2
 * misses and coherence traffic, and the R10000's 32 KB L1s are strictly
 * inclusive filters that do not change miss classification.
 */

#ifndef CCNUMA_SIM_CACHE_HH
#define CCNUMA_SIM_CACHE_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/protocol.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

/** Coherence state of a cached line. */
enum class LineState : std::uint8_t {
    Invalid = 0,
    Shared = 1,
    Dirty = 2, ///< Exclusive-modified (owner).
    Owned = 3, ///< Modified but shared; this cache supplies the data
               ///< (MOESI Owned / Dragon Sm). Never occurs under MESI.
};

/** Result of a cache lookup-and-allocate. */
struct CacheResult {
    bool hit = false;
    bool upgrade = false;       ///< Hit without write permission: the
                                ///< store needs a coherence
                                ///< transaction (invalidate or update).
    LineAddr victim = 0;        ///< Valid line evicted to make room.
    LineState victimState = LineState::Invalid;
};

/**
 * One processor's L2 cache. Addresses are full byte addresses; the cache
 * works internally on line numbers (addr >> lineShift).
 *
 * The way array comes from a process-wide pool of all-zero arrays (see
 * Way), so building and destroying a cache costs only the sets a run
 * filled, not its capacity.
 */
class Cache
{
  public:
    /**
     * @param bytes total capacity
     * @param assoc associativity
     * @param line_bytes line size (power of two)
     * @param proto coherence protocol whose requester table decides
     *        what a write hit does to the line state inline (nullptr
     *        means MESI, preserving the historical constructor).
     */
    Cache(std::uint64_t bytes, int assoc, std::uint32_t line_bytes,
          const Protocol* proto = nullptr);
    /// Zeroes the chunks this cache filled and returns the array to
    /// the pool.
    ~Cache();
    Cache(const Cache&) = delete;
    Cache& operator=(const Cache&) = delete;

    /// Cap on the bytes of idle arrays the pool keeps: four
    /// 128-processor machines of 4 MB L2s. Arrays released beyond it
    /// are unmapped.
    static constexpr std::uint64_t kPoolCapBytes = std::uint64_t{256}
                                                   << 20;
    /// Bytes of idle way arrays in the process-wide pool now.
    static std::uint64_t pooledBytes();

    /// Look up a line; allocates (Shared on read, Dirty on write) on
    /// miss. Defined inline below: the lookup and victim scan are fused
    /// into one pass over the set, and the whole path inlines into
    /// MemSys::access — together the hottest loop of the simulator.
    CacheResult access(Addr addr, bool is_write);

    /// Probe without side effects.
    LineState probe(Addr addr) const;

    /// Invalidate a line if present (due to a remote write).
    /// @return state the line was in.
    LineState invalidate(Addr addr);

    /// Downgrade Dirty->Shared (remote read of a line we own).
    void downgrade(Addr addr);

    /// Force a resident line into `st` (protocol-engine resolution of
    /// context-dependent next states, e.g. Dirty->Owned on an
    /// owner-forwarded read or Dragon's Sm/Sc transitions). The line
    /// must be resident; no LRU update.
    void setState(Addr addr, LineState st);

    /// Install a line in the given state, e.g. by a prefetch.
    /// Returns eviction info like access().
    CacheResult install(Addr addr, LineState st);

    std::uint64_t lineOf(Addr addr) const { return addr >> lineShift_; }
    std::uint32_t lineBytes() const { return 1u << lineShift_; }
    std::uint64_t numSets() const { return sets_; }
    int assoc() const { return assoc_; }

    /// Number of valid lines currently resident (for tests).
    std::uint64_t residentLines() const;

    /// Call fn(lineBaseAddr, state) for every valid line (validation).
    /// Visits only the chunks this cache ever filled.
    template <typename Fn>
    void
    forEachLine(Fn&& fn) const
    {
        forEachFilledChunk([&](std::uint64_t first, std::uint64_t end) {
            for (std::uint64_t i = first; i < end; ++i) {
                const Way& w = ways_[i];
                if (w.state != LineState::Invalid)
                    fn(w.line << lineShift_, w.state);
            }
        });
    }

    /// Drop every line, as if by a full flush; no writebacks are modelled
    /// (used when resetting between phases in tests).
    void reset();

  private:
    /// Trivial, and meaningful when all-zero (LineState::Invalid == 0).
    /// A 4 MB L2 is 512 KB of Way state, 64 MB per 128-processor
    /// machine, and a short run touches a sliver of it. calloc would
    /// lazy-zero only fresh memory; recycled heap it memsets in full.
    /// So the array comes from a pool of all-zero arrays (anonymous
    /// mmap, recycled, never returned to the heap), the cache records
    /// in `filled_` each kChunkBytes chunk in which it filled an
    /// Invalid way, and it zeroes just those chunks before giving the
    /// array back.
    struct Way {
        std::uint64_t line;
        LineState state;
        std::uint32_t lastUse;
    };
    /// Returns an all-zero array of `bytes` to the pool.
    struct WayGive {
        std::size_t bytes;
        void operator()(Way* p) const;
    };

    /// One page of ways; the unit `filled_` tracks and teardown zeroes.
    static constexpr std::uint64_t kChunkBytes = 4096;
    static constexpr std::uint64_t kChunkWays = kChunkBytes / sizeof(Way);
    static_assert(kChunkBytes % sizeof(Way) == 0);

    std::uint64_t numWays() const { return sets_ * assoc_; }

    /// Record that `w`, an Invalid way, is being filled.
    void
    markFilled(const Way* w)
    {
        const auto chunk =
            static_cast<std::uint64_t>(w - ways_.get()) / kChunkWays;
        filled_[chunk / 64] |= std::uint64_t{1} << (chunk % 64);
    }

    /// Call fn(firstWay, endWay) for every chunk in `filled_`.
    template <typename Fn>
    void
    forEachFilledChunk(Fn&& fn) const
    {
        for (std::size_t word = 0; word < filled_.size(); ++word) {
            for (std::uint64_t bits = filled_[word]; bits != 0;
                 bits &= bits - 1) {
                const std::uint64_t first =
                    (word * 64 + std::countr_zero(bits)) * kChunkWays;
                const std::uint64_t end = first + kChunkWays;
                fn(first, end < numWays() ? end : numWays());
            }
        }
    }

    /// Zero every filled chunk and clear `filled_`.
    void zeroFilled();

    std::uint64_t setIndex(std::uint64_t line) const
    {
        return line & (sets_ - 1);
    }

    Way*
    find(std::uint64_t line)
    {
        Way* base = &ways_[setIndex(line) * assoc_];
        for (int w = 0; w < assoc_; ++w)
            if (base[w].state != LineState::Invalid &&
                base[w].line == line)
                return &base[w];
        return nullptr;
    }
    const Way*
    find(std::uint64_t line) const
    {
        return const_cast<Cache*>(this)->find(line);
    }

    int lineShift_;
    std::uint64_t sets_;
    int assoc_;
    std::uint32_t useClock_ = 0;
    /// Bit per chunk of `ways_`: set once an Invalid way in it is filled.
    std::vector<std::uint64_t> filled_;
    std::unique_ptr<Way[], WayGive> ways_; ///< sets_*assoc_, set-major.

    /// Resolved req[write][state].next per current state, applied
    /// inline on a write hit; LineState::Invalid means "leave
    /// unchanged, the engine resolves it" (Dragon's OwnedIfSharers).
    /// Keeps the historical Shared->Dirty hot-path store for MESI.
    LineState writeHitNext_[4] = {LineState::Invalid, LineState::Dirty,
                                  LineState::Invalid, LineState::Invalid};

    /// One pass over a set: returns the matching way via `hit`, or
    /// leaves `hit` null and returns the fill victim (first invalid
    /// way if any, else least-recently-used — identical choice to a
    /// separate find-then-scan).
    Way*
    scanSet(std::uint64_t line, Way*& hit)
    {
        Way* base = &ways_[setIndex(line) * assoc_];
        Way* victim = base;
        for (int w = 0; w < assoc_; ++w) {
            Way& cand = base[w];
            if (cand.state == LineState::Invalid) {
                if (victim->state != LineState::Invalid)
                    victim = &cand;
                continue;
            }
            if (cand.line == line) {
                hit = &cand;
                return victim;
            }
            if (victim->state != LineState::Invalid &&
                cand.lastUse < victim->lastUse)
                victim = &cand;
        }
        hit = nullptr;
        return victim;
    }
};

inline CacheResult
Cache::access(Addr addr, bool is_write)
{
    const std::uint64_t line = lineOf(addr);
    ++useClock_;
    Way* hit = nullptr;
    Way* victim = scanSet(line, hit);
    if (hit) {
        hit->lastUse = useClock_;
        CacheResult r;
        r.hit = true;
        if (is_write && hit->state != LineState::Dirty) {
            r.upgrade = true;
            const LineState nx =
                writeHitNext_[static_cast<int>(hit->state)];
            if (nx != LineState::Invalid)
                hit->state = nx;
        }
        return r;
    }
    // Miss: fill into the victim. The second tick keeps lastUse values
    // identical to the historical access()->install() pair, so LRU
    // decisions (and thus every simulated metric) are unchanged.
    ++useClock_;
    CacheResult r;
    if (victim->state != LineState::Invalid) {
        r.victim = victim->line << lineShift_;
        r.victimState = victim->state;
    } else {
        markFilled(victim);
    }
    victim->line = line;
    victim->state = is_write ? LineState::Dirty : LineState::Shared;
    victim->lastUse = useClock_;
    return r;
}

inline CacheResult
Cache::install(Addr addr, LineState st)
{
    assert(st != LineState::Invalid);
    const std::uint64_t line = lineOf(addr);
    ++useClock_;
    Way* hit = nullptr;
    Way* victim = scanSet(line, hit);
    if (hit) {
        // Prefetch raced with demand fetch or repeated install.
        hit->lastUse = useClock_;
        if (st == LineState::Dirty)
            hit->state = LineState::Dirty;
        CacheResult r;
        r.hit = true;
        return r;
    }
    CacheResult r;
    if (victim->state != LineState::Invalid) {
        r.victim = victim->line << lineShift_;
        r.victimState = victim->state;
    } else {
        markFilled(victim);
    }
    victim->line = line;
    victim->state = st;
    victim->lastUse = useClock_;
    return r;
}

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_CACHE_HH
