#include "sim/cache.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>
#include <new>
#include <stdexcept>
#include <unordered_map>

namespace ccnuma::sim {

namespace {

int
log2Exact(std::uint64_t v)
{
    if (v == 0 || (v & (v - 1)) != 0)
        throw std::invalid_argument("value must be a power of two");
    return std::countr_zero(v);
}

/**
 * Process-wide pool of all-zero way arrays, keyed by byte size. Arrays
 * are anonymous mappings: a new one costs no page-touching, and a
 * recycled one was zeroed chunk by chunk by the cache that gave it
 * back. Unmapping per Machine would instead pay page faults and TLB
 * shootdowns on every run, so arrays are recycled up to
 * Cache::kPoolCapBytes of idle bytes and unmapped beyond it.
 */
class WayPool
{
  public:
    void*
    take(std::size_t bytes)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = idle_.find(bytes);
            if (it != idle_.end() && !it->second.empty()) {
                void* p = it->second.back();
                it->second.pop_back();
                idleBytes_ -= bytes;
                return p;
            }
        }
        void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return p;
    }

    /// `p` must be all-zero.
    void
    give(void* p, std::size_t bytes) noexcept
    {
        if (!keep(p, bytes))
            ::munmap(p, bytes);
    }

    std::uint64_t
    idleBytes()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return idleBytes_;
    }

  private:
    /// Record `p` as idle unless that would pass the cap.
    bool
    keep(void* p, std::size_t bytes) noexcept
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (idleBytes_ + bytes > Cache::kPoolCapBytes)
            return false;
        try {
            idle_[bytes].push_back(p);
        } catch (const std::bad_alloc&) {
            return false;
        }
        idleBytes_ += bytes;
        return true;
    }

    std::mutex mu_;
    std::unordered_map<std::size_t, std::vector<void*>> idle_;
    std::uint64_t idleBytes_ = 0;
};

/// Never destroyed, so caches that outlive static destruction (a
/// static Machine) can still give their arrays back.
WayPool&
wayPool()
{
    static WayPool* pool = new WayPool;
    return *pool;
}

} // namespace

void
Cache::WayGive::operator()(Way* p) const
{
    wayPool().give(p, bytes);
}

std::uint64_t
Cache::pooledBytes()
{
    return wayPool().idleBytes();
}

Cache::Cache(std::uint64_t bytes, int assoc, std::uint32_t line_bytes,
             const Protocol* proto)
    : lineShift_(log2Exact(line_bytes)),
      sets_(bytes / (static_cast<std::uint64_t>(line_bytes) * assoc)),
      assoc_(assoc)
{
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
        throw std::invalid_argument("cache set count must be a power of 2");
    const std::uint64_t chunks = (numWays() + kChunkWays - 1) / kChunkWays;
    filled_.assign((chunks + 63) / 64, 0);
    const std::size_t array_bytes = numWays() * sizeof(Way);
    ways_ = std::unique_ptr<Way[], WayGive>(
        static_cast<Way*>(wayPool().take(array_bytes)),
        WayGive{array_bytes});
    const Protocol& pr = proto ? *proto : Protocol::mesi();
    for (int s = 1; s < kProtoStates; ++s) {
        switch (pr.req[kProtoWrite][s].next) {
          case NextState::Shared:
            writeHitNext_[s] = LineState::Shared;
            break;
          case NextState::Dirty:
            writeHitNext_[s] = LineState::Dirty;
            break;
          case NextState::Owned:
            writeHitNext_[s] = LineState::Owned;
            break;
          default:
            // Same / OwnedIfSharers: leave the state for the engine.
            writeHitNext_[s] = LineState::Invalid;
            break;
        }
    }
    // A write hit on Dirty takes the no-upgrade fast path; keep the
    // slot inert whatever the table says.
    writeHitNext_[static_cast<int>(LineState::Dirty)] =
        LineState::Invalid;
}

LineState
Cache::probe(Addr addr) const
{
    const Way* w = find(lineOf(addr));
    return w ? w->state : LineState::Invalid;
}

LineState
Cache::invalidate(Addr addr)
{
    if (Way* w = find(lineOf(addr))) {
        const LineState st = w->state;
        w->state = LineState::Invalid;
        return st;
    }
    return LineState::Invalid;
}

void
Cache::downgrade(Addr addr)
{
    if (Way* w = find(lineOf(addr)))
        if (w->state == LineState::Dirty)
            w->state = LineState::Shared;
}

void
Cache::setState(Addr addr, LineState st)
{
    Way* w = find(lineOf(addr));
    assert(w != nullptr);
    if (w)
        w->state = st;
}

Cache::~Cache()
{
    zeroFilled();
}

void
Cache::zeroFilled()
{
    forEachFilledChunk([this](std::uint64_t first, std::uint64_t end) {
        std::memset(static_cast<void*>(&ways_[first]), 0,
                    (end - first) * sizeof(Way));
    });
    std::fill(filled_.begin(), filled_.end(), 0);
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    forEachLine([&n](Addr, LineState) { ++n; });
    return n;
}

void
Cache::reset()
{
    zeroFilled();
    useClock_ = 0;
}

} // namespace ccnuma::sim
