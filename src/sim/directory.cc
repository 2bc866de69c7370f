#include "sim/directory.hh"

#include <bit>

namespace ccnuma::sim {

int
SharerSet::count() const
{
    int n = 0;
    for (auto b : bits_)
        n += std::popcount(b);
    return n;
}

Directory::Directory(int numNodes, std::uint32_t pageBytes)
{
    const std::uint32_t shards = std::bit_ceil(
        static_cast<std::uint32_t>(numNodes < 1 ? 1 : numNodes));
    shardMask_ = shards - 1;
    pageShift_ = static_cast<std::uint32_t>(
        std::bit_width(pageBytes < 2 ? 2u : pageBytes) - 1);
    shards_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s)
        shards_.emplace_back(/*initial_capacity=*/64);
}

} // namespace ccnuma::sim
