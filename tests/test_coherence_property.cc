/**
 * @file
 * Property tests of the coherence protocol: after arbitrary randomized
 * access interleavings, the cache/directory invariants must hold
 * (MemSys::validateCoherence), across machine shapes and sharing
 * patterns.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "sim/rng.hh"

using namespace ccnuma::sim;

namespace {

struct Shape {
    int procs;
    std::uint64_t cacheBytes;
    int sharingLines; ///< Size of the hot shared region, in lines.
};

// Without this gtest prints the raw bytes of Shape, padding included,
// so the test names would change from build to build.
void
PrintTo(const Shape& sh, std::ostream* os)
{
    *os << "(" << sh.procs << ", " << sh.cacheBytes << ", "
        << sh.sharingLines << ")";
}

std::string
shapeName(const ::testing::TestParamInfo<Shape>& info)
{
    return "p" + std::to_string(info.param.procs) + "_c" +
           std::to_string(info.param.cacheBytes >> 10) + "k_s" +
           std::to_string(info.param.sharingLines);
}

} // namespace

class CoherenceProperty : public ::testing::TestWithParam<Shape>
{
};

TEST_P(CoherenceProperty, InvariantsHoldAfterRandomWorkload)
{
    const Shape sh = GetParam();
    MachineConfig cfg;
    cfg.numProcs = sh.procs;
    cfg.cacheBytes = sh.cacheBytes;
    Machine m(cfg);
    const Addr shared = m.alloc(static_cast<std::uint64_t>(
                                    sh.sharingLines) * 128);
    const Addr priv = m.alloc(1u << 20);
    const BarrierId bar = m.barrierCreate();

    RunResult r = m.run([=](Cpu& cpu) -> Task {
        Rng rng(7 + cpu.id());
        for (int i = 0; i < 600; ++i) {
            const bool is_shared = rng.uniform() < 0.5;
            const bool write = rng.uniform() < 0.3;
            const Addr a =
                is_shared
                    ? shared + rng.range(sh.sharingLines) * 128
                    : priv + (static_cast<Addr>(cpu.id()) * 8192 +
                              rng.range(64) * 128);
            if (write)
                cpu.write(a);
            else
                cpu.read(a);
            cpu.busy(rng.range(80));
            if (i % 4 == 0)
                co_await cpu.checkpoint();
            if (i % 150 == 149)
                co_await cpu.barrier(bar);
        }
        co_return;
    });

    EXPECT_EQ(m.mem().validateCoherence(), "");
    // Sanity: the workload actually exercised sharing.
    const auto tot = r.totals();
    EXPECT_GT(tot.invalsSent + tot.missRemoteDirty, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CoherenceProperty,
    ::testing::Values(Shape{2, 8 << 10, 16},   // tiny cache: evictions
                      Shape{4, 64 << 10, 64},
                      Shape{16, 16 << 10, 8},  // hot contention
                      Shape{32, 64 << 10, 256},
                      Shape{64, 32 << 10, 128}),
    shapeName);

TEST(CoherenceProperty, ValidatorCatchesInjectedInconsistency)
{
    // The validator itself must detect a broken state: we fabricate one
    // by invalidating a cache line behind the directory's back.
    MachineConfig cfg;
    cfg.numProcs = 2;
    Machine m(cfg);
    const Addr a = m.alloc(4096);
    m.run([a](Cpu& cpu) -> Task {
        if (cpu.id() == 0)
            cpu.write(a);
        co_return;
    });
    ASSERT_EQ(m.mem().validateCoherence(), "");
    // Break it: drop the owner's line without telling the directory.
    const_cast<Cache&>(m.mem().cache(0)).invalidate(a);
    EXPECT_NE(m.mem().validateCoherence(), "");
}

TEST(CoherenceProperty, PrefetchPreservesInvariants)
{
    MachineConfig cfg;
    cfg.numProcs = 8;
    Machine m(cfg);
    const Addr a = m.alloc(1 << 18);
    const BarrierId bar = m.barrierCreate();
    m.run([=](Cpu& cpu) -> Task {
        Rng rng(cpu.id());
        for (int i = 0; i < 300; ++i) {
            const Addr x = a + rng.range(1u << 11) * 128;
            if (i % 3 == 0)
                cpu.prefetch(x);
            else if (i % 3 == 1)
                cpu.read(x);
            else
                cpu.write(x);
            if (i % 8 == 0)
                co_await cpu.checkpoint();
        }
        co_await cpu.barrier(bar);
        co_return;
    });
    EXPECT_EQ(m.mem().validateCoherence(), "");
}
