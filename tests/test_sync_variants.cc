/**
 * @file
 * Parameterized tests over synchronization implementations (LL-SC vs
 * fetch&op, tournament vs centralized barriers): semantics must be
 * identical, costs must rank as expected.
 */

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "sim/machine.hh"

using namespace ccnuma::sim;

namespace {

struct SyncParam {
    SyncKind kind;
    BarrierAlg alg;
};

std::string
label(const SyncParam& p)
{
    std::string s = p.kind == SyncKind::LLSC ? "LLSC" : "FetchOp";
    s += p.alg == BarrierAlg::Tournament ? "_Tournament" : "_Centralized";
    return s;
}

std::string
paramName(const ::testing::TestParamInfo<SyncParam>& info)
{
    return label(info.param);
}

// Without this gtest prints SyncParam as a raw byte dump.
void
PrintTo(const SyncParam& p, std::ostream* os)
{
    *os << label(p);
}

} // namespace

class SyncVariants : public ::testing::TestWithParam<SyncParam>
{
  protected:
    MachineConfig
    cfg(int procs) const
    {
        MachineConfig c;
        c.numProcs = procs;
        c.cacheBytes = 64 << 10;
        c.syncKind = GetParam().kind;
        c.barrierAlg = GetParam().alg;
        return c;
    }
};

TEST_P(SyncVariants, BarrierKeepsPhasesOrdered)
{
    // No processor may enter phase k+1 before all finish phase k; we
    // verify via a host-side phase counter.
    const int P = 16;
    Machine m(cfg(P));
    const BarrierId bar = m.barrierCreate();
    auto phase = std::make_shared<std::vector<int>>(P, 0);
    auto violations = std::make_shared<int>(0);
    m.run([=](Cpu& cpu) -> Task {
        for (int k = 0; k < 5; ++k) {
            cpu.busy(100 + 37 * cpu.id());
            (*phase)[cpu.id()] = k + 1;
            co_await cpu.barrier(bar);
            for (int q = 0; q < 16; ++q)
                if ((*phase)[q] < k + 1)
                    ++(*violations);
            co_await cpu.checkpoint();
        }
        co_return;
    });
    EXPECT_EQ(*violations, 0);
}

TEST_P(SyncVariants, LockProvidesMutualExclusion)
{
    const int P = 12;
    Machine m(cfg(P));
    const LockId lk = m.lockCreate();
    auto inside = std::make_shared<int>(0);
    auto max_inside = std::make_shared<int>(0);
    m.run([=](Cpu& cpu) -> Task {
        for (int k = 0; k < 3; ++k) {
            co_await cpu.acquire(lk);
            ++(*inside);
            *max_inside = std::max(*max_inside, *inside);
            for (int c = 0; c < 3; ++c) {
                cpu.busy(400);
                co_await cpu.checkpoint();
            }
            --(*inside);
            cpu.release(lk);
            cpu.busy(200);
            co_await cpu.checkpoint();
        }
        co_return;
    });
    EXPECT_EQ(*max_inside, 1) << "two holders inside the lock";
}

TEST_P(SyncVariants, BarrierWaitChargedToEarlyArrivers)
{
    const int P = 8;
    Machine m(cfg(P));
    const BarrierId bar = m.barrierCreate();
    RunResult r = m.run([bar](Cpu& cpu) -> Task {
        for (int i = 0; i < cpu.id() * 20 + 1; ++i) {
            cpu.busy(500);
            co_await cpu.checkpoint();
        }
        co_await cpu.barrier(bar);
        co_return;
    });
    // Proc 0 arrives earliest, waits the most.
    EXPECT_GT(r.procs[0].t.syncWait, r.procs[P - 1].t.syncWait);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SyncVariants,
    ::testing::Values(SyncParam{SyncKind::LLSC, BarrierAlg::Tournament},
                      SyncParam{SyncKind::LLSC, BarrierAlg::Centralized},
                      SyncParam{SyncKind::FetchOp,
                                BarrierAlg::Tournament},
                      SyncParam{SyncKind::FetchOp,
                                BarrierAlg::Centralized}),
    paramName);

TEST(SyncCosts, CentralizedBarrierCostGrowsFasterWithP)
{
    auto episode = [](BarrierAlg alg, int procs) {
        MachineConfig c;
        c.numProcs = procs;
        c.barrierAlg = alg;
        Machine m(c);
        const BarrierId bar = m.barrierCreate();
        RunResult r = m.run([bar](Cpu& cpu) -> Task {
            for (int i = 0; i < 20; ++i)
                co_await cpu.barrier(bar);
            co_return;
        });
        return static_cast<double>(r.time) / 20;
    };
    const double cen_growth = episode(BarrierAlg::Centralized, 128) /
                              episode(BarrierAlg::Centralized, 16);
    const double trn_growth = episode(BarrierAlg::Tournament, 128) /
                              episode(BarrierAlg::Tournament, 16);
    EXPECT_GT(cen_growth, trn_growth)
        << "O(P) serialization vs O(log P)";
}

TEST(SyncCosts, FetchOpCheapensCentralizedArrival)
{
    auto episode = [](SyncKind kind) {
        MachineConfig c;
        c.numProcs = 64;
        c.syncKind = kind;
        c.barrierAlg = BarrierAlg::Centralized;
        Machine m(c);
        const BarrierId bar = m.barrierCreate();
        RunResult r = m.run([bar](Cpu& cpu) -> Task {
            for (int i = 0; i < 20; ++i)
                co_await cpu.barrier(bar);
            co_return;
        });
        return r.time;
    };
    EXPECT_LT(episode(SyncKind::FetchOp), episode(SyncKind::LLSC))
        << "at-memory ops avoid LL-SC line bouncing";
}
