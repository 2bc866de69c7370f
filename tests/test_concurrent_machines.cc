/**
 * @file
 * Differential suite for simulations that run at the same time on host
 * threads, as StudyRunner's pool and the serve daemon's workers run
 * them.
 *
 * Every run is serial and deterministic, but concurrent Machines share
 * process-wide state: the pre-zeroed cache way pool (sim/cache.hh) and
 * the protocol tables. The contract under test: a run made while other
 * Machines are simulating on other threads is *bit-identical* — every
 * per-processor counter and cycle accumulator, the completion time and
 * the page-migration count — to the same run made alone on the calling
 * thread, and a failing run (application exception, deadlock) fails
 * only itself. "Parallel" in the suite names means several simulations
 * at once.
 *
 * Synthetic programs cover each operation kind, nested phases and
 * hostile schedules (skew, contended locks, subset barriers); the
 * app-level sweep extends this to the full registry under every
 * protocol, and the stress and golden checks to whole snapshots.
 */

#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hh"
#include "apps/registry.hh"
#include "bit_identity.hh"
#include "check/golden.hh"
#include "check/stress.hh"
#include "core/study.hh"
#include "core/study_runner.hh"
#include "sim/machine.hh"

using namespace ccnuma;
using namespace ccnuma::sim;

namespace {

/// Simulations run at once by every concurrent check below.
constexpr int kThreads = 3;

/// Results (or the escaping exception) of `job(i)`, i in [0, n), each
/// run on its own host thread; the threads start together so the runs
/// overlap.
template <class R>
struct Concurrent {
    std::vector<R> out;
    std::vector<std::exception_ptr> err;
};

template <class R>
Concurrent<R>
onThreads(int n, const std::function<R(int)>& job)
{
    Concurrent<R> c{std::vector<R>(n), std::vector<std::exception_ptr>(n)};
    std::latch go(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (int i = 0; i < n; ++i)
        threads.emplace_back([&c, &go, &job, i] {
            go.arrive_and_wait();
            try {
                c.out[i] = job(i);
            } catch (...) {
                c.err[i] = std::current_exception();
            }
        });
    for (std::thread& t : threads)
        t.join();
    return c;
}

MachineConfig
smallConfig(int procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.cacheBytes = 64 << 10;
    return cfg;
}

/// A setup callback builds machine objects (arenas, barriers, locks)
/// identically for every run; the program then closes over the
/// returned handles.
struct Scenario {
    std::function<Machine::Program(Machine&)> build;
};

RunResult
runScenario(const MachineConfig& cfg, const Scenario& sc)
{
    Machine m(cfg);
    return m.run(sc.build(m));
}

/// Run the scenario alone (the oracle), then on kThreads threads at
/// once; every concurrent run must be bit-identical to the oracle.
void
runDifferential(const MachineConfig& cfg, const Scenario& sc)
{
    const RunResult oracle = runScenario(cfg, sc);
    const Concurrent<RunResult> c = onThreads<RunResult>(
        kThreads, [&](int) { return runScenario(cfg, sc); });
    for (int i = 0; i < kThreads; ++i) {
        ASSERT_FALSE(c.err[i]) << "thread " << i;
        testutil::expectIdentical(oracle, c.out[i],
                                  "thread " + std::to_string(i));
    }
}

/// Odd threads run `failing`, even threads a clean program, each on a
/// machine with one barrier over all processors (BarrierId{0}); each
/// failing run must throw `E` out of its own Machine::run, and the
/// clean runs beside it must match a lone clean run.
template <class E>
void
expectFailureStaysLocal(const Machine::Program& failing)
{
    const MachineConfig cfg = smallConfig(8);
    const Machine::Program clean = [](Cpu& cpu) -> Task {
        cpu.busy(10 + cpu.id());
        co_return;
    };
    const auto once = [&](const Machine::Program& prog) {
        Machine m(cfg);
        m.barrierCreate();
        return m.run(prog);
    };
    const RunResult oracle = once(clean);
    const Concurrent<RunResult> c = onThreads<RunResult>(
        4, [&](int i) { return once(i % 2 ? failing : clean); });
    for (int i = 0; i < 4; ++i) {
        SCOPED_TRACE("thread " + std::to_string(i));
        if (i % 2) {
            ASSERT_TRUE(c.err[i]);
            EXPECT_THROW(std::rethrow_exception(c.err[i]), E);
        } else {
            ASSERT_FALSE(c.err[i]);
            testutil::expectIdentical(oracle, c.out[i], "clean run");
        }
    }
}

} // namespace

TEST(ParallelDiff, MixedOpsAndBarriers)
{
    Scenario sc;
    sc.build = [](Machine& m) -> Machine::Program {
        const Addr a = m.alloc(1 << 20);
        const BarrierId bar = m.barrierCreate();
        return [a, bar](Cpu& cpu) -> Task {
            for (int it = 0; it < 4; ++it) {
                for (int i = 0; i < 200; ++i) {
                    cpu.read(a +
                             ((cpu.id() * 571 + i * 131) % 8192) * 128);
                    if (i % 3 == 0)
                        cpu.write(a + ((cpu.id() * 37 + i) % 4096) * 128);
                    cpu.busy(20);
                    co_await cpu.checkpoint();
                }
                co_await cpu.barrier(bar);
            }
            co_return;
        };
    };
    runDifferential(smallConfig(16), sc);
}

TEST(ParallelDiff, ContendedLockCriticalSections)
{
    Scenario sc;
    sc.build = [](Machine& m) -> Machine::Program {
        const Addr a = m.alloc(1 << 16);
        const LockId lk = m.lockCreate();
        return [a, lk](Cpu& cpu) -> Task {
            for (int it = 0; it < 8; ++it) {
                co_await cpu.acquire(lk);
                cpu.read(a);         // shared counter line bounces
                cpu.write(a);
                cpu.busy(50 + 7 * cpu.id());
                cpu.release(lk);
                cpu.busy(100);
                co_await cpu.checkpoint();
            }
            co_return;
        };
    };
    runDifferential(smallConfig(8), sc);
}

TEST(ParallelDiff, SkewedLoadWithSubsetBarrier)
{
    Scenario sc;
    sc.build = [](Machine& m) -> Machine::Program {
        const BarrierId sub = m.barrierCreate(4); // procs 0..3 only
        const BarrierId all = m.barrierCreate();
        return [sub, all](Cpu& cpu) -> Task {
            // Hostile skew: one processor runs far past everyone else.
            const int chunks = cpu.id() == 5 ? 60 : 2;
            for (int i = 0; i < chunks; ++i) {
                cpu.busy(1000);
                co_await cpu.checkpoint();
            }
            if (cpu.id() < 4)
                co_await cpu.barrier(sub);
            co_await cpu.barrier(all);
            cpu.busy(10);
            co_return;
        };
    };
    runDifferential(smallConfig(8), sc);
}

TEST(ParallelDiff, EveryOpKind)
{
    Scenario sc;
    sc.build = [](Machine& m) -> Machine::Program {
        const Addr a = m.alloc(1 << 18);
        const Addr counters = m.alloc(1 << 12);
        const BarrierId bar = m.barrierCreate();
        return [a, counters, bar](Cpu& cpu) -> Task {
            for (int it = 0; it < 3; ++it) {
                for (int i = 0; i < 50; ++i) {
                    cpu.prefetch(a + ((cpu.id() + i + 8) % 1024) * 128);
                    cpu.read(a + ((cpu.id() + i) % 1024) * 128);
                    cpu.busy(10);
                    co_await cpu.checkpoint();
                }
                cpu.fetchOp(counters + 128 * (cpu.id() % 4));
                cpu.rmw(counters + 2048 + 128 * (cpu.id() % 2));
                cpu.readRange(a + cpu.id() * 4096, 1024);
                cpu.writeRange(a + cpu.id() * 4096, 1024);
                co_await cpu.barrier(bar);
            }
            co_return;
        };
    };
    runDifferential(smallConfig(8), sc);
}

TEST(ParallelDiff, NestedPhasesWithSync)
{
    Scenario sc;
    sc.build = [](Machine& m) -> Machine::Program {
        const Addr a = m.alloc(1 << 18);
        const BarrierId bar = m.barrierCreate();
        const LockId lk = m.lockCreate();
        auto phase = [](Cpu& cpu, Addr base, LockId l) -> Task {
            for (int i = 0; i < 120; ++i) {
                cpu.read(base + ((cpu.id() * 13 + i) % 1024) * 128);
                cpu.busy(15);
                co_await cpu.nestedCheckpoint();
            }
            co_await cpu.acquire(l);
            cpu.busy(30);
            cpu.release(l);
            co_return;
        };
        return [a, bar, lk, phase](Cpu& cpu) -> Task {
            for (int it = 0; it < 3; ++it) {
                CCNUMA_RUN_NESTED(cpu, phase(cpu, a, lk));
                co_await cpu.barrier(bar);
            }
            co_return;
        };
    };
    runDifferential(smallConfig(8), sc);
}

TEST(ParallelDiff, ManyLocksFifoHandoff)
{
    Scenario sc;
    sc.build = [](Machine& m) -> Machine::Program {
        std::vector<LockId> locks;
        for (int i = 0; i < 4; ++i)
            locks.push_back(m.lockCreate());
        const Addr a = m.alloc(1 << 16);
        return [locks, a](Cpu& cpu) -> Task {
            for (int it = 0; it < 12; ++it) {
                const LockId lk = locks[(cpu.id() + it) % locks.size()];
                co_await cpu.acquire(lk);
                cpu.write(a + 128 * ((cpu.id() + it) % 64));
                cpu.release(lk);
                cpu.busy(40 + 11 * (cpu.id() % 3));
                co_await cpu.checkpoint();
            }
            co_return;
        };
    };
    runDifferential(smallConfig(16), sc);
}

TEST(ParallelDiff, AppExceptionPropagates)
{
    expectFailureStaysLocal<std::logic_error>(
        [](Cpu& cpu) -> Task {
            if (cpu.id() == 3)
                throw std::logic_error("app bug");
            cpu.busy(10);
            co_return;
        });
}

TEST(ParallelDiff, DeadlockDetected)
{
    // Barrier 0 expects all eight processors; only processor 0 arrives.
    expectFailureStaysLocal<std::runtime_error>([](Cpu& cpu) -> Task {
        if (cpu.id() == 0)
            co_await cpu.barrier(BarrierId{0});
        co_return;
    });
}

namespace {

sim::RunResult
runAppOnce(const std::string& name, const std::string& protocol)
{
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(8);
    EXPECT_TRUE(cfg.protocol.parse(protocol)) << protocol;
    apps::AppPtr app = apps::makeApp(name, check::goldenSize(name));
    return core::runApp(cfg, *app);
}

/// Run one cell per protocol on a StudyRunner with one worker per
/// cell, so the cells simulate at once; results in plan order.
std::vector<sim::RunResult>
runAppOnPool(const std::string& name,
             const std::vector<std::string>& protocols)
{
    core::StudyPlan plan;
    for (const std::string& protocol : protocols) {
        sim::MachineConfig cfg = sim::MachineConfig::origin2000(8);
        EXPECT_TRUE(cfg.protocol.parse(protocol)) << protocol;
        plan.addParallelOnly(name + " " + protocol, cfg, [name] {
            return apps::makeApp(name, check::goldenSize(name));
        });
    }
    core::StudyRunner runner(
        {.jobs = static_cast<int>(protocols.size())});
    const core::StudyResult res = runner.run(plan);
    std::vector<sim::RunResult> out;
    for (const core::RunOutcome& r : res.runs) {
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        out.push_back(r.m.par);
    }
    return out;
}

} // namespace

class ParallelAppDiff : public ::testing::TestWithParam<std::string> {};

/// Every app, default protocol: kThreads pool workers simulating the
/// same cell at once each match the lone run.
TEST_P(ParallelAppDiff, BitIdenticalAcrossWorkerCounts)
{
    const std::string name = GetParam();
    const sim::RunResult oracle = runAppOnce(name, "mesi");
    const std::vector<sim::RunResult> pooled =
        runAppOnPool(name, std::vector<std::string>(kThreads, "mesi"));
    ASSERT_EQ(pooled.size(), static_cast<std::size_t>(kThreads));
    for (int i = 0; i < kThreads; ++i)
        testutil::expectIdentical(oracle, pooled[i],
                                  name + " worker " + std::to_string(i));
}

/// Every app under the non-default protocols, simulated side by side.
TEST_P(ParallelAppDiff, BitIdenticalUnderEveryProtocol)
{
    const std::string name = GetParam();
    const std::vector<std::string> protocols = {"moesi", "dragon"};
    const std::vector<sim::RunResult> pooled =
        runAppOnPool(name, protocols);
    ASSERT_EQ(pooled.size(), protocols.size());
    for (std::size_t i = 0; i < protocols.size(); ++i)
        testutil::expectIdentical(runAppOnce(name, protocols[i]),
                                  pooled[i],
                                  name + " protocol=" + protocols[i]);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, ParallelAppDiff,
    ::testing::ValuesIn(apps::listApps()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string n = info.param;
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/// The golden snapshot computed while a second one is being computed
/// on another thread serializes byte-identical to the lone one.
TEST(ParallelGolden, SnapshotJsonByteIdentical)
{
    const std::string lone = check::toJson(check::computeGolden(4));
    const Concurrent<std::string> c = onThreads<std::string>(
        2, [](int) { return check::toJson(check::computeGolden(4)); });
    for (int i = 0; i < 2; ++i) {
        ASSERT_FALSE(c.err[i]);
        EXPECT_EQ(lone, c.out[i]) << "thread " << i;
    }
}

namespace {

/// The stress generator's hostile default machine: 4 KB L2, 1 KB
/// round-robin pages, 8 procs on 4 nodes — evictions, remote misses
/// and contended locks are maximally frequent.
check::StressOptions
hostileOptions(std::uint64_t seed, bool disciplined = false)
{
    check::StressOptions opt;
    opt.seed = seed;
    opt.disciplined = disciplined;
    return opt;
}

/// Run every options set alone, then all at once on one thread each;
/// the full StressReport (state hash, final time, commit and
/// validation counts) must compare equal.
void
expectStressStableSideBySide(
    const std::vector<check::StressOptions>& opts)
{
    std::vector<check::StressReport> lone;
    for (const check::StressOptions& o : opts) {
        lone.push_back(check::runStress(o));
        ASSERT_FALSE(lone.back().failed) << lone.back().message;
    }
    const int n = static_cast<int>(opts.size());
    const Concurrent<check::StressReport> c =
        onThreads<check::StressReport>(
            n, [&](int i) { return check::runStress(opts[i]); });
    for (int i = 0; i < n; ++i) {
        ASSERT_FALSE(c.err[i]);
        EXPECT_TRUE(lone[i] == c.out[i])
            << "seed " << opts[i].seed << ": hash " << lone[i].stateHash
            << " vs " << c.out[i].stateHash << " ("
            << c.out[i].message << ")";
    }
}

} // namespace

TEST(ParallelDeterminism, StressHashMatchesSerialOracle)
{
    // Four different seeds simulating side by side.
    expectStressStableSideBySide({hostileOptions(1), hostileOptions(7),
                                  hostileOptions(42),
                                  hostileOptions(1999)});
}

TEST(ParallelDeterminism, RepeatedRunsBitIdentical)
{
    // Host-scheduling independence: the same (seed, config) on several
    // threads at once, repeated, always reproduces the lone run.
    for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE("repeat " + std::to_string(rep));
        expectStressStableSideBySide(
            std::vector<check::StressOptions>(kThreads,
                                              hostileOptions(1234)));
    }
}

TEST(ParallelDeterminism, DisciplinedProgramsToo)
{
    // The race-free-by-construction generator mode exercises different
    // lock discipline; same contract.
    expectStressStableSideBySide(
        {hostileOptions(3, true), hostileOptions(77, true),
         hostileOptions(3, true)});
}

TEST(ParallelDeterminism, GoldenJsonStableAcrossWorkerCounts)
{
    // The serialized metrics document of a small machine is
    // byte-identical whether one, two or three are computed at once.
    const std::string base = check::toJson(check::computeGolden(2));
    for (const int threads : {2, 3}) {
        const Concurrent<std::string> c = onThreads<std::string>(
            threads,
            [](int) { return check::toJson(check::computeGolden(2)); });
        for (int i = 0; i < threads; ++i) {
            ASSERT_FALSE(c.err[i]);
            EXPECT_EQ(base, c.out[i])
                << threads << " threads, thread " << i;
        }
    }
}
