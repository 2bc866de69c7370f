/**
 * @file
 * Property tests for the calendar-queue scheduler ready list.
 *
 * The contract (see sim/calqueue.hh): as long as no event is pushed
 * with a time earlier than the last popped event's bucket — which the
 * scheduler guarantees, since a processor is re-queued at or after the
 * time it just ran to — pop order is EXACTLY the (time, seq) order of
 * a std::priority_queue. That heap is the scheduler's original ready
 * list; it lives on here as the test-local reference (`Heap`). The
 * property tests drive randomized push/pop traces with quantum-bounded
 * disorder against both a sorted oracle and the heap. Cycle identity
 * on the real apps is pinned by tests/golden/metrics-v1.json, which
 * was recorded with the heap before the calendar queue existed.
 */

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/calqueue.hh"

namespace {

using ccnuma::sim::CalendarQueue;
using ccnuma::sim::Cycles;
using ccnuma::sim::SchedEvent;
using ccnuma::sim::SchedEventAfter;

using Heap = std::priority_queue<SchedEvent, std::vector<SchedEvent>,
                                 SchedEventAfter>;

/// Random interleave of pushes and pops under the scheduler's
/// workload shape: each push's time is within [frontier, frontier +
/// spread] where frontier is the last popped time (quantum-bounded
/// disorder), with occasional far-future wake-ups to exercise the
/// overflow heap.
void
identicalPopOrder(std::uint64_t seed, Cycles quantum, Cycles spread,
                  double farFrac, int steps)
{
    std::mt19937_64 rng(seed);
    CalendarQueue cal(quantum);
    Heap heap;
    std::uint64_t seq = 0;
    Cycles frontier = 0;

    for (int i = 0; i < steps; ++i) {
        const bool canPop = !heap.empty();
        const bool doPush = !canPop || rng() % 5 != 0;
        if (doPush) {
            Cycles t = frontier + rng() % (spread + 1);
            if (farFrac > 0 &&
                (rng() % 1000) < static_cast<std::uint64_t>(
                                     farFrac * 1000))
                t = frontier + quantum * 200 + rng() % (64 * quantum);
            const SchedEvent e{t, seq++,
                               static_cast<int>(rng() % 64)};
            cal.push(e);
            heap.push(e);
        } else {
            ASSERT_FALSE(cal.empty());
            const SchedEvent want = heap.top();
            heap.pop();
            const SchedEvent got = cal.pop();
            ASSERT_EQ(got.time, want.time) << "step " << i;
            ASSERT_EQ(got.seq, want.seq) << "step " << i;
            ASSERT_EQ(got.p, want.p) << "step " << i;
            frontier = got.time;
        }
    }
    // Drain: the tails must agree too.
    while (!heap.empty()) {
        const SchedEvent want = heap.top();
        heap.pop();
        ASSERT_FALSE(cal.empty());
        const SchedEvent got = cal.pop();
        ASSERT_EQ(got.time, want.time);
        ASSERT_EQ(got.seq, want.seq);
    }
    EXPECT_TRUE(cal.empty());
}

TEST(CalendarQueue, MatchesHeapUnderQuantumDisorder)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        identicalPopOrder(seed, /*quantum=*/500, /*spread=*/500,
                          /*farFrac=*/0.0, 3000);
}

TEST(CalendarQueue, MatchesHeapWithFarFutureWakeups)
{
    // ~3% of pushes land hundreds of quanta ahead: they must overflow
    // into the heap and drain back in exact order.
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        identicalPopOrder(seed, 500, 500, 0.03, 3000);
}

TEST(CalendarQueue, MatchesHeapAcrossQuantumSizes)
{
    // Bucket width derives from the quantum; sweep both tiny (clamped
    // to the 64-cycle floor) and huge quanta.
    for (Cycles q : {1u, 64u, 100u, 2000u, 1u << 20})
        identicalPopOrder(/*seed=*/42, q, q, 0.01, 2000);
}

TEST(CalendarQueue, ManyTiesPopInPushOrder)
{
    // All events at the same time: FIFO by seq, the heap's tie rule.
    CalendarQueue cal(500);
    Heap heap;
    for (std::uint64_t s = 0; s < 100; ++s) {
        const SchedEvent e{1000, s, static_cast<int>(s % 7)};
        cal.push(e);
        heap.push(e);
    }
    for (int i = 0; i < 100; ++i) {
        const SchedEvent want = heap.top();
        heap.pop();
        const SchedEvent got = cal.pop();
        ASSERT_EQ(got.seq, want.seq);
    }
}

TEST(CalendarQueue, PastPushStillPopsBeforeLaterEvents)
{
    // A push earlier than the cursor is clamped into the cursor bucket:
    // it degrades gracefully (pops before anything later) instead of
    // being lost or reordered past later events.
    CalendarQueue cal(500);
    cal.push(SchedEvent{10000, 0, 1});
    const SchedEvent first = cal.pop();
    EXPECT_EQ(first.p, 1);
    cal.push(SchedEvent{500, 1, 2});   // far in the cursor's past
    cal.push(SchedEvent{20000, 2, 3});
    EXPECT_EQ(cal.pop().p, 2);
    EXPECT_EQ(cal.pop().p, 3);
    EXPECT_TRUE(cal.empty());
}

} // namespace
