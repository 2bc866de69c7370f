#include "sim/scheduler.hh"

#include <stdexcept>

#include "sim/cpu.hh"

namespace ccnuma::sim {

void
Scheduler::run()
{
    const Cycles quantum = quantum_;
    while (live_ > 0) {
        if (cal_.empty())
            throw std::runtime_error(
                "simulator deadlock: processors blocked with no runnable "
                "work (missing barrier participant or unreleased lock?)");
        const SchedEvent e = cal_.pop();
        if (state_[e.p] != State::Ready || queuedTime_[e.p] != e.time)
            continue; // stale entry: re-queued or blocked since
        current_ = e.p;
        Cpu& cpu = (*cpus_)[e.p];
        cpu.beginQuantum(quantum);
        // Mark not-ready so a stale pop can't double-run us; the
        // coroutine re-queues itself via ready()/block() on suspension.
        state_[e.p] = State::Blocked;
        handle_[e.p].resume();
        if (handle_[e.p].done()) {
            state_[e.p] = State::Done;
            --live_;
        }
    }
    current_ = kNoProc;
}

} // namespace ccnuma::sim
