/**
 * @file
 * Min-time scheduler interleaving the per-processor coroutines.
 *
 * Processors run in approximate global-time order: a processor executes
 * until it exceeds its quantum past the point it was scheduled at (or
 * blocks on synchronization), then the globally earliest runnable
 * processor runs next. Contention clocks therefore see accesses in
 * near-sorted time order, with disorder bounded by the quantum.
 */

#ifndef CCNUMA_SIM_SCHEDULER_HH
#define CCNUMA_SIM_SCHEDULER_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/calqueue.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

class Cpu;

/** Cooperative scheduler over the simulated processors. */
class Scheduler
{
  public:
    void attach(std::vector<Cpu>* cpus) { cpus_ = cpus; }
    void
    setQuantum(Cycles q)
    {
        quantum_ = q;
        cal_.setSpan(q);
    }
    void
    spawn(ProcId p, Task::Handle h)
    {
        if (static_cast<std::size_t>(p) >= state_.size())
            state_.resize(p + 1, State::Done);
        if (static_cast<std::size_t>(p) >= handle_.size())
            handle_.resize(p + 1);
        handle_[p] = h;
        state_[p] = State::Ready;
        ready(p, 0);
        ++live_;
    }

    /// Make a (blocked or yielded) processor runnable at `time`.
    /// Inline: called once per scheduling episode (for miss-heavy
    /// workloads, nearly once per memory access).
    void
    ready(ProcId p, Cycles time)
    {
        if (static_cast<std::size_t>(p) >= queuedTime_.size())
            [[unlikely]]
            queuedTime_.resize(p + 1, 0);
        state_[p] = State::Ready;
        queuedTime_[p] = time;
        cal_.push(SchedEvent{time, seq_++, p});
    }
    /// Mark a processor blocked on synchronization.
    void block(ProcId p) { state_[p] = State::Blocked; }

    /// Run until every spawned processor finishes.
    /// @throws std::runtime_error on deadlock.
    void run();

    ProcId current() const { return current_; }

  private:
    enum class State : std::uint8_t { Ready, Blocked, Done };

    std::vector<Cpu>* cpus_ = nullptr;
    std::vector<State> state_;
    std::vector<Task::Handle> handle_;
    std::vector<Cycles> queuedTime_;
    CalendarQueue cal_;
    std::uint64_t seq_ = 0;
    int live_ = 0;
    Cycles quantum_ = 2000;
    ProcId current_ = kNoProc;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_SCHEDULER_HH
