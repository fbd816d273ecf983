// The discrete-event simulator for timing-based shared-memory systems.
//
// Model (paper §1.2): processes are sequential programs whose statements
// access at most one shared register.  Each access issued at time t
// linearizes at t + cost, where cost is chosen by the TimingModel; a
// failure-free model keeps cost <= Δ, a FailureInjector may exceed Δ (that
// *is* a timing failure).  delay(d) completes after exactly d ticks.  Local
// computation is free, matching the paper's time-complexity accounting
// (only shared accesses and delays cost time).
//
// Processes are C++20 coroutines: algorithm code reads like the paper's
// pseudocode, with `co_await env.read(reg)` / `co_await env.write(reg, v)`
// / `co_await env.delay(d)` at each numbered statement.  The simulator is
// single-threaded and, given (timing model, seed), fully deterministic.

#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/common/rng.hpp"
#include "tfr/obs/trace.hpp"
#include "tfr/sim/frame_pool.hpp"
#include "tfr/sim/register.hpp"
#include "tfr/sim/timing.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::sim {

class Simulation;

namespace detail {

/// The frame pool of the simulation behind the first sim::Env among a
/// coroutine's arguments; null when it takes none.  Process and Task
/// allocate their frames through it (see frame_pool.hpp).
template <class... Args>
FramePool* frame_pool_of(const Args&... args) noexcept;

}  // namespace detail

/// What a pending simulator event will do when it linearizes — the
/// metadata a SchedulerStrategy needs to reason about conflicts.
enum class AccessKind : std::uint8_t {
  kStart = 0,  ///< first step of a spawned process (no shared access)
  kRead = 1,   ///< a register read linearizes
  kWrite = 2,  ///< a register write linearizes
  kDelay = 3,  ///< a delay(d) completes (no shared access)
};

/// One event that is enabled (due to linearize at the current instant).
struct EnabledEvent {
  Pid pid = -1;
  AccessKind kind = AccessKind::kStart;
  /// Stable register uid (RegisterSpace allocation order) for
  /// kRead/kWrite; 0 for kStart/kDelay.
  std::uint64_t reg = 0;
};

/// Two enabled events are *dependent* iff they touch the same register
/// and at least one writes it — the register-conflict independence
/// relation used by mcheck's partial-order reduction.
inline bool events_dependent(const EnabledEvent& a, const EnabledEvent& b) {
  const bool a_access =
      a.kind == AccessKind::kRead || a.kind == AccessKind::kWrite;
  const bool b_access =
      b.kind == AccessKind::kRead || b.kind == AccessKind::kWrite;
  if (!a_access || !b_access || a.reg != b.reg) return false;
  return a.kind == AccessKind::kWrite || b.kind == AccessKind::kWrite;
}

/// The scheduler seam: when several events are enabled at the same
/// instant, a strategy — not the FIFO tie-break — decides which
/// linearizes next, and timing models may route per-access cost choices
/// (inject a failure or not, run fast or slow) through it instead of the
/// Rng.  The default simulator behaviour (no strategy) is unchanged:
/// FIFO tie-breaks, Rng-driven costs.
class SchedulerStrategy {
 public:
  virtual ~SchedulerStrategy() = default;

  /// Picks which of the simultaneously-enabled `options` (sorted by pid,
  /// never empty) linearizes next.  Must return an index < options.size().
  virtual std::size_t pick(Time now,
                           const std::vector<EnabledEvent>& options) = 0;

  /// Timing choice seam: picks among candidate costs for pid's next
  /// access (all >= 1, ascending).  FailureInjector routes its
  /// inject-or-not coin here when a strategy is attached; mcheck's
  /// explorer enumerates every branch.  Default: the first (cheapest).
  virtual std::size_t pick_cost(Pid pid,
                                const std::vector<Duration>& choices) {
    (void)pid;
    (void)choices;
    return 0;
  }

  /// True once a replaying strategy has consumed its whole script — used
  /// as a stop predicate when re-running a recorded counterexample.
  virtual bool exhausted() const { return false; }
};

/// The outermost coroutine of one simulated process.  Created by a spawn
/// factory; owned and driven by the Simulation.
class Process {
 public:
  struct promise_type {
    Simulation* sim = nullptr;
    Pid pid = -1;
    std::exception_ptr exception{};

    template <class... Args>
    static void* operator new(std::size_t size, const Args&... args) {
      return FramePool::allocate(detail::frame_pool_of(args...), size);
    }
    static void operator delete(void* frame, std::size_t size) noexcept {
      FramePool::deallocate(frame, size);
    }

    Process get_return_object() {
      return Process(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      exception = std::current_exception();
    }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy(); }

  Handle handle() const { return handle_; }

 private:
  explicit Process(Handle handle) : handle_(handle) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

/// Per-process accounting: how many shared-memory steps and delays the
/// process took — the quantities the paper's theorems bound (e.g. "decides
/// after 7 steps").
struct ProcessStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t delays = 0;
  /// Remote memory references (cache-coherent model; see Register RMR
  /// notes): reads that missed the cache plus all writes.
  std::uint64_t rmr = 0;
  Duration delay_time = 0;
  Time done_at = -1;     ///< completion time; -1 while running
  bool crashed = false;  ///< killed by fault injection

  std::uint64_t accesses() const { return reads + writes; }
  bool done() const { return done_at >= 0; }
};

/// Handle through which a simulated process touches the world.  Cheap to
/// copy; passed by value into process coroutines.
class Env {
 public:
  Env() = default;

  Pid pid() const { return pid_; }
  Time now() const;
  Rng& rng() const;
  Simulation& sim() const { return *sim_; }

  /// Awaitable timed read of a shared register.
  template <class T>
  auto read(const Register<T>& reg) const;

  /// Awaitable timed write of a shared register.
  template <class T>
  auto write(Register<T>& reg, T value) const;

  /// Awaitable delay(d) statement: completes after exactly d ticks.
  auto delay(Duration d) const;

  /// The owning simulation's coroutine frame pool (null for an Env that
  /// belongs to no simulation).
  FramePool* frame_pool() const;

 private:
  friend class Simulation;
  Env(Simulation* sim, Pid pid) : sim_(sim), pid_(pid) {}

  Simulation* sim_ = nullptr;
  Pid pid_ = -1;
};

struct SimulationOptions {
  std::uint64_t seed = 1;
  bool trace = false;  ///< record a linearization trace (determinism tests)
  /// Structured event sink (observability layer); null = no tracing.
  /// Register accesses, delays, crashes and completions are emitted by the
  /// simulator itself; timing models and monitors attach separately.
  obs::TraceSink* sink = nullptr;
  /// Scheduler seam: when set, same-instant tie-breaks are decided by the
  /// strategy instead of FIFO order (mcheck exploration / replay).  Must
  /// outlive the simulation.
  SchedulerStrategy* strategy = nullptr;
};

class Simulation {
 public:
  using Options = SimulationOptions;

  explicit Simulation(std::unique_ptr<TimingModel> timing,
                      Options options = Options{});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Spawns a process.  `factory` is invoked with the process's Env and
  /// must return its Process coroutine.  The process takes its first step
  /// at time `start`.  Returns the new pid (dense, from 0).
  template <class Factory>
  Pid spawn(Factory&& factory, Time start = 0) {
    const Pid pid = static_cast<Pid>(processes_.size());
    stats_.emplace_back();
    crash_time_.push_back(kTimeNever);
    crash_access_limit_.push_back(std::uint64_t(-1));
    Env env(this, pid);
    processes_.push_back(std::forward<Factory>(factory)(env));
    Process::Handle h = processes_.back().handle();
    TFR_REQUIRE(h);
    h.promise().sim = this;
    h.promise().pid = pid;
    push_event(start, pid, h, AccessKind::kStart, 0);
    return pid;
  }

  /// Rewinds the simulation to its just-constructed state while *keeping*
  /// every heap buffer at capacity: the event heap's backing vector, the
  /// per-process stat/crash vectors, the linearization trace and the
  /// callback list are cleared but not freed.  This is the re-execution
  /// fast path for stateless exploration (mcheck runs the same scenario
  /// hundreds of thousands of times): reconstructing a Simulation per run
  /// pays allocation and teardown on every execution, reset() pays it
  /// once.  The timing model, options (sink/strategy/trace flag) and all
  /// buffer capacities survive; processes, pending events, callbacks,
  /// stats, register accounting and the Rng do not.  Callers must drop
  /// any objects referencing the previous run's registers first.
  void reset(std::uint64_t seed);

  Time now() const { return now_; }
  Rng& rng() { return rng_; }
  TimingModel& timing() { return *timing_; }
  RegisterSpace& space() { return space_; }
  /// Pool for the frames of every coroutine spawned with this simulation's
  /// Env; it outlives them all and survives reset().
  FramePool& frame_pool() { return frames_; }
  /// The scheduler strategy, or null when tie-breaks are FIFO.
  SchedulerStrategy* strategy() const { return options_.strategy; }

  /// The structured trace sink, or null when event tracing is off.
  obs::TraceSink* trace_sink() const { return options_.sink; }
  /// Appends to the sink when one is attached; no-op otherwise.
  void emit(const obs::Event& event) {
    if (options_.sink != nullptr) options_.sink->append(event);
  }
  /// Interns a label in the attached sink (0 when tracing is off).
  std::uint32_t trace_label(std::string_view name) {
    return options_.sink != nullptr ? options_.sink->intern(name) : 0;
  }

  enum class RunResult {
    Idle,       ///< no events left: every process finished or crashed
    TimeLimit,  ///< next event lies beyond the limit; run() may be re-invoked
    Stopped,    ///< the stop predicate fired
  };

  /// Drives the event loop.  Processes events with time <= limit; after
  /// each event evaluates `stop` (if given).  Exceptions escaping a process
  /// (including contract violations in algorithm code) are rethrown here.
  RunResult run(Time limit = kTimeNever,
                const std::function<bool()>& stop = {});

  /// Statically-dispatched twin of run(): the stop predicate is a template
  /// parameter, so a lambda inlines into the event loop instead of paying
  /// a std::function indirection per event.  This is the hot path for
  /// mcheck's re-execution engine, which evaluates its stop condition
  /// after every scheduler pick.
  template <class Stop>
  RunResult run_until(Time limit, Stop&& stop) {
    for (;;) {
      const StepOutcome outcome = run_step(limit);
      if (outcome == StepOutcome::kIdle) return RunResult::Idle;
      if (outcome == StepOutcome::kOverLimit) return RunResult::TimeLimit;
      if (stop()) return RunResult::Stopped;
    }
  }

  /// Schedules `fn` to run at virtual time `when` (>= now), outside any
  /// process — the channel-level interception seam: network adversaries
  /// use it to mark partition begin/heal instants in the trace and to
  /// reconfigure fault schedules deterministically mid-run.  Callbacks at
  /// the same instant run in scheduling order, before process events are
  /// offered to any SchedulerStrategy; they must not co_await.
  void schedule_callback(Time when, std::function<void()> fn);

  /// Kills `pid` at time t: accesses linearizing at or after t never happen.
  void crash_at(Pid pid, Time t);

  /// Kills `pid` after it has performed exactly `k` shared-memory accesses.
  void crash_after_accesses(Pid pid, std::uint64_t k);

  std::size_t process_count() const { return processes_.size(); }
  const ProcessStats& stats(Pid pid) const;
  /// True when every process has finished or crashed.
  bool all_done() const;

  /// Snapshot of pending (time, pid) events — diagnosis and tests.
  std::vector<std::pair<Time, Pid>> pending_events() const;

  /// FNV-1a hash of the linearization trace (requires Options::trace).
  std::uint64_t trace_hash() const;
  std::size_t trace_length() const { return trace_.size(); }

  // --- internal API used by awaiters and Process (do not call directly) ---
  void schedule_access(Pid pid, std::coroutine_handle<> h,
                       std::uint64_t reg_uid, bool is_write);
  void schedule_delay(Pid pid, Duration d, std::coroutine_handle<> h);
  void on_process_done(Pid pid, std::exception_ptr exception) noexcept;
  void note_read(Pid pid, bool remote);
  void note_write(Pid pid);
  void note_delay(Pid pid, Duration d);

 private:
  struct Event {
    Time when;
    std::uint64_t seq;  ///< FIFO tie-break => full determinism
    Pid pid;
    std::coroutine_handle<> handle;
    AccessKind kind;        ///< what linearizes when this event resumes
    std::uint64_t reg_uid;  ///< register uid for kRead/kWrite; 0 otherwise
    std::int64_t callback = -1;  ///< index into callbacks_; -1 = process event
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Min-heap of pending events over a flat vector that is *pooled*: pop()
  /// and clear() never release storage, so a simulation that is reset()
  /// and re-driven (the mcheck fast path) reaches a steady state with zero
  /// per-push allocations.  Ordering is identical to the
  /// std::priority_queue<Event, vector, EventLater> it replaces.
  class EventHeap {
   public:
    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }
    const Event& top() const { return events_.front(); }
    void push(const Event& event) {
      events_.push_back(event);
      std::push_heap(events_.begin(), events_.end(), EventLater{});
    }
    void pop() {
      std::pop_heap(events_.begin(), events_.end(), EventLater{});
      events_.pop_back();
    }
    void clear() { events_.clear(); }
    /// Heap-ordered backing storage (diagnosis: pending_events()).
    const std::vector<Event>& raw() const { return events_; }
    std::size_t capacity() const { return events_.capacity(); }

   private:
    std::vector<Event> events_;
  };

  enum class StepOutcome : std::uint8_t { kIdle, kOverLimit, kProgress };

  /// Executes exactly one callback or process event (skipping crashed
  /// entries, which observe no stop predicate — matching run()'s historic
  /// behaviour).  Factored out of run() so run_until() can template the
  /// stop predicate around it.
  StepOutcome run_step(Time limit);

  void push_event(Time when, Pid pid, std::coroutine_handle<> h,
                  AccessKind kind, std::uint64_t reg_uid);
  /// Strategy-driven variant of the event-loop step: pops every event
  /// enabled at the earliest instant and lets the strategy pick.
  bool pop_next_event(Event& out, Time limit, bool& over_limit);
  bool crashed_by(Pid pid, Time when) const {
    return crash_time_[static_cast<std::size_t>(pid)] <= when;
  }
  void note_trace(Pid pid, char kind);

  /// Declared first so it is destroyed last, after every frame it owns.
  FramePool frames_;
  std::unique_ptr<TimingModel> timing_;
  Options options_;
  Rng rng_;
  RegisterSpace space_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventHeap queue_;
  /// Scratch for the strategy-driven step (pop_next_event): cleared and
  /// refilled every pick, never shrunk — per-step allocations would
  /// dominate mcheck's replay loop.
  std::vector<Event> ready_scratch_;
  std::vector<EnabledEvent> options_scratch_;
  std::vector<Process> processes_;
  std::vector<ProcessStats> stats_;
  std::vector<Time> crash_time_;
  std::vector<std::uint64_t> crash_access_limit_;
  std::exception_ptr pending_exception_{};
  std::vector<std::function<void()>> callbacks_;
  struct TraceEvent {
    Time when;
    Pid pid;
    char kind;
  };
  std::vector<TraceEvent> trace_;
};

// ---------------------------------------------------------------------------
// Awaiter implementations.

namespace detail {

template <class T>
struct ReadAwaiter {
  Simulation* sim;
  Pid pid;
  const Register<T>* reg;
  mutable Time issued = 0;  ///< issue instant; the access spans to resume

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    issued = sim->now();
    sim->schedule_access(pid, h, reg->uid(), /*is_write=*/false);
  }
  T await_resume() const {
    const bool remote = reg->note_read_rmr(pid);
    sim->note_read(pid, remote);
    if (sim->trace_sink() != nullptr) {
      sim->emit({issued, pid, obs::EventKind::kRead, sim->now() - issued,
                 remote ? 1 : 0, sim->trace_label(reg->name())});
    }
    return reg->load_linearized();
  }
};

template <class T>
struct WriteAwaiter {
  Simulation* sim;
  Pid pid;
  Register<T>* reg;
  T value;
  Time issued = 0;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    issued = sim->now();
    sim->schedule_access(pid, h, reg->uid(), /*is_write=*/true);
  }
  void await_resume() {
    sim->note_write(pid);
    reg->note_write_rmr(pid);
    if (sim->trace_sink() != nullptr) {
      std::int64_t traced = 0;
      if constexpr (std::is_convertible_v<T, std::int64_t>)
        traced = static_cast<std::int64_t>(value);
      sim->emit({issued, pid, obs::EventKind::kWrite, sim->now() - issued,
                 traced, sim->trace_label(reg->name())});
    }
    reg->store_linearized(std::move(value));
  }
};

struct DelayAwaiter {
  Simulation* sim;
  Pid pid;
  Duration d;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim->schedule_delay(pid, d, h);
  }
  void await_resume() const {
    sim->note_delay(pid, d);
    sim->emit({sim->now() - d, pid, obs::EventKind::kDelay, d, 0, 0});
  }
};

}  // namespace detail

template <class T>
auto Env::read(const Register<T>& reg) const {
  TFR_REQUIRE(sim_ != nullptr);
  return detail::ReadAwaiter<T>{sim_, pid_, &reg};
}

template <class T>
auto Env::write(Register<T>& reg, T value) const {
  TFR_REQUIRE(sim_ != nullptr);
  return detail::WriteAwaiter<T>{sim_, pid_, &reg, std::move(value)};
}

inline auto Env::delay(Duration d) const {
  TFR_REQUIRE(sim_ != nullptr);
  TFR_REQUIRE(d >= 0);
  return detail::DelayAwaiter{sim_, pid_, d};
}

inline Time Env::now() const { return sim_->now(); }
inline Rng& Env::rng() const { return sim_->rng(); }
inline FramePool* Env::frame_pool() const {
  return sim_ != nullptr ? &sim_->frame_pool() : nullptr;
}

namespace detail {

inline FramePool* frame_pool_in(const Env& env) noexcept {
  return env.frame_pool();
}
template <class T>
FramePool* frame_pool_in(const T&) noexcept {
  return nullptr;
}

template <class... Args>
FramePool* frame_pool_of(const Args&... args) noexcept {
  FramePool* pool = nullptr;
  ((pool = pool != nullptr ? pool : frame_pool_in(args)), ...);
  return pool;
}

}  // namespace detail

inline void Process::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  promise_type& p = h.promise();
  p.sim->on_process_done(p.pid, p.exception);
}

}  // namespace tfr::sim
