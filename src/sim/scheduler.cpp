#include "tfr/sim/simulation.hpp"

#include <algorithm>

namespace tfr::sim {

Simulation::Simulation(std::unique_ptr<TimingModel> timing, Options options)
    : timing_(std::move(timing)), options_(options), rng_(options.seed) {
  TFR_REQUIRE(timing_ != nullptr);
}

Simulation::~Simulation() {
  // Drop pending events before coroutines are destroyed (Process dtors run
  // when processes_ is destroyed); never resume a handle after this point.
  queue_.clear();
}

void Simulation::reset(std::uint64_t seed) {
  // Order matters: pending events reference coroutine frames, so the queue
  // is emptied before processes_ destroys them — mirroring the destructor.
  // Every clear() below keeps its vector's capacity; that is the point.
  queue_.clear();
  processes_.clear();
  stats_.clear();
  crash_time_.clear();
  crash_access_limit_.clear();
  callbacks_.clear();
  trace_.clear();
  pending_exception_ = nullptr;
  now_ = 0;
  next_seq_ = 0;
  rng_.reseed(seed);
  space_.reset();
}

bool Simulation::pop_next_event(Event& out, Time limit, bool& over_limit) {
  // Strategy-driven step: every event enabled at the earliest pending
  // instant is a scheduling option; the strategy — not FIFO order —
  // decides which linearizes first.  The losers are re-queued and offered
  // again at the next iteration (same instant, one option fewer).
  over_limit = false;
  std::vector<Event>& ready = ready_scratch_;
  std::vector<EnabledEvent>& options = options_scratch_;
  while (!queue_.empty()) {
    const Time when = queue_.top().when;
    if (when > limit) {
      over_limit = true;
      return false;
    }
    ready.clear();
    while (!queue_.empty() && queue_.top().when == when) {
      Event event = queue_.top();
      queue_.pop();
      if (event.callback >= 0) {
        // Scheduled callbacks are not scheduling options: they run as soon
        // as their instant is reached, before the strategy picks.
        now_ = event.when;
        callbacks_[static_cast<std::size_t>(event.callback)]();
        continue;
      }
      if (crashed_by(event.pid, event.when)) {
        stats_[static_cast<std::size_t>(event.pid)].crashed = true;
        emit({crash_time_[static_cast<std::size_t>(event.pid)], event.pid,
              obs::EventKind::kCrash, 0, 0, 0});
        continue;
      }
      ready.push_back(event);
    }
    if (ready.empty()) continue;  // every gathered event was a crash skip
    std::sort(ready.begin(), ready.end(),
              [](const Event& a, const Event& b) { return a.pid < b.pid; });
    options.clear();
    for (const Event& e : ready)
      options.push_back(EnabledEvent{e.pid, e.kind, e.reg_uid});
    const std::size_t chosen = options_.strategy->pick(when, options);
    TFR_REQUIRE(chosen < ready.size());
    for (std::size_t i = 0; i < ready.size(); ++i) {
      if (i != chosen)
        push_event(ready[i].when, ready[i].pid, ready[i].handle,
                   ready[i].kind, ready[i].reg_uid);
    }
    out = ready[chosen];
    return true;
  }
  return false;
}

Simulation::StepOutcome Simulation::run_step(Time limit) {
  Event event{};
  if (options_.strategy == nullptr) {
    // Default path: FIFO tie-break, byte-identical to the pre-seam
    // simulator (golden traces depend on this).
    for (;;) {
      if (queue_.empty()) return StepOutcome::kIdle;
      const Event& top = queue_.top();
      if (top.when > limit) return StepOutcome::kOverLimit;
      event = top;
      queue_.pop();
      if (event.callback >= 0) {
        now_ = event.when;
        callbacks_[static_cast<std::size_t>(event.callback)]();
        // A callback counts as progress: the caller's stop predicate runs.
        return StepOutcome::kProgress;
      }
      if (crashed_by(event.pid, event.when)) {
        // The access would have linearized at or after the crash instant:
        // it never takes effect and the process takes no further steps.
        stats_[static_cast<std::size_t>(event.pid)].crashed = true;
        emit({crash_time_[static_cast<std::size_t>(event.pid)], event.pid,
              obs::EventKind::kCrash, 0, 0, 0});
        continue;  // crash skips observe no stop predicate
      }
      break;
    }
  } else {
    bool over_limit = false;
    if (!pop_next_event(event, limit, over_limit))
      return over_limit ? StepOutcome::kOverLimit : StepOutcome::kIdle;
  }
  TFR_INVARIANT(event.when >= now_);
  now_ = event.when;
  event.handle.resume();
  if (pending_exception_) {
    std::exception_ptr e = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(e);
  }
  return StepOutcome::kProgress;
}

Simulation::RunResult Simulation::run(Time limit,
                                      const std::function<bool()>& stop) {
  if (stop) return run_until(limit, [&stop] { return stop(); });
  return run_until(limit, [] { return false; });
}

void Simulation::schedule_callback(Time when, std::function<void()> fn) {
  TFR_REQUIRE(when >= now_);
  TFR_REQUIRE(fn != nullptr);
  callbacks_.push_back(std::move(fn));
  Event event{when, next_seq_++, /*pid=*/-1, /*handle=*/{},
              AccessKind::kStart, /*reg_uid=*/0,
              static_cast<std::int64_t>(callbacks_.size() - 1)};
  queue_.push(event);
}

void Simulation::crash_at(Pid pid, Time t) {
  TFR_REQUIRE(pid >= 0 && static_cast<std::size_t>(pid) < processes_.size());
  TFR_REQUIRE(t >= 0);
  crash_time_[static_cast<std::size_t>(pid)] = t;
}

void Simulation::crash_after_accesses(Pid pid, std::uint64_t k) {
  TFR_REQUIRE(pid >= 0 && static_cast<std::size_t>(pid) < processes_.size());
  crash_access_limit_[static_cast<std::size_t>(pid)] = k;
}

const ProcessStats& Simulation::stats(Pid pid) const {
  TFR_REQUIRE(pid >= 0 && static_cast<std::size_t>(pid) < stats_.size());
  return stats_[static_cast<std::size_t>(pid)];
}

bool Simulation::all_done() const {
  for (const ProcessStats& s : stats_) {
    if (!s.done() && !s.crashed) return false;
  }
  return true;
}

std::vector<std::pair<Time, Pid>> Simulation::pending_events() const {
  std::vector<Event> copy = queue_.raw();
  std::sort(copy.begin(), copy.end(), [](const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  });
  std::vector<std::pair<Time, Pid>> events;
  events.reserve(copy.size());
  for (const Event& e : copy) events.emplace_back(e.when, e.pid);
  return events;
}

std::uint64_t Simulation::trace_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceEvent& e : trace_) {
    mix(static_cast<std::uint64_t>(e.when));
    mix(static_cast<std::uint64_t>(e.pid));
    mix(static_cast<std::uint64_t>(e.kind));
  }
  return h;
}

void Simulation::schedule_access(Pid pid, std::coroutine_handle<> h,
                                 std::uint64_t reg_uid, bool is_write) {
  auto& limit = crash_access_limit_[static_cast<std::size_t>(pid)];
  if (stats_[static_cast<std::size_t>(pid)].accesses() >= limit) {
    // crash_after_accesses: the process silently stops before this access.
    stats_[static_cast<std::size_t>(pid)].crashed = true;
    crash_time_[static_cast<std::size_t>(pid)] = now_;
    emit({now_, pid, obs::EventKind::kCrash, 0, 0, 0});
    return;  // never schedule; handle stays suspended until teardown
  }
  const Duration cost = timing_->access_cost(pid, now_, rng_);
  TFR_INVARIANT(cost >= 1);
  push_event(now_ + cost, pid, h,
             is_write ? AccessKind::kWrite : AccessKind::kRead, reg_uid);
}

void Simulation::schedule_delay(Pid pid, Duration d, std::coroutine_handle<> h) {
  // delay(d) takes exactly d time units (paper §1.2 accounting).
  push_event(now_ + d, pid, h, AccessKind::kDelay, 0);
}

void Simulation::on_process_done(Pid pid, std::exception_ptr exception) noexcept {
  stats_[static_cast<std::size_t>(pid)].done_at = now_;
  emit({now_, pid, obs::EventKind::kDone, 0, 0, 0});
  if (exception && !pending_exception_) pending_exception_ = exception;
}

void Simulation::note_read(Pid pid, bool remote) {
  auto& s = stats_[static_cast<std::size_t>(pid)];
  ++s.reads;
  if (remote) ++s.rmr;
  note_trace(pid, 'r');
}

void Simulation::note_write(Pid pid) {
  auto& s = stats_[static_cast<std::size_t>(pid)];
  ++s.writes;
  ++s.rmr;  // writes are always remote in the CC accounting
  note_trace(pid, 'w');
}

void Simulation::note_delay(Pid pid, Duration d) {
  auto& s = stats_[static_cast<std::size_t>(pid)];
  ++s.delays;
  s.delay_time += d;
  note_trace(pid, 'd');
}

void Simulation::note_trace(Pid pid, char kind) {
  if (options_.trace) trace_.push_back(TraceEvent{now_, pid, kind});
}

void Simulation::push_event(Time when, Pid pid, std::coroutine_handle<> h,
                            AccessKind kind, std::uint64_t reg_uid) {
  queue_.push(Event{when, next_seq_++, pid, h, kind, reg_uid});
}

}  // namespace tfr::sim
