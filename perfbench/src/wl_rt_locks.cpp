// Workload `rt-locks`: real threads, no simulator.  min(4, CPUs) threads
// run a contended lock/unlock cycle with an empty critical section on
// Algorithm 3 (make_tfr_mutex_rt, the headline lock), then on AtomicMutex
// and std::mutex as same-process references; an occupancy probe counts
// mutual-exclusion violations.  Then one thread runs solo RtConsensus
// proposes, each on a freshly constructed object (the object is one-shot,
// so a user pays for a new one every decision).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tfr/common/rng.hpp"
#include "tfr/core/consensus_rt.hpp"
#include "tfr/mutex/lock_adapters.hpp"
#include "tfr/mutex/mutex_rt.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tfr;

constexpr rt::Nanos kLockDelta{500};      // Algorithm 3's optimistic(Δ)
constexpr rt::Nanos kConsensusDelta{1000};
constexpr int kTfrPerThread = 40'000;
constexpr int kRefPerThread = 100'000;
constexpr int kDecisions = 1'500;
constexpr int kSetupEvery = 2;  // passes per set-up

struct LockCell {
  double wall = 0;
  double cpu = 0;
  std::uint64_t acquisitions = 0;
  std::uint64_t violations = 0;
  Samples waits_ns;  ///< every lock() call, all threads

  double acq_per_s() const {
    return static_cast<double>(acquisitions) / wall;
  }
};

/// `threads` threads each do `per_thread` lock/unlock cycles on `mutex`,
/// timing every lock().  With a lane, each lock() and unlock() call is a
/// span on its thread's own lane.
LockCell contend(rt::RtMutex& mutex, int threads, int per_thread,
                 Tracer& tracer, Tracer::Lane* lane, const char* cell_name) {
  Scoped cell_span(lane, cell_name);
  LockCell cell;
  std::atomic<int> occupancy{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<double>> waits(static_cast<std::size_t>(threads));
  std::vector<Tracer::Lane*> lanes(static_cast<std::size_t>(threads), nullptr);
  for (int t = 0; t < threads; ++t) {
    waits[static_cast<std::size_t>(t)].resize(
        static_cast<std::size_t>(per_thread));
    if (lane != nullptr)
      lanes[static_cast<std::size_t>(t)] = tracer.lane(lane->current());
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double>& mine = waits[static_cast<std::size_t>(t)];
      Tracer::Lane* my_lane = lanes[static_cast<std::size_t>(t)];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) rt::cpu_relax();
      for (int i = 0; i < per_thread; ++i) {
        const double start = wall_now();
        {
          Scoped span(my_lane, "lock");
          mutex.lock(t);
        }
        mine[static_cast<std::size_t>(i)] = (wall_now() - start) * 1e9;
        if (occupancy.fetch_add(1) != 0) violations.fetch_add(1);
        occupancy.fetch_sub(1);
        Scoped span(my_lane, "unlock");
        mutex.unlock(t);
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const double cpu = cpu_now();
  const double start = wall_now();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  cell.wall = wall_now() - start;
  cell.cpu = cpu_now() - cpu;
  cell.acquisitions =
      static_cast<std::uint64_t>(threads) * static_cast<std::uint64_t>(per_thread);
  cell.violations = violations.load();
  for (const auto& w : waits)
    for (double ns : w) cell.waits_ns.add(ns);
  return cell;
}

struct Decisions {
  double wall = 0;
  double cpu = 0;
  Samples decide_us;
  std::uint64_t wrong = 0;
};

/// Solo proposes on fresh objects; inputs drawn from `rng`.
Decisions decide(int count, Rng& rng, Tracer::Lane* lane) {
  Decisions d;
  const double cpu = cpu_now();
  const double begin = wall_now();
  for (int i = 0; i < count; ++i) {
    const int input = rng.bernoulli(0.5) ? 1 : 0;
    const double start = wall_now();
    std::unique_ptr<rt::RtConsensus> consensus;
    {
      Scoped span(lane, "RtConsensus::RtConsensus");
      consensus = std::make_unique<rt::RtConsensus>(
          rt::RtConsensus::Config{.delta = kConsensusDelta});
    }
    rt::RtConsensus::Result result;
    {
      Scoped span(lane, "RtConsensus::propose");
      result = consensus->propose(input);
    }
    const double done = wall_now();
    d.decide_us.add((done - start) * 1e6);
    if (result.value != input || result.steps != 7) ++d.wrong;
  }
  d.wall = wall_now() - begin;
  d.cpu = cpu_now() - cpu;
  return d;
}

struct Locks {
  std::unique_ptr<rt::TfrMutexRt> tfr;
  std::unique_ptr<rt::RtMutex> atomic;
  std::unique_ptr<rt::RtMutex> std_mutex;
};

Locks make_locks(int threads) {
  return {rt::make_tfr_mutex_rt(threads, kLockDelta),
          std::make_unique<rt::AtomicMutexLock>(),
          std::make_unique<rt::StdMutexLock>()};
}

struct Pass {
  LockCell tfr;
  LockCell atomic;
  LockCell std_mutex;
  Decisions decisions;
  std::uint64_t first_try = 0;
  std::uint64_t retried = 0;
};

Pass run_pass(int threads, Rng& rng, Tracer& tracer, Tracer::Lane* lane,
              int tfr_per_thread, int ref_per_thread, int decisions,
              Report& out) {
  Pass pass;
  Locks locks = make_locks(threads);
  pass.tfr = contend(*locks.tfr, threads, tfr_per_thread, tracer, lane,
                     "tfr.contended");
  pass.first_try = locks.tfr->first_try_admissions();
  pass.retried = locks.tfr->retried_admissions();
  // The references get no per-call spans: only Algorithm 3 is traced.
  {
    Scoped span(lane, "atomic_mutex.contended");
    pass.atomic = contend(*locks.atomic, threads, ref_per_thread, tracer,
                          nullptr, "");
  }
  {
    Scoped span(lane, "std_mutex.contended");
    pass.std_mutex = contend(*locks.std_mutex, threads, ref_per_thread,
                             tracer, nullptr, "");
  }
  {
    Scoped span(lane, "solo_propose");
    pass.decisions = decide(decisions, rng, lane);
  }

  const std::uint64_t violations = pass.tfr.violations +
                                   pass.atomic.violations +
                                   pass.std_mutex.violations;
  out.require(violations == 0, "rt-locks: mutual exclusion violated");
  out.require(pass.decisions.wrong == 0,
              "rt-locks: a solo propose did not decide its own input in 7 "
              "steps");
  out.attempted += pass.tfr.acquisitions + pass.atomic.acquisitions +
                   pass.std_mutex.acquisitions +
                   static_cast<std::uint64_t>(decisions);
  out.failed += violations + pass.decisions.wrong;
  return pass;
}

}  // namespace

Report run_rt_locks_workload(const Options& opts, Tracer& tracer) {
  Report out;
  const int threads = opts.threads;
  Rng rng(opts.seed * 0x9e3779b97f4a7c15ULL + 3);
  // Set-up builds the locks, starts the threads and warms every cell up:
  // a short pass of the same work.
  const auto setup = [&] {
    run_pass(threads, rng, tracer, nullptr, 2'000, 5'000, 100, out);
  };

  Samples wait_p99, wait_p50, decide_med, tfr_cpu_per_acq, atomic_rate,
      std_rate;
  std::vector<double> untraced_wall, traced_wall;
  std::uint64_t first_try = 0, retried = 0;
  std::uint64_t acquisitions = 0, violations = 0;
  measure(opts, tracer, out, 3, kSetupEvery, setup, [&](Tracer::Lane* lane) {
    Scoped span(lane, "rt-locks.pass");
    const Pass pass = run_pass(threads, rng, tracer, lane, kTfrPerThread,
                               kRefPerThread, kDecisions, out);
    // The timed part is what a user of the tfr objects runs: Algorithm 3
    // and the decisions.  The reference locks are timed on their own.
    const double wall = pass.tfr.wall + pass.decisions.wall;
    const double cpu_s = pass.tfr.cpu + pass.decisions.cpu;
    acquisitions += pass.tfr.acquisitions + pass.atomic.acquisitions +
                    pass.std_mutex.acquisitions;
    violations += pass.tfr.violations + pass.atomic.violations +
                  pass.std_mutex.violations;
    if (lane != nullptr) {
      traced_wall.push_back(wall);
      return;
    }
    untraced_wall.push_back(wall);
    out.pass_wall_s.add(wall);
    out.pass_cpu_s.add(cpu_s);
    out.pass_ops_per_s.add(pass.tfr.acq_per_s());
    wait_p99.add(pass.tfr.waits_ns.percentile(99) / 1e3);
    wait_p50.add(pass.tfr.waits_ns.percentile(50) / 1e3);
    decide_med.add(pass.decisions.decide_us.median());
    tfr_cpu_per_acq.add(pass.tfr.cpu * 1e6 /
                              static_cast<double>(pass.tfr.acquisitions));
    atomic_rate.add(pass.atomic.acq_per_s());
    std_rate.add(pass.std_mutex.acq_per_s());
    first_try += pass.first_try;
    retried += pass.retried;
  });

  // The median pass (see Report::figures).
  if (!out.pass_wall_s.empty()) {
    out.figures = {out.pass_wall_s.median(), out.pass_cpu_s.median(),
                   out.pass_ops_per_s.median()};
  }

  out.headline = {
      {"acq_per_s", out.figures.ops_per_s, "1/s"},
      {"lock_wait_p99_us", wait_p99.median(), "us"},
      {"lock_wait_samples",
       static_cast<double>(threads) * kTfrPerThread, "count"},
      {"decide_us", decide_med.median(), "us"},
      {"fail_frac",
       static_cast<double>(violations) / static_cast<double>(acquisitions),
       "ratio"},
  };

  if (opts.trace) {
    Samples overhead;
    for (std::size_t i = 0; i < traced_wall.size(); ++i)
      overhead.add(traced_wall[i] / untraced_wall[i]);
    out.layer = {
        {"rt.atomic_mutex.acq_per_s", atomic_rate.median(), "1/s"},
        {"rt.std_mutex.acq_per_s", std_rate.median(), "1/s"},
        {"mutex.tfr.lock_wait_p50_us", wait_p50.median(), "us"},
        {"mutex.tfr.cpu_per_acq_us", tfr_cpu_per_acq.median(), "us"},
        {"mutex.tfr.first_try_ratio",
         static_cast<double>(first_try) /
             static_cast<double>(first_try + retried),
         "ratio"},
        {"obs.trace_overhead.rt-locks", overhead.median(), "ratio"},
    };
  }
  return out;
}

}  // namespace perfbench
