// Layer microcells: each times only public calls and reports ns (or µs)
// per operation for one layer, as the median of several rounds.  They run
// in every traced run, whatever the workload, so each per-layer cost is
// reported beside the workload that should (or should not) move it.

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/common/rng.hpp"
#include "tfr/core/consensus_rt.hpp"
#include "tfr/msg/network.hpp"
#include "tfr/mutex/mutex_rt.hpp"
#include "tfr/rt/atomic_mutex.hpp"
#include "tfr/service/batcher.hpp"
#include "tfr/service/queue.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tfr;

constexpr int kRounds = 7;

/// Median over kRounds of (seconds of one round) / ops, scaled by `unit`.
template <class Round>
double per_op(std::uint64_t ops, double unit, Round&& round) {
  Samples samples;
  for (int r = 0; r < kRounds; ++r) {
    const double start = wall_now();
    round();
    samples.add((wall_now() - start) * unit / static_cast<double>(ops));
  }
  return samples.median();
}

/// Keeps a computed value observable so the optimizer cannot drop it.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

sim::Process churn(sim::Env env, sim::Register<int>& mine,
                   sim::Register<int>& theirs, int loops) {
  for (int i = 0; i < loops; ++i) {
    const int seen = co_await env.read(theirs);
    co_await env.write(mine, seen + 1);
    co_await env.delay(1);
  }
}

/// One simulator event: processes looping read, write, delay; time per
/// ProcessStats access or delay.
double sim_ns_per_event(Report& out) {
  constexpr int kProcesses = 4;
  constexpr int kLoops = 25'000;
  std::uint64_t events = 0;
  const double ns = per_op(
      std::uint64_t{kProcesses} * kLoops * 3, 1e9, [&] {
        sim::Simulation s(std::make_unique<sim::FixedTiming>(1), {.seed = 1});
        std::vector<std::unique_ptr<sim::Register<int>>> regs;
        for (int p = 0; p < kProcesses; ++p)
          regs.push_back(std::make_unique<sim::Register<int>>(s.space(), 0));
        for (int p = 0; p < kProcesses; ++p) {
          s.spawn([&, p](sim::Env env) {
            return churn(env, *regs[static_cast<std::size_t>(p)],
                         *regs[static_cast<std::size_t>((p + 1) % kProcesses)],
                         kLoops);
          });
        }
        s.run();
        events = 0;
        for (int p = 0; p < kProcesses; ++p)
          events += s.stats(p).accesses() + s.stats(p).delays;
      });
  out.require(events == std::uint64_t{kProcesses} * kLoops * 3,
              "microcell sim: unexpected event count");
  return ns;
}

sim::Process sender(sim::Env env, msg::Network& net, int count) {
  for (int i = 0; i < count; ++i) {
    msg::Message m;
    m.type = 1;
    m.value = i;
    co_await net.send(env, 0, 1, m);
  }
}

sim::Process receiver(sim::Env env, msg::Network& net, int count,
                      std::int64_t* sum) {
  for (int i = 0; i < count; ++i) {
    const msg::Message m = co_await net.recv(env, 1);
    *sum += m.value;
  }
}

/// One network message: a send plus its receive on a reliable channel.
double msg_ns_per_message(Report& out) {
  constexpr int kMessages = 20'000;
  std::int64_t sum = 0;
  const double ns = per_op(kMessages, 1e9, [&] {
    sim::Simulation s(std::make_unique<sim::FixedTiming>(1), {.seed = 1});
    msg::Network net(s.space(), 2);
    sum = 0;
    s.spawn([&](sim::Env env) { return sender(env, net, kMessages); });
    s.spawn([&](sim::Env env) { return receiver(env, net, kMessages, &sum); });
    s.run();
  });
  out.require(sum == std::int64_t{kMessages} * (kMessages - 1) / 2,
              "microcell msg: messages lost or reordered");
  return ns;
}

/// One estimator update and one per-channel read, over 3 channels.
void adapt_cells(std::uint64_t seed, Metrics& layer) {
  constexpr int kOps = 200'000;
  Rng rng(seed);
  std::vector<sim::Duration> samples;
  for (int i = 0; i < kOps; ++i) samples.push_back(rng.uniform(50, 600));
  adapt::TimelinessEstimator estimator(abd_estimator_config());
  layer.push_back({"adapt.ns_per_observe", per_op(kOps, 1e9, [&] {
                     for (int i = 0; i < kOps; ++i)
                       estimator.observe(i % 3,
                                         samples[static_cast<std::size_t>(i)]);
                   }),
                   "ns"});
  sim::Duration acc = 0;
  layer.push_back({"adapt.ns_per_estimate_for", per_op(kOps, 1e9, [&] {
                     for (int i = 0; i < kOps; ++i)
                       acc += estimator.estimate_for(i % 3);
                     keep(acc);
                   }),
                   "ns"});
}

/// One queue-and-batch step: BoundedQueue::try_push plus the Batcher fill
/// (and a take() whenever the batch is due).
double service_ns_per_queue_step(Report& out) {
  constexpr int kPushes = 200'000;
  std::uint64_t batched = 0;
  const double ns = per_op(kPushes, 1e9, [&] {
    service::BoundedQueue queue(4096, 8);
    service::Batcher batcher({.max_batch = 256, .max_wait = 200});
    batched = 0;
    for (int i = 0; i < kPushes; ++i) {
      const sim::Time now = i;
      service::Request request;
      request.session = static_cast<std::uint64_t>(i);
      request.first_offered = now;
      queue.try_push(request, now);
      batcher.fill_from(queue);
      if (batcher.should_flush(now)) batched += batcher.take().size();
    }
    batcher.fill_from(queue);
    batched += batcher.take().size();
  });
  out.require(batched == kPushes, "microcell service: requests lost");
  return ns;
}

/// Uncontended lock+unlock pairs.
void lock_cells(int threads, Metrics& layer) {
  // glibc's std::mutex skips its atomics while a process has never started
  // a thread (9 ns instead of 25 ns per pair here).  A lock only matters
  // in a threaded program, so measure both locks as one would see them.
  std::thread([] {}).join();
  constexpr int kPairs = 2'000'000;
  rt::AtomicMutex atomic;
  const double atomic_ns = per_op(kPairs, 1e9, [&] {
    for (int i = 0; i < kPairs; ++i) {
      atomic.lock();
      atomic.unlock();
    }
  });
  std::mutex std_mutex;
  const double std_ns = per_op(kPairs, 1e9, [&] {
    for (int i = 0; i < kPairs; ++i) {
      std_mutex.lock();
      std_mutex.unlock();
    }
  });
  constexpr int kTfrPairs = 20'000;
  auto tfr = rt::make_tfr_mutex_rt(threads, rt::Nanos{500});
  const double tfr_ns = per_op(kTfrPairs, 1e9, [&] {
    for (int i = 0; i < kTfrPairs; ++i) {
      tfr->lock(0);
      tfr->unlock(0);
    }
  });
  layer.push_back({"rt.atomic_mutex.uncontended_ns", atomic_ns, "ns"});
  layer.push_back({"rt.std_mutex.uncontended_ns", std_ns, "ns"});
  layer.push_back({"rt.atomic_vs_std_uncontended", atomic_ns / std_ns,
                   "ratio"});
  layer.push_back({"mutex.tfr.uncontended_ns", tfr_ns, "ns"});
}

/// Algorithm 1: construction and one solo propose, timed apart.
void consensus_cells(Metrics& layer, Report& out) {
  constexpr int kDecisions = 2'000;
  Samples construct_us, propose_us;
  std::uint64_t steps = 0;
  for (int i = 0; i < kDecisions; ++i) {
    const double start = wall_now();
    auto consensus = std::make_unique<rt::RtConsensus>(
        rt::RtConsensus::Config{.delta = rt::Nanos{1000}});
    const double built = wall_now();
    const rt::RtConsensus::Result result = consensus->propose(i % 2);
    const double done = wall_now();
    construct_us.add((built - start) * 1e6);
    propose_us.add((done - built) * 1e6);
    steps += result.steps;
    out.require(result.value == i % 2, "microcell core: wrong decision");
  }
  layer.push_back({"core.construct_us", construct_us.median(), "us"});
  layer.push_back({"core.solo_propose_us", propose_us.median(), "us"});
  layer.push_back({"core.steps_per_propose",
                   static_cast<double>(steps) / kDecisions, "count"});
  out.require(steps == std::uint64_t{7} * kDecisions,
              "microcell core: a solo propose took other than 7 steps");
}

}  // namespace

void run_microcells(const Options& opts, Report& report) {
  Metrics& layer = report.layer;
  layer.push_back({"sim.ns_per_event", sim_ns_per_event(report), "ns"});
  layer.push_back({"msg.ns_per_message", msg_ns_per_message(report), "ns"});
  adapt_cells(opts.seed, layer);
  layer.push_back({"service.ns_per_queue_step",
                   service_ns_per_queue_step(report), "ns"});
  lock_cells(opts.threads, layer);
  consensus_cells(layer, report);
}

}  // namespace perfbench
