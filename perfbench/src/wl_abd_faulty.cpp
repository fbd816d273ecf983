// Workload `abd-faulty`: an n=3 ABD cluster assembled from the public msg
// pieces (Network, NetAdversary, AbdClient with kPerPeerFastRead,
// abd_server, ConvergenceMonitor) plus one shared TimelinessEstimator,
// under the E22 faults: replica 1 is slow (+40..60 steps each way) and
// replica 2 drops 30% of its messages.  One closed-loop client per node
// issues a read-heavy mix over two registers, unbatched.  Simulation::run
// and ConvergenceMonitor::check() are timed as separate calls.
//
// Untraced passes report Simulation::run from the fastest pass of each of
// its segments (SegmentBest), and the rest of a cluster (building it, the
// check) from its fastest pass.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/common/rng.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/adversary.hpp"
#include "tfr/msg/convergence.hpp"
#include "tfr/msg/network.hpp"
#include "tfr/obs/trace.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tfr;

constexpr sim::Duration kStep = 50;
constexpr int kNodes = 3;
constexpr int kSlowReplica = 1;
constexpr int kLossyReplica = 2;
// One pass runs kInstances independent clusters, each with its own seed
// drawn from the run's seed, so a pass averages over fault patterns.
constexpr int kInstances = 8;
constexpr int kOpsPerClient = 150;
constexpr int kWarmupOpsPerClient = 150;
constexpr double kWriteShare = 0.25;
constexpr int kRegisters = 2;  // logical registers the clients share
constexpr int kSetupEvery = 4;  // passes per set-up

/// E22's adaptive retry discipline: first window 2x the estimate.
msg::RetryPolicy adaptive_policy() {
  msg::RetryPolicy policy;
  policy.timeout = 40 * kStep;
  policy.timeout_growth = 2.0;
  policy.max_timeout = 320 * kStep;
  policy.backoff = 2 * kStep;
  policy.backoff_growth = 2.0;
  policy.max_backoff = 40 * kStep;
  policy.jitter = kStep;
  policy.poll_every = 5;
  policy.timeout_per_delta = 2.0;
  return policy;
}

}  // namespace

adapt::TimelinessEstimator::Config abd_estimator_config() {
  return {.initial = 2 * kStep,
          .floor = kStep,
          .ceiling = 320 * kStep,
          .window = 32,
          .quantile = 0.9,
          .headroom = 2.0,
          .grow_factor = 2.0,
          .decay_step = kStep,
          .clean_threshold = 2,
          .boost_cap = 2.0};
}

namespace {

void fault_endpoint(msg::NetAdversary& adversary, int endpoint,
                    const msg::ChannelFaults& faults) {
  for (int other = 0; other < 2 * kNodes; ++other) {
    if (other == endpoint) continue;
    adversary.set_channel_faults(endpoint, other, faults);
    adversary.set_channel_faults(other, endpoint, faults);
  }
}

struct Op {
  bool write = false;
  int reg = 1;
};

/// A client's op sequence.
using ClientPlan = std::vector<Op>;
/// One cluster's plans, one per client.
using Plan = std::vector<ClientPlan>;

/// Each client's ops (kind and register), drawn from the seed.
Plan make_plan(std::uint64_t seed, int ops) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  Plan plan(kNodes);
  for (ClientPlan& ops_of : plan) {
    for (int i = 0; i < ops; ++i) {
      const bool write = rng.bernoulli(kWriteShare);
      ops_of.push_back({write, 1 + static_cast<int>(rng.index(kRegisters))});
    }
  }
  return plan;
}

struct Latencies {
  Samples reads;
  Samples writes;
};

sim::Process client_loop(sim::Env env, msg::AbdClient& client,
                         const ClientPlan& plan, std::int64_t base,
                         int* finished, Latencies* lat) {
  std::int64_t next = base;
  for (const Op& op : plan) {
    const sim::Time start = env.now();
    if (op.write) {
      co_await client.write(env, op.reg, next++);
      lat->writes.add(static_cast<double>(env.now() - start));
    } else {
      co_await client.read(env, op.reg);
      lat->reads.add(static_cast<double>(env.now() - start));
    }
  }
  ++*finished;
}

struct Cluster {
  std::uint64_t issued = 0;
  double wall_s = 0;  ///< the whole of run_cluster()
  double run_s = 0;
  double check_s = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t checked = 0;  ///< operations the monitor checked
  std::uint64_t operations = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_reads = 0;
  std::uint64_t fast_read_misses = 0;
  std::uint64_t messages = 0;
  std::uint64_t drops = 0;
  std::uint64_t observations = 0;
  std::uint64_t failure_events = 0;
  std::uint64_t events = 0;
  Latencies lat;

  void absorb(const Cluster& o) {
    issued += o.issued;
    wall_s += o.wall_s;
    run_s += o.run_s;
    check_s += o.check_s;
    run_allocs += o.run_allocs;
    checked += o.checked;
    operations += o.operations;
    retries += o.retries;
    timeouts += o.timeouts;
    fast_reads += o.fast_reads;
    fast_read_misses += o.fast_read_misses;
    messages += o.messages;
    drops += o.drops;
    observations += o.observations;
    failure_events += o.failure_events;
    events += o.events;
    for (double v : o.lat.reads.values()) lat.reads.add(v);
    for (double v : o.lat.writes.values()) lat.writes.add(v);
  }
};

/// The seeds of one pass's clusters.
std::uint64_t instance_seed(std::uint64_t seed, int instance) {
  return seed * kInstances + static_cast<std::uint64_t>(instance);
}

/// Builds the cluster, runs it to completion and checks it.  With `best`,
/// folds the segments of Simulation::run into it.
Cluster run_cluster(std::uint64_t seed, const Plan& plan, Tracer::Lane* lane,
                    SegmentBest* best, Report& out) {
  const double begin = wall_now();
  std::uint64_t issued = 0;
  for (const auto& ops : plan) issued += ops.size();
  std::unique_ptr<obs::TraceSink> sink;
  if (lane != nullptr)
    sink = std::make_unique<obs::TraceSink>(400 * issued + (1 << 16));
  adapt::TimelinessEstimator estimator(abd_estimator_config());
  sim::Simulation s(sim::make_uniform_timing(1, kStep),
                    {.seed = seed, .sink = sink.get()});
  msg::Network net(s.space(), 2 * kNodes);
  msg::NetAdversary adversary(0xabdfa57ULL + seed);
  msg::ChannelFaults slow;
  slow.delay = 1.0;
  slow.delay_min = 40 * kStep;
  slow.delay_max = 60 * kStep;
  msg::ChannelFaults lossy;
  lossy.drop = 0.30;
  fault_endpoint(adversary, kNodes + kSlowReplica, slow);
  fault_endpoint(adversary, kNodes + kLossyReplica, lossy);
  adversary.arm(s);
  net.set_adversary(&adversary);
  msg::ConvergenceMonitor monitor;
  monitor.set_adversary(&adversary);

  Cluster c;
  c.issued = issued;
  int finished = 0;
  std::vector<std::unique_ptr<msg::AbdClient>> clients;
  for (int i = 0; i < kNodes; ++i) {
    clients.push_back(
        std::make_unique<msg::AbdClient>(net, i, kNodes, adaptive_policy()));
    clients.back()->set_monitor(&monitor);
    clients.back()->set_delta_controller(&estimator);
    clients.back()->set_variant(msg::RegisterVariant::kPerPeerFastRead);
  }
  for (int i = 0; i < kNodes; ++i) {
    s.spawn([&, i](sim::Env env) {
      return client_loop(env, *clients[static_cast<std::size_t>(i)],
                         plan[static_cast<std::size_t>(i)],
                         1'000'000LL * (i + 1), &finished, &c.lat);
    });
  }
  for (int i = 0; i < kNodes; ++i) {
    s.spawn([&net, i](sim::Env env) {
      return msg::abd_server(env, net, i, kNodes);
    });
  }
  {
    Scoped span(lane, "Simulation::run");
    if (best != nullptr) best->begin();
    const std::uint64_t allocs = allocations();
    const double start = wall_now();
    s.run(8'000'000'000, [&] { return finished == kNodes; });
    c.run_s = wall_now() - start;
    c.run_allocs = allocations() - allocs;
    out.require(best == nullptr || best->end(),
                "abd-faulty: segment counts differ between passes");
  }
  msg::ConvergenceMonitor::Report verdict;
  {
    Scoped span(lane, "ConvergenceMonitor::check");
    const double start = wall_now();
    verdict = monitor.check();
    c.check_s = wall_now() - start;
  }
  c.checked = verdict.operations;
  for (const auto& client : clients) {
    c.operations += client->operations();
    c.retries += client->retries();
    c.timeouts += client->timeouts();
    c.fast_reads += client->fast_reads();
    c.fast_read_misses += client->fast_read_misses();
  }
  c.messages = net.messages_sent();
  c.drops = adversary.drops();
  c.observations = estimator.observations();
  c.failure_events = estimator.failure_events();
  if (sink) {
    out.require(sink->dropped() == 0, "abd-faulty: TraceSink dropped events");
    c.events = sink->size();
  }

  out.require(finished == kNodes, "abd-faulty: a client did not finish");
  out.require(verdict.linearizable, "abd-faulty: history not linearizable");
  out.require(verdict.unfinished == 0, "abd-faulty: unfinished operations");
  out.require(monitor.safety_violations() == 0,
              "abd-faulty: safety violations");
  out.require(verdict.operations == c.issued,
              "abd-faulty: checked operations != issued operations");
  out.attempted += c.issued;
  out.failed += c.issued - std::min(c.issued, verdict.operations);
  c.wall_s = wall_now() - begin;
  return c;
}

}  // namespace

Report run_abd_faulty_workload(const Options& opts, Tracer& tracer) {
  Report out;
  std::vector<Plan> plans(kInstances);
  const auto setup = [&] {
    for (int k = 0; k < kInstances; ++k) {
      plans[static_cast<std::size_t>(k)] =
          make_plan(instance_seed(opts.seed, k), kOpsPerClient);
    }
    run_cluster(opts.seed, make_plan(opts.seed, kWarmupOpsPerClient), nullptr,
                nullptr, out);
  };

  double read_p99 = -1, write_p99 = -1;
  Samples check_s, cpu_per_wall;
  std::vector<double> untraced_wall, traced_wall;
  // Per cluster: Simulation::run at each segment's fastest pass, and the
  // rest of run_cluster() at its fastest pass.
  std::vector<SegmentBest> run_best(kInstances);
  std::vector<double> rest_best(kInstances, 1e300);
  Cluster last, traced;
  measure(opts, tracer, out, 3, kSetupEvery, setup, [&](Tracer::Lane* lane) {
    Scoped span(lane, "abd-faulty.pass");
    const double cpu = cpu_now();
    const double start = wall_now();
    Cluster c;
    for (int k = 0; k < kInstances; ++k) {
      const auto i = static_cast<std::size_t>(k);
      const Cluster one =
          run_cluster(instance_seed(opts.seed, k), plans[i], lane,
                      lane != nullptr ? nullptr : &run_best[i], out);
      if (lane == nullptr)
        rest_best[i] = std::min(rest_best[i], one.wall_s - one.run_s);
      c.absorb(one);
    }
    const double wall = wall_now() - start;
    const double cpu_s = cpu_now() - cpu;
    if (lane != nullptr) {
      traced_wall.push_back(wall);
      traced = std::move(c);
      return;
    }
    untraced_wall.push_back(wall);
    out.pass_wall_s.add(wall);
    out.pass_cpu_s.add(cpu_s);
    out.pass_ops_per_s.add(static_cast<double>(c.operations) / c.run_s);
    cpu_per_wall.add(cpu_s / wall);
    check_s.add(c.check_s);

    const double pass_read = c.lat.reads.percentile(99) / kStep;
    const double pass_write = c.lat.writes.percentile(99) / kStep;
    if (read_p99 < 0) {
      read_p99 = pass_read;
      write_p99 = pass_write;
    }
    out.require(pass_read == read_p99 && pass_write == write_p99,
                "abd-faulty: virtual latencies differ between passes");
    if (untraced_wall.size() > 1) {
      out.require(c.run_allocs == last.run_allocs,
                  "abd-faulty: allocation counts differ between passes");
    }
    last = std::move(c);
  });

  // CPU time is the wall time scaled by the passes' CPU/wall ratio: one
  // thread, so about 1.
  double run_s = 0;
  for (const SegmentBest& cluster : run_best) run_s += cluster.total_s();
  out.figures.wall_s = run_s;
  for (double rest : rest_best) out.figures.wall_s += rest;
  out.figures.cpu_s = out.figures.wall_s * cpu_per_wall.median();
  out.figures.ops_per_s = static_cast<double>(last.operations) / run_s;

  out.headline = {
      {"abd_ops_per_s", out.figures.ops_per_s, "1/s"},
      {"read_p99_delta", read_p99, "delta"},
      {"write_p99_delta", write_p99, "delta"},
      {"read_samples", static_cast<double>(last.lat.reads.count()), "count"},
      {"write_samples", static_cast<double>(last.lat.writes.count()), "count"},
      {"fail_frac",
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "ratio"},
  };

  if (opts.trace) {
    const double ops = static_cast<double>(last.operations);
    Samples overhead;
    for (std::size_t i = 0; i < traced_wall.size(); ++i)
      overhead.add(traced_wall[i] / untraced_wall[i]);
    const double attempts =
        static_cast<double>(last.fast_reads + last.fast_read_misses);
    out.layer = {
        {"sim.allocs_per_abd_op", static_cast<double>(last.run_allocs) / ops,
         "count"},
        {"msg.messages_per_abd_op", static_cast<double>(last.messages) / ops,
         "count"},
        {"msg.drops_per_abd_op", static_cast<double>(last.drops) / ops,
         "count"},
        {"msg.abd.ns_per_op", run_s * 1e9 / ops, "ns"},
        {"msg.abd.retries_per_op", static_cast<double>(last.retries) / ops,
         "count"},
        {"msg.abd.timeouts_per_op", static_cast<double>(last.timeouts) / ops,
         "count"},
        {"msg.abd.fast_read_hit_rate",
         attempts > 0 ? static_cast<double>(last.fast_reads) / attempts : 0,
         "ratio"},
        {"adapt.observations_per_abd_op",
         static_cast<double>(last.observations) / ops, "count"},
        {"adapt.failure_events_per_abd_op",
         static_cast<double>(last.failure_events) / ops, "count"},
        {"spec.check_s", check_s.median(), "s"},
        {"spec.ns_per_op",
         check_s.median() * 1e9 / static_cast<double>(last.checked),
         "ns"},
        {"spec.ops_checked", static_cast<double>(last.checked),
         "count"},
        {"obs.events_per_abd_op", static_cast<double>(traced.events) / ops,
         "count"},
        {"obs.trace_overhead.abd-faulty", overhead.median(), "ratio"},
    };
  }
  return out;
}

}  // namespace perfbench
