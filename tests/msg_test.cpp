// Tests for the message-passing substrate (§4 extension): SPSC channels,
// the ABD majority-quorum register emulation (atomicity, crash minority
// tolerance), and Algorithm 1 running over the emulated registers.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/adversary.hpp"
#include "tfr/msg/consensus_msg.hpp"
#include "tfr/msg/convergence.hpp"
#include "tfr/msg/election_msg.hpp"
#include "tfr/msg/network.hpp"
#include "tfr/obs/replay.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr::msg {
namespace {

using sim::Duration;
using sim::make_fixed_timing;
using sim::make_uniform_timing;

constexpr Duration kDelta = 50;

std::unique_ptr<sim::TimingModel> faulty(double p, Duration stretch) {
  auto injector = std::make_unique<sim::FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(p, stretch);
  return injector;
}

// --- Channels -------------------------------------------------------------------

sim::Process chat_sender(sim::Env env, Network& net, int self, int to,
                         int count) {
  for (int k = 0; k < count; ++k) {
    Message m;
    m.type = 7;
    m.value = self * 1000 + k;
    co_await net.send(env, self, to, m);
    co_await env.delay(env.rng().uniform(0, 30));
  }
}

sim::Process chat_receiver(sim::Env env, Network& net, int self, int expect,
                           std::vector<std::int64_t>& got) {
  for (int k = 0; k < expect; ++k) {
    const Message m = co_await net.recv(env, self);
    got.push_back(m.value);
  }
}

TEST(Channels, PerSenderFifoAndNoLoss) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    Network net(s.space(), 3);
    std::vector<std::int64_t> got;
    s.spawn([&net, &got](sim::Env env) {
      return chat_receiver(env, net, 2, 10, got);
    });
    s.spawn([&net](sim::Env env) { return chat_sender(env, net, 0, 2, 5); });
    s.spawn([&net](sim::Env env) { return chat_sender(env, net, 1, 2, 5); });
    s.run(1'000'000);
    ASSERT_EQ(got.size(), 10u) << "seed=" << seed;
    // Per-sender FIFO: each sender's values appear in increasing order.
    std::int64_t last0 = -1, last1 = -1;
    for (auto v : got) {
      if (v < 1000) {
        EXPECT_GT(v, last0);
        last0 = v;
      } else {
        EXPECT_GT(v, last1);
        last1 = v;
      }
    }
  }
}

sim::Process try_recv_once(sim::Env env, Network& net, bool* empty_seen) {
  const auto m = co_await net.try_recv(env, 0);
  *empty_seen = !m.has_value();
}

TEST(Channels, TryRecvEmptyReturnsNothing) {
  sim::Simulation s(make_fixed_timing(5));
  Network net(s.space(), 2);
  bool empty_seen = false;
  s.spawn([&net, &empty_seen](sim::Env env) {
    return try_recv_once(env, net, &empty_seen);
  });
  s.run();
  EXPECT_TRUE(empty_seen);
}

// --- ABD registers ----------------------------------------------------------------

sim::Process abd_writer_reader(sim::Env env, Network& net, int node, int n,
                               std::vector<std::int64_t>& reads) {
  AbdClient client(net, node, n);
  co_await client.write(env, /*reg=*/1, 100 + node);
  const auto v = co_await client.read(env, 1);
  reads[static_cast<std::size_t>(node)] = v;
}

void spawn_servers(sim::Simulation& s, Network& net, int n) {
  // Endpoints: clients use [0, n), servers [n, 2n).  Spawn order must put
  // the server of node i at a KNOWN sim pid so tests can crash it; we
  // return nothing but keep the convention: clients first, then servers,
  // so server(i) has sim pid n + i when clients are spawned first.
  for (int i = 0; i < n; ++i) {
    s.spawn([&net, i, n](sim::Env env) { return abd_server(env, net, i, n); });
  }
}

TEST(Abd, WriteThenReadReturnsLatest) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    const int n = 3;
    Network net(s.space(), 2 * n);
    std::vector<std::int64_t> reads(n, -1);
    for (int i = 0; i < n; ++i) {
      s.spawn([&net, &reads, i, n](sim::Env env) {
        return abd_writer_reader(env, net, i, n, reads);
      });
    }
    spawn_servers(s, net, n);
    s.run(10'000'000, [&] {
      return std::all_of(reads.begin(), reads.end(),
                         [](std::int64_t v) { return v >= 0; });
    });
    for (int i = 0; i < n; ++i) {
      // Own read sees own write or a concurrent later one.
      EXPECT_GE(reads[static_cast<std::size_t>(i)], 100) << "seed=" << seed;
      EXPECT_LT(reads[static_cast<std::size_t>(i)], 100 + n);
    }
  }
}

sim::Process abd_single_op(sim::Env env, Network& net, int node, int n,
                           bool write_first, std::int64_t* out) {
  AbdClient client(net, node, n);
  if (write_first) {
    co_await client.write(env, 5, 42);
    *out = 1;
  } else {
    *out = co_await client.read(env, 5);
  }
}

TEST(Abd, ToleratesMinorityServerCrashes) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 3});
  const int n = 5;
  Network net(s.space(), 2 * n);
  std::int64_t wrote = 0, read_back = -1;
  s.spawn([&net, &wrote](sim::Env env) {
    return abd_single_op(env, net, 0, 5, true, &wrote);
  });
  s.spawn([&net, &read_back](sim::Env env) {
    return abd_single_op(env, net, 1, 5, false, &read_back);
  });
  // Fill client pid slots 2..4 with idle clients so servers start at pid 5.
  for (int i = 2; i < n; ++i) {
    s.spawn([](sim::Env env) -> sim::Process { co_await env.delay(1); });
  }
  spawn_servers(s, net, n);
  // Crash two of five servers (pids n..2n-1 by spawn order) immediately.
  s.crash_at(5 + 3, 1);
  s.crash_at(5 + 4, 1);
  s.run(10'000'000, [&] { return wrote == 1 && read_back >= 0; });
  EXPECT_EQ(wrote, 1);
  // read may have linearized before or after the write: 0 (default) or 42.
  EXPECT_TRUE(read_back == 0 || read_back == 42) << read_back;
}

sim::Process abd_sequential_check(sim::Env env, Network& net, int n,
                                  bool* ok) {
  AbdClient client(net, 0, n);
  co_await client.write(env, 9, 7);
  const auto a = co_await client.read(env, 9);
  co_await client.write(env, 9, 8);
  const auto b = co_await client.read(env, 9);
  *ok = (a == 7 && b == 8);
}

TEST(Abd, SequentialSemanticsOnOneClient) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 1});
  const int n = 3;
  Network net(s.space(), 2 * n);
  bool ok = false;
  s.spawn([&net, &ok](sim::Env env) {
    return abd_sequential_check(env, net, 3, &ok);
  });
  for (int i = 1; i < n; ++i) {
    s.spawn([](sim::Env env) -> sim::Process { co_await env.delay(1); });
  }
  spawn_servers(s, net, n);
  s.run(10'000'000, [&] { return ok; });
  EXPECT_TRUE(ok);
}

// --- Consensus over messages --------------------------------------------------------

struct MsgConsensusRun {
  bool all_decided = false;
  std::uint64_t violations = 0;
  sim::Time last_decision = -1;
};

MsgConsensusRun run_msg_consensus(int n, std::vector<int> inputs,
                                  std::unique_ptr<sim::TimingModel> timing,
                                  std::uint64_t seed, sim::Time limit,
                                  int crash_servers = 0) {
  sim::Simulation s(std::move(timing), {.seed = seed});
  Network net(s.space(), 2 * n);
  MsgConsensus consensus(net, n, 60 * kDelta);
  consensus.monitor().throw_on_violation(false);
  for (int i = 0; i < n; ++i) {
    consensus.monitor().set_input(i, inputs[static_cast<std::size_t>(i)]);
    s.spawn([&consensus, i, input = inputs[static_cast<std::size_t>(i)]](
                sim::Env env) { return consensus.participant(env, i, input); });
  }
  for (int i = 0; i < n; ++i) {
    s.spawn([&net, i, n](sim::Env env) { return abd_server(env, net, i, n); });
  }
  for (int c = 0; c < crash_servers; ++c) s.crash_at(n + c, 1);

  s.run(limit, [&] {
    return consensus.monitor().decided_count() ==
           static_cast<std::size_t>(n - crash_servers);
  });
  MsgConsensusRun result;
  result.all_decided = consensus.monitor().all_decided(
      static_cast<std::size_t>(n - crash_servers));
  result.violations = consensus.monitor().agreement_violations() +
                      consensus.monitor().validity_violations();
  result.last_decision = consensus.monitor().last_decision_time();
  return result;
}

TEST(MsgConsensusTest, AgreementAndTermination) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto out = run_msg_consensus(3, {0, 1, 0},
                                       make_uniform_timing(1, kDelta), seed,
                                       50'000'000);
    EXPECT_TRUE(out.all_decided) << "seed=" << seed;
    EXPECT_EQ(out.violations, 0u) << "seed=" << seed;
  }
}

TEST(MsgConsensusTest, SafeUnderMessageTimingFailures) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto out = run_msg_consensus(3, {1, 0, 1},
                                       faulty(0.05, 20 * kDelta), seed,
                                       400'000'000);
    EXPECT_EQ(out.violations, 0u) << "seed=" << seed;
    EXPECT_TRUE(out.all_decided) << "seed=" << seed;
  }
}

// --- Elections over messages ---------------------------------------------------

struct ElectionRun {
  std::size_t decided = 0;
  std::uint64_t violations = 0;
};

ElectionRun run_timed_election(int n, sim::Duration wait,
                               std::unique_ptr<sim::TimingModel> timing,
                               std::uint64_t seed) {
  sim::Simulation s(std::move(timing), {.seed = seed});
  Network net(s.space(), n);
  TimedElection election(net, n, wait);
  for (int i = 0; i < n; ++i) {
    s.spawn([&election, i](sim::Env env) {
      return election.participant(env, i);
    });
  }
  s.run(100'000'000);
  return ElectionRun{election.monitor().decided_count(),
                     election.monitor().agreement_violations()};
}

TEST(TimedElectionTest, CorrectWhenMessagesAreOnTime) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    // W covers the worst send chain: n multicast legs x 2 accesses x Delta
    // plus our own sending time.
    const auto out = run_timed_election(
        4, /*wait=*/20 * kDelta, make_uniform_timing(1, kDelta), seed);
    EXPECT_EQ(out.decided, 4u) << "seed=" << seed;
    EXPECT_EQ(out.violations, 0u) << "seed=" << seed;
  }
}

TEST(TimedElectionTest, LateMessagesSplitLeadership) {
  std::uint64_t violations = 0;
  for (std::uint64_t seed = 0; seed < 60 && violations == 0; ++seed) {
    auto injector = std::make_unique<sim::FailureInjector>(
        make_uniform_timing(1, kDelta), kDelta);
    injector->set_random_failures(0.3, 100 * kDelta);
    violations +=
        run_timed_election(4, 20 * kDelta, std::move(injector), seed)
            .violations;
  }
  EXPECT_GT(violations, 0u)
      << "a late HELLO should have produced two leaders";
}

TEST(MsgElectionTest, SingleLeaderAlways) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    const int n = 3;
    Network net(s.space(), 2 * n);
    MsgElection election(net, n, 60 * kDelta);
    for (int i = 0; i < n; ++i) {
      s.spawn([&election, i](sim::Env env) {
        return election.participant(env, i);
      });
    }
    for (int i = 0; i < n; ++i) {
      s.spawn(
          [&net, i, n](sim::Env env) { return abd_server(env, net, i, n); });
    }
    s.run(1'000'000'000, [&] {
      return election.monitor().decided_count() == static_cast<std::size_t>(n);
    });
    EXPECT_TRUE(election.monitor().all_decided(n)) << "seed=" << seed;
    EXPECT_EQ(election.monitor().agreement_violations(), 0u)
        << "seed=" << seed;
  }
}

TEST(MsgElectionTest, SingleLeaderUnderLateMessages) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    sim::Simulation s(faulty(0.05, 20 * kDelta), {.seed = seed});
    const int n = 3;
    Network net(s.space(), 2 * n);
    MsgElection election(net, n, 60 * kDelta);
    for (int i = 0; i < n; ++i) {
      s.spawn([&election, i](sim::Env env) {
        return election.participant(env, i);
      });
    }
    for (int i = 0; i < n; ++i) {
      s.spawn(
          [&net, i, n](sim::Env env) { return abd_server(env, net, i, n); });
    }
    s.run(8'000'000'000, [&] {
      return election.monitor().decided_count() == static_cast<std::size_t>(n);
    });
    EXPECT_TRUE(election.monitor().all_decided(n)) << "seed=" << seed;
    EXPECT_EQ(election.monitor().agreement_violations(), 0u)
        << "seed=" << seed;
  }
}

// Property sweep: (n, failure%) matrix for message-passing consensus.
class MsgConsensusSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MsgConsensusSweep, SafetyAndTermination) {
  const int n = std::get<0>(GetParam());
  const int failure_pct = std::get<1>(GetParam());
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    std::vector<int> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(i % 2);
    std::unique_ptr<sim::TimingModel> timing =
        make_uniform_timing(1, kDelta);
    if (failure_pct > 0) {
      auto injector = std::make_unique<sim::FailureInjector>(
          std::move(timing), kDelta);
      injector->set_random_failures(failure_pct / 100.0, 25 * kDelta);
      timing = std::move(injector);
    }
    const auto out = run_msg_consensus(n, inputs, std::move(timing), seed,
                                       4'000'000'000);
    EXPECT_TRUE(out.all_decided)
        << "n=" << n << " fail%=" << failure_pct << " seed=" << seed;
    EXPECT_EQ(out.violations, 0u)
        << "n=" << n << " fail%=" << failure_pct << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, MsgConsensusSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(0, 5, 15)));

TEST(MsgConsensusTest, SurvivesCrashOfOneNodeServerOfFive) {
  // Note: crashing a *server* endpoint removes that replica; a majority
  // (3 of 5... here 4 alive of 5) still answers, and the crashed node's
  // client is also counted out of the deciders.
  const auto out = run_msg_consensus(5, {0, 1, 0, 1, 1},
                                     make_uniform_timing(1, kDelta), 2,
                                     100'000'000, /*crash_servers=*/1);
  EXPECT_EQ(out.violations, 0u);
}

// --- Network adversary + hardened clients ------------------------------------------

/// Retry discipline sized for kDelta-scale channels: one phase round trip
/// (multicast + server turnaround + ack) fits comfortably inside the
/// first window; the cap keeps long partitions from inflating waits
/// unboundedly.
RetryPolicy test_policy() {
  RetryPolicy policy;
  policy.timeout = 40 * kDelta;
  policy.timeout_growth = 2.0;
  policy.max_timeout = 320 * kDelta;
  policy.backoff = 2 * kDelta;
  policy.backoff_growth = 2.0;
  policy.max_backoff = 40 * kDelta;
  policy.jitter = kDelta;
  policy.poll_every = 5;
  return policy;
}

/// The acceptance-criterion fault mix: 20% drop, 5% duplicate, reorder on.
ChannelFaults acceptance_faults() {
  ChannelFaults faults;
  faults.drop = 0.20;
  faults.duplicate = 0.05;
  faults.reorder = 0.25;
  faults.reorder_hold = 4 * kDelta;
  return faults;
}

sim::Process flood_sender(sim::Env env, Network& net, int self, int to) {
  for (;;) {
    Message m;
    m.type = 7;
    m.value = self * 1000;
    co_await net.send(env, self, to, m);
  }
}

sim::Process counting_receiver(sim::Env env, Network& net, int self,
                               int count, std::vector<std::int64_t>& got) {
  for (int k = 0; k < count; ++k) {
    const Message m = co_await net.recv(env, self);
    got.push_back(m.value);
  }
}

TEST(NetAdversaryTest, RotatingPollPreventsStarvation) {
  // Sender 0 floods channel 0->2 so it is never empty; under a sweep that
  // always restarted at sender 0, sender 1's messages were starved
  // indefinitely.  The rotating start must interleave both senders.
  sim::Simulation s(make_fixed_timing(1));
  Network net(s.space(), 3);
  std::vector<std::int64_t> got;
  s.spawn([&net, &got](sim::Env env) {
    return counting_receiver(env, net, 2, 12, got);
  });
  s.spawn([&net](sim::Env env) { return flood_sender(env, net, 0, 2); });
  s.spawn([&net](sim::Env env) { return flood_sender(env, net, 1, 2); });
  s.run(10'000, [&] { return got.size() >= 12; });
  ASSERT_EQ(got.size(), 12u);
  const auto from1 =
      std::count_if(got.begin(), got.end(),
                    [](std::int64_t v) { return v == 1000; });
  EXPECT_GE(from1, 3) << "high-index channel starved by the flood on 0->2";
  EXPECT_GE(got.size() - static_cast<std::size_t>(from1), 3u);
}

/// One hardened client's workload: write then read one register, then
/// bump the completion counter.  (A free coroutine, not a coroutine
/// lambda: lambda captures do not survive into a coroutine frame.)
sim::Process hardened_write_read(sim::Env env, AbdClient& client, int reg,
                                 std::int64_t value, int* done) {
  co_await client.write(env, reg, value);
  co_await client.read(env, reg);
  ++*done;
}

sim::Process hardened_write_only(sim::Env env, AbdClient& client, int reg,
                                 std::int64_t value, int* done) {
  co_await client.write(env, reg, value);
  ++*done;
}

/// Hardened two-client ABD workload under `faults`; reports the monitor
/// verdict and whether every operation completed.
struct AdversaryRun {
  bool all_done = false;
  ConvergenceMonitor::Report report;
  std::uint64_t injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t duplicate_acks = 0;
};

AdversaryRun run_adversarial_abd(const ChannelFaults& faults,
                                 std::uint64_t net_seed, std::uint64_t seed,
                                 sim::Duration bound = 0) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
  const int n = 3;
  Network net(s.space(), 2 * n);
  NetAdversary adversary(net_seed);
  adversary.set_default_faults(faults);
  net.set_adversary(&adversary);
  ConvergenceMonitor monitor;
  monitor.set_adversary(&adversary);
  if (bound > 0) monitor.set_bound(bound);

  int done = 0;
  std::vector<std::unique_ptr<AbdClient>> clients;
  for (int i = 0; i < n; ++i) {
    clients.push_back(
        std::make_unique<AbdClient>(net, i, n, test_policy()));
    clients.back()->set_monitor(&monitor);
  }
  for (int i = 0; i < n; ++i) {
    s.spawn([&clients, &done, i](sim::Env env) {
      return hardened_write_read(env, *clients[static_cast<std::size_t>(i)],
                                 1, 100 + i, &done);
    });
  }
  spawn_servers(s, net, n);
  s.run(4'000'000'000, [&] { return done == n; });

  AdversaryRun out;
  out.all_done = done == n;
  out.report = monitor.check();
  out.injected = adversary.drops() + adversary.duplicates() +
                 adversary.delays() + adversary.reorders();
  for (const auto& c : clients) {
    out.retries += c->retries();
    out.duplicate_acks += c->duplicate_acks();
  }
  return out;
}

TEST(NetAdversaryTest, HardenedAbdCompletesUnderAcceptanceFaultMix) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const AdversaryRun out =
        run_adversarial_abd(acceptance_faults(), /*net_seed=*/7 + seed, seed);
    EXPECT_TRUE(out.all_done) << "seed=" << seed;
    EXPECT_GT(out.injected, 0u) << "seed=" << seed;
    EXPECT_TRUE(out.report.linearizable) << "seed=" << seed;
    EXPECT_EQ(out.report.unfinished, 0u) << "seed=" << seed;
  }
}

TEST(NetAdversaryTest, DuplicatedAcksNeverFakeAQuorum) {
  // Every message duplicated: a non-deduplicating client would count one
  // server's ack twice and proceed on a fake majority.  Every run must
  // both complete and linearize; across the seeds some duplicate must
  // arrive while its phase is still open and hit the suppression (late
  // duplicates are absorbed by the stale-rid filter instead).
  ChannelFaults faults;
  faults.duplicate = 1.0;
  std::uint64_t suppressed = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const AdversaryRun out = run_adversarial_abd(faults, 11, seed);
    EXPECT_TRUE(out.all_done) << "seed=" << seed;
    EXPECT_TRUE(out.report.linearizable) << "seed=" << seed;
    suppressed += out.duplicate_acks;
  }
  EXPECT_GT(suppressed, 0u);
}

TEST(NetAdversaryTest, AdversarialRunsAreDeterministic) {
  // Same adversary seed + fault schedule => byte-identical traces through
  // obs::record/replay, for each of the drop / duplicate / reorder mixes.
  ChannelFaults drop_heavy;
  drop_heavy.drop = 0.3;
  ChannelFaults dup_heavy;
  dup_heavy.duplicate = 0.4;
  ChannelFaults reorder_heavy;
  reorder_heavy.reorder = 0.5;
  reorder_heavy.reorder_hold = 6 * kDelta;
  for (const ChannelFaults& faults :
       {drop_heavy, dup_heavy, reorder_heavy, acceptance_faults()}) {
    const obs::Scenario scenario = [faults](sim::Simulation& s) {
      const int n = 3;
      Network net(s.space(), 2 * n);
      NetAdversary adversary(99);
      adversary.set_default_faults(faults);
      adversary.add_partition({/*begin=*/50 * kDelta,
                               /*heal=*/120 * kDelta,
                               /*group=*/{0, n + 0}});
      adversary.arm(s);
      net.set_adversary(&adversary);
      std::vector<std::unique_ptr<AbdClient>> clients;
      for (int i = 0; i < n; ++i)
        clients.push_back(
            std::make_unique<AbdClient>(net, i, n, test_policy()));
      int done = 0;
      for (int i = 0; i < n; ++i) {
        s.spawn([&clients, &done, i](sim::Env env) {
          return hardened_write_read(
              env, *clients[static_cast<std::size_t>(i)], 1, 100 + i, &done);
        });
      }
      spawn_servers(s, net, n);
      s.run(4'000'000'000, [&done] { return done == 3; });
    };
    obs::TimingSpec spec;
    spec.kind = obs::TimingSpec::Kind::kUniform;
    spec.lo = 1;
    spec.hi = kDelta;
    const obs::RecordedRun run = obs::record(5, spec, scenario);
    const obs::ReplayResult replayed = obs::replay(run, scenario);
    EXPECT_TRUE(replayed.identical)
        << "diverged at event " << replayed.first_divergence
        << " (drop=" << faults.drop << " dup=" << faults.duplicate
        << " reorder=" << faults.reorder << ")";
  }
}

TEST(NetAdversaryTest, ConvergesWithinBoundAfterPartitionHeal) {
  // Node 0 (client + server endpoints) is cut off from t=0 until the heal;
  // its operations stall, retry, and must complete within the monitor's
  // bound once the partition heals.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    const int n = 3;
    Network net(s.space(), 2 * n);
    NetAdversary adversary(21);
    const sim::Time heal = 2'000 * kDelta;
    adversary.add_partition({/*begin=*/0, heal, /*group=*/{0, n + 0}});
    adversary.arm(s);
    net.set_adversary(&adversary);
    ConvergenceMonitor monitor;
    monitor.set_adversary(&adversary);
    monitor.set_simulation(&s);
    monitor.set_bound(1'000 * kDelta);

    int done = 0;
    std::vector<std::unique_ptr<AbdClient>> clients;
    for (int i = 0; i < n; ++i) {
      clients.push_back(
          std::make_unique<AbdClient>(net, i, n, test_policy()));
      clients.back()->set_monitor(&monitor);
    }
    for (int i = 0; i < n; ++i) {
      s.spawn([&clients, &done, i](sim::Env env) {
        return hardened_write_read(env, *clients[static_cast<std::size_t>(i)],
                                   2, 10 + i, &done);
      });
    }
    spawn_servers(s, net, n);
    s.run(4'000'000'000, [&] { return done == n; });
    ASSERT_EQ(done, n) << "seed=" << seed;

    const auto report = monitor.check();
    EXPECT_TRUE(report.ok()) << "seed=" << seed;
    EXPECT_TRUE(report.linearizable) << "seed=" << seed;
    EXPECT_TRUE(report.converged)
        << "seed=" << seed << " worst lag " << report.worst_lag
        << " exceeded bound " << monitor.bound();
    EXPECT_EQ(monitor.safety_violations(), 0u) << "seed=" << seed;
    EXPECT_GE(report.anchor, heal) << "seed=" << seed;
    EXPECT_GT(clients[0]->retries(), 0u)
        << "the partitioned client should have had to retry";
  }
}

TEST(NetAdversaryTest, MsgConsensusCompletesUnderAcceptanceFaultMix) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    const int n = 3;
    Network net(s.space(), 2 * n);
    NetAdversary adversary(31 + seed);
    adversary.set_default_faults(acceptance_faults());
    net.set_adversary(&adversary);
    MsgConsensus consensus(net, n, 60 * kDelta, /*reg_base=*/0,
                           test_policy());
    consensus.monitor().throw_on_violation(false);
    const std::vector<int> inputs{0, 1, 1};
    for (int i = 0; i < n; ++i) {
      consensus.monitor().set_input(i, inputs[static_cast<std::size_t>(i)]);
      s.spawn([&consensus, i, input = inputs[static_cast<std::size_t>(i)]](
                  sim::Env env) {
        return consensus.participant(env, i, input);
      });
    }
    for (int i = 0; i < n; ++i) {
      s.spawn(
          [&net, i, n](sim::Env env) { return abd_server(env, net, i, n); });
    }
    s.run(8'000'000'000, [&] {
      return consensus.monitor().decided_count() == static_cast<std::size_t>(n);
    });
    EXPECT_TRUE(consensus.monitor().all_decided(n)) << "seed=" << seed;
    EXPECT_EQ(consensus.monitor().agreement_violations() +
                  consensus.monitor().validity_violations(),
              0u)
        << "seed=" << seed;
    EXPECT_GT(adversary.drops(), 0u) << "seed=" << seed;
  }
}

// --- Register variants: per-peer windows + the fast read ---------------------

adapt::TimelinessEstimator::Config variant_estimator_config() {
  return {.initial = 2 * kDelta,
          .floor = kDelta,
          .ceiling = 320 * kDelta,
          .window = 32,
          .quantile = 0.9,
          .headroom = 2.0,
          .grow_factor = 2.0,
          .decay_step = kDelta,
          .clean_threshold = 2,
          .boost_cap = 2.0};
}

TEST(AbdVariants, PerPeerWindowIsTheMajorityThSmallest) {
  adapt::TimelinessEstimator est({.initial = 4,
                                  .floor = 1,
                                  .ceiling = 1000,
                                  .window = 4,
                                  .quantile = 1.0,
                                  .headroom = 2.0,
                                  .grow_factor = 2.0,
                                  .decay_step = 1,
                                  .clean_threshold = 2});
  est.observe(0, 5);    // margined estimate 10
  est.observe(1, 8);    // 16
  est.observe(2, 100);  // 200: the straggler
  std::vector<Duration> scratch;
  // n=3 needs 2 acks: wait the 2nd-smallest window, never the straggler's.
  EXPECT_EQ(per_peer_window(est, 3, 1.0, 0, scratch), 16);
  EXPECT_EQ(per_peer_window(est, 3, 2.0, 0, scratch), 32);  // scaled per w_s
  EXPECT_EQ(per_peer_window(est, 3, 2.0, 20, scratch), 20);  // cap clamps
  // A lone server: its own window, nothing to take a majority over.
  EXPECT_EQ(per_peer_window(est, 1, 1.0, 0, scratch), 10);
}

sim::Process variant_write_then_reads(sim::Env env, AbdClient& client,
                                      int reads,
                                      std::vector<std::int64_t>& got,
                                      int* done) {
  co_await client.write(env, /*reg=*/3, 7);
  for (int i = 0; i < reads; ++i) got.push_back(co_await client.read(env, 3));
  ++*done;
}

TEST(AbdVariants, FastReadSkipsTheWriteBackOnACleanNetwork) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 2});
  const int n = 3;
  Network net(s.space(), 2 * n);
  ConvergenceMonitor monitor;
  AbdClient client(net, 0, n);
  client.set_monitor(&monitor);
  client.set_variant(RegisterVariant::kPerPeerFastRead);
  std::vector<std::int64_t> got;
  int done = 0;
  s.spawn([&client, &got, &done](sim::Env env) {
    return variant_write_then_reads(env, client, 10, got, &done);
  });
  for (int i = 1; i < n; ++i) {
    s.spawn([](sim::Env env) -> sim::Process { co_await env.delay(1); });
  }
  spawn_servers(s, net, n);
  s.run(10'000'000, [&] { return done == 1; });
  ASSERT_EQ(done, 1);
  for (std::int64_t v : got) EXPECT_EQ(v, 7);
  // Every fast-variant read is accounted one way or the other, and the
  // clean network makes the one-round path the common case.
  EXPECT_EQ(client.fast_reads() + client.fast_read_misses(), 10u);
  EXPECT_GE(client.fast_reads(), 5u);
  EXPECT_TRUE(monitor.check().linearizable);
}

TEST(AbdVariants, StockClientNeverCountsFastReads) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 2});
  const int n = 3;
  Network net(s.space(), 2 * n);
  AbdClient client(net, 0, n);  // default kStock
  std::vector<std::int64_t> got;
  int done = 0;
  s.spawn([&client, &got, &done](sim::Env env) {
    return variant_write_then_reads(env, client, 5, got, &done);
  });
  for (int i = 1; i < n; ++i) {
    s.spawn([](sim::Env env) -> sim::Process { co_await env.delay(1); });
  }
  spawn_servers(s, net, n);
  s.run(10'000'000, [&] { return done == 1; });
  ASSERT_EQ(done, 1);
  EXPECT_EQ(client.fast_reads(), 0u);
  EXPECT_EQ(client.fast_read_misses(), 0u);
}

/// Plants a higher-tagged value at ONE replica — the footprint of a
/// writer that crashed mid-store.  Tag layout per the header: counter
/// << 16 | writer.
sim::Process plant_partial_write(sim::Env env, Network& net, int from,
                                 int server, int reg, std::int64_t tag,
                                 std::int64_t value, const bool* wrote,
                                 bool* planted) {
  while (!*wrote) co_await env.delay(5);  // outrank the finished write
  Message m;
  m.type = kWriteReq;
  m.reg = reg;
  m.rid = 0;
  m.tag = tag;
  m.value = value;
  co_await net.send(env, from, server, m);
  *planted = true;
}

sim::Process disagreement_reads(sim::Env env, AbdClient& client, bool* wrote,
                                const bool* planted,
                                std::vector<std::int64_t>& got, int* done) {
  co_await client.write(env, /*reg=*/4, 10);
  *wrote = true;
  while (!*planted) co_await env.delay(5);
  co_await env.delay(20 * kDelta);  // let the planted store land
  got.push_back(co_await client.read(env, 4));
  got.push_back(co_await client.read(env, 4));
  ++*done;
}

TEST(AbdVariants, DisagreeingTagsForceTheTwoRoundFallback) {
  // The adversarial read path: server 0 holds a higher tag the rest of
  // the quorum has never seen (a crashed writer's partial store).  The
  // first read's quorum {0, 1} disagrees -> the fast path must NOT fire;
  // its write-back installs the tag at the majority, so the second read
  // sees uniform tags and takes the one-round path.  Server 2 is crashed
  // to pin the quorum to {0, 1}.
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 6});
  const int n = 3;
  Network net(s.space(), 2 * n);
  AbdClient client(net, 0, n);
  client.set_variant(RegisterVariant::kPerPeerFastRead);
  std::vector<std::int64_t> got;
  bool wrote = false;
  bool planted = false;
  int done = 0;
  s.spawn([&client, &wrote, &planted, &got, &done](sim::Env env) {
    return disagreement_reads(env, client, &wrote, &planted, got, &done);
  });
  s.spawn([&net, &wrote, &planted, n](sim::Env env) {
    // Writer id 5, counter 2: beats the client's (1 << 16 | 0) tag.
    return plant_partial_write(env, net, /*from=*/1, /*server=*/n + 0,
                               /*reg=*/4, (std::int64_t{2} << 16) | 5, 99,
                               &wrote, &planted);
  });
  s.spawn([](sim::Env env) -> sim::Process { co_await env.delay(1); });
  spawn_servers(s, net, n);
  s.crash_at(n + 2, 1);  // server 2 never answers: quorums are {0, 1}
  s.run(100'000'000, [&] { return done == 1; });
  ASSERT_EQ(done, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 99);  // the read adopted and propagated the high tag
  EXPECT_EQ(got[1], 99);
  EXPECT_EQ(client.fast_read_misses(), 1u);  // read 1: disagreement
  EXPECT_EQ(client.fast_reads(), 1u);        // read 2: uniform again
}

sim::Process variant_rw_loop(sim::Env env, AbdClient& client, int ops,
                             int* done) {
  for (int i = 0; i < ops; ++i) {
    co_await client.write(env, /*reg=*/2, i);
    co_await client.read(env, 2);
  }
  ++*done;
}

TEST(AbdVariants, LateAcksTeachTheStragglersChannel) {
  // The slow replica rarely makes a quorum, so its channel would starve
  // without the late-ack ring: acks arriving after the phase closed must
  // still feed observe() and give the straggler an honest (large)
  // estimate, while the timely replicas keep small ones.
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 9});
  const int n = 3;
  Network net(s.space(), 2 * n);
  NetAdversary adversary(17);
  ChannelFaults slow;
  slow.delay = 1.0;
  slow.delay_min = 40 * kDelta;
  slow.delay_max = 60 * kDelta;
  ChannelFaults lossy;
  lossy.drop = 0.30;
  // The lossy box stretches phases (expiry + retry), which is what keeps
  // the straggler's acks within the late-ack ring's reach — with every
  // phase quorum-on-first-try the ring would recycle before they land.
  for (int other = 0; other < 2 * n; ++other) {
    if (other != n + 1) {
      adversary.set_channel_faults(n + 1, other, slow);
      adversary.set_channel_faults(other, n + 1, slow);
    }
    if (other != n + 2) {
      adversary.set_channel_faults(n + 2, other, lossy);
      adversary.set_channel_faults(other, n + 2, lossy);
    }
  }
  adversary.arm(s);
  net.set_adversary(&adversary);
  adapt::TimelinessEstimator est(variant_estimator_config());
  RetryPolicy policy = test_policy();
  policy.timeout_per_delta = 2.0;
  AbdClient client(net, 0, n, policy);
  client.set_delta_controller(&est);
  client.set_variant(RegisterVariant::kPerPeer);
  int done = 0;
  s.spawn([&client, &done](sim::Env env) {
    return variant_rw_loop(env, client, 20, &done);
  });
  for (int i = 1; i < n; ++i) {
    s.spawn([](sim::Env env) -> sim::Process { co_await env.delay(1); });
  }
  spawn_servers(s, net, n);
  s.run(4'000'000'000, [&] { return done == 1; });
  ASSERT_EQ(done, 1);
  EXPECT_GT(client.late_observations(), 0u);
  // The straggler's channel carries a quantile an order beyond the timely
  // replicas' — the raw material the timeliness graph classifies.
  EXPECT_GT(est.channel_quantile(1), 4 * est.channel_quantile(0));
  EXPECT_GT(est.channel_quantile(1), 4 * est.channel_quantile(2));
  EXPECT_GT(est.estimate_for(1), est.estimate_for(0));
}

TEST(AbdVariants, EveryVariantReplaysByteIdentical) {
  // Same-seed record/replay determinism, per variant, under the
  // heterogeneous mix (slow box + lossy box) with a shared estimator —
  // per-peer windows, late-ack observations and fast reads are all pure
  // functions of the run.
  for (const RegisterVariant variant :
       {RegisterVariant::kStock, RegisterVariant::kPerPeer,
        RegisterVariant::kPerPeerFastRead}) {
    const obs::Scenario scenario = [variant](sim::Simulation& s) {
      const int n = 3;
      Network net(s.space(), 2 * n);
      NetAdversary adversary(23);
      ChannelFaults slow;
      slow.delay = 1.0;
      slow.delay_min = 40 * kDelta;
      slow.delay_max = 60 * kDelta;
      ChannelFaults lossy;
      lossy.drop = 0.30;
      for (int other = 0; other < 2 * n; ++other) {
        if (other != n + 1) {
          adversary.set_channel_faults(n + 1, other, slow);
          adversary.set_channel_faults(other, n + 1, slow);
        }
        if (other != n + 2) {
          adversary.set_channel_faults(n + 2, other, lossy);
          adversary.set_channel_faults(other, n + 2, lossy);
        }
      }
      adversary.arm(s);
      net.set_adversary(&adversary);
      adapt::TimelinessEstimator est(variant_estimator_config());
      RetryPolicy policy = test_policy();
      policy.timeout_per_delta = 2.0;
      std::vector<std::unique_ptr<AbdClient>> clients;
      int done = 0;
      for (int i = 0; i < 2; ++i) {
        clients.push_back(std::make_unique<AbdClient>(net, i, n, policy));
        clients.back()->set_delta_controller(&est);
        clients.back()->set_variant(variant);
        s.spawn([&clients, &done, i](sim::Env env) {
          return variant_rw_loop(env,
                                 *clients[static_cast<std::size_t>(i)], 10,
                                 &done);
        });
      }
      s.spawn([](sim::Env env) -> sim::Process { co_await env.delay(1); });
      spawn_servers(s, net, n);
      s.run(4'000'000'000, [&done] { return done == 2; });
    };
    obs::TimingSpec spec;
    spec.kind = obs::TimingSpec::Kind::kUniform;
    spec.lo = 1;
    spec.hi = kDelta;
    const obs::RecordedRun run = obs::record(41, spec, scenario);
    EXPECT_FALSE(run.trace.empty());
    const obs::ReplayResult replayed = obs::replay(run, scenario);
    EXPECT_TRUE(replayed.identical)
        << register_variant_name(variant) << " diverged at event "
        << replayed.first_divergence;
  }
}

TEST(NetAdversaryTest, FaultEventsLandInTheTrace) {
  obs::TraceSink sink;
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 4, .sink = &sink});
  const int n = 3;
  Network net(s.space(), 2 * n);
  NetAdversary adversary(55);
  adversary.set_default_faults(acceptance_faults());
  adversary.add_partition({10 * kDelta, 40 * kDelta, {0, n + 0}});
  adversary.arm(s);
  net.set_adversary(&adversary);
  int done = 0;
  std::vector<std::unique_ptr<AbdClient>> clients;
  for (int i = 0; i < n; ++i)
    clients.push_back(std::make_unique<AbdClient>(net, i, n, test_policy()));
  for (int i = 0; i < n; ++i) {
    s.spawn([&clients, &done, i](sim::Env env) {
      return hardened_write_only(env, *clients[static_cast<std::size_t>(i)],
                                 1, i, &done);
    });
  }
  spawn_servers(s, net, n);
  s.run(4'000'000'000, [&] { return done == 3; });
  ASSERT_EQ(done, 3);

  std::size_t drops = 0, partitions = 0, recovery = 0;
  for (std::size_t i = 0; i < sink.size(); ++i) {
    switch (sink[i].kind) {
      case obs::EventKind::kNetDrop:
        ++drops;
        break;
      case obs::EventKind::kNetPartition:
        ++partitions;
        break;
      case obs::EventKind::kRetry:
      case obs::EventKind::kTimeout:
      case obs::EventKind::kBackoff:
        ++recovery;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(drops, adversary.drops());
  EXPECT_EQ(partitions, 2u) << "begin + heal markers";
  if (adversary.drops() > 0) {
    EXPECT_GT(recovery, 0u);
  }
}

}  // namespace
}  // namespace tfr::msg
