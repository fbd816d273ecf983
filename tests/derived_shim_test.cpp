// Tests for the derived wait-free objects (§1.4): multi-valued consensus,
// leader election, test-and-set, n-renaming, k-set consensus, the
// long-lived test-and-set and the universal construction — the shipped
// objects of derived/derived_rt.hpp, instantiated with ShimAtomics and run
// as fibers in a sim::Simulation (rt/shim/rt_exec.hpp).  The simulator
// schedules and times every shared access, so timing failures and crashes
// are injected deterministically, and histories carry simulated times for
// the linearizability checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/derived/derived_rt.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/monitor.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"
#include "tfr/spec/history.hpp"
#include "tfr/spec/linearizability.hpp"

namespace tfr::derived {
namespace {

using Shim = rtshim::ShimAtomics;
using MultiConsensus = rt::BasicRtMultiConsensus<Shim>;
using Election = rt::BasicRtElection<Shim>;
using TestAndSet = rt::BasicRtTestAndSet<Shim>;
using Renaming = rt::BasicRtRenaming<Shim>;
using SetConsensus = rt::BasicRtSetConsensus<Shim>;
using LongLivedTas = rt::BasicRtLongLivedTestAndSet<Shim>;
using Universal = rt::BasicRtUniversal<Shim>;

using sim::Duration;
using sim::make_fixed_timing;
using sim::make_uniform_timing;

constexpr Duration kDelta = 100;

std::unique_ptr<sim::TimingModel> faulty_timing(double p,
                                                Duration max_stretch) {
  auto injector = std::make_unique<sim::FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(p, max_stretch);
  return injector;
}

/// A simulation with a live shim execution.  Objects made by make() are
/// built while the execution is live (shim cells need it), and members
/// are destroyed in reverse order: the execution first, which unwinds any
/// thread still inside an object, then the objects, then the simulation.
class ShimRun {
 public:
  explicit ShimRun(std::unique_ptr<sim::TimingModel> timing,
                   std::uint64_t seed = 1)
      : sim_(std::move(timing), {.seed = seed}), exec_(sim_) {}

  template <class T, class... Args>
  T& make(Args&&... args) {
    auto object = std::make_shared<T>(std::forward<Args>(args)...);
    objects_.push_back(object);
    return *object;
  }

  /// Thread bodies run with pids 0, 1, ... in spawn order.
  void spawn(std::function<void()> body) {
    exec_.spawn_thread(std::move(body));
  }

  sim::Simulation& sim() { return sim_; }
  sim::Time now() const { return sim_.now(); }
  void run(sim::Time limit = sim::kTimeNever) { sim_.run(limit); }

 private:
  sim::Simulation sim_;
  std::vector<std::shared_ptr<void>> objects_;
  rtshim::RtExecution exec_;
};

// --- Multi-valued consensus ---------------------------------------------------

std::vector<std::int64_t> run_multivalue(
    const std::vector<std::int64_t>& inputs,
    std::unique_ptr<sim::TimingModel> timing, std::uint64_t seed, int bits) {
  ShimRun run(std::move(timing), seed);
  auto& mc = run.make<MultiConsensus>(
      MultiConsensus::Config{.delta = kDelta, .bits = bits});
  std::vector<std::int64_t> out(inputs.size(), -1);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    run.spawn([&mc, &out, &inputs, i] { out[i] = mc.propose(inputs[i]); });
  run.run(50'000'000);
  EXPECT_EQ(mc.decided(), out[0]);
  return out;
}

TEST(MultiValue, AgreementAndValidity) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const std::vector<std::int64_t> inputs{1000001, 999, 31337, 4};
    const auto out = run_multivalue(inputs, make_uniform_timing(1, kDelta),
                                    seed, 31);
    for (auto v : out) {
      EXPECT_EQ(v, out[0]) << "seed=" << seed;
      EXPECT_TRUE(std::count(inputs.begin(), inputs.end(), v) > 0)
          << "decided " << v;
    }
  }
}

TEST(MultiValue, SingleProposerGetsOwnValue) {
  const auto out = run_multivalue({123456}, make_fixed_timing(kDelta), 1, 31);
  EXPECT_EQ(out[0], 123456);
}

TEST(MultiValue, AgreementUnderTimingFailures) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const std::vector<std::int64_t> inputs{7, 7777, 123, 900000, 1};
    const auto out =
        run_multivalue(inputs, faulty_timing(0.15, 8 * kDelta), seed, 31);
    for (auto v : out) {
      EXPECT_EQ(v, out[0]) << "seed=" << seed;
      EXPECT_TRUE(std::count(inputs.begin(), inputs.end(), v) > 0);
    }
  }
}

TEST(MultiValue, ZeroAndMaxValues) {
  const std::vector<std::int64_t> inputs{0, (std::int64_t{1} << 31) - 1};
  const auto out =
      run_multivalue(inputs, make_uniform_timing(1, kDelta), 3, 31);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_TRUE(out[0] == inputs[0] || out[0] == inputs[1]);
}

TEST(MultiValue, RejectsOutOfRange) {
  ShimRun run(make_fixed_timing(1));
  auto& mc =
      run.make<MultiConsensus>(MultiConsensus::Config{.delta = kDelta,
                                                      .bits = 4});
  run.spawn([&mc] { mc.propose(16); });  // needs 5 bits
  EXPECT_THROW(run.run(), ContractViolation);
}

// --- Election -------------------------------------------------------------------

/// Thread i elects with identity i; winner[i] is the leader it learns.
void spawn_electors(ShimRun& run, Election& election,
                    std::vector<int>& winner) {
  for (std::size_t i = 0; i < winner.size(); ++i) {
    run.spawn([&election, &winner, i] {
      winner[i] = election.elect(static_cast<int>(i));
    });
  }
}

TEST(Election, ExactlyOneLeaderAmongParticipants) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ShimRun run(make_uniform_timing(1, kDelta), seed);
    auto& election = run.make<Election>(kDelta);
    std::vector<int> winner(6, -1);
    spawn_electors(run, election, winner);
    run.run(50'000'000);
    for (int w : winner) {
      EXPECT_EQ(w, winner[0]) << "seed=" << seed;
      EXPECT_GE(w, 0);
      EXPECT_LT(w, 6);
    }
    EXPECT_EQ(election.leader(), winner[0]);
  }
}

TEST(Election, SoloElectsItself) {
  ShimRun run(make_fixed_timing(kDelta));
  auto& election = run.make<Election>(kDelta);
  int winner = -1;
  run.spawn([&election, &winner] { winner = election.elect(0); });
  run.run();
  EXPECT_EQ(winner, 0);
}

TEST(Election, LeaderSurvivesTimingFailures) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ShimRun run(faulty_timing(0.2, 8 * kDelta), seed);
    auto& election = run.make<Election>(kDelta);
    std::vector<int> winner(4, -1);
    spawn_electors(run, election, winner);
    run.run(100'000'000);
    for (int w : winner) EXPECT_EQ(w, winner[0]) << "seed=" << seed;
  }
}

TEST(Election, WaitFreeUnderCrashes) {
  ShimRun run(make_uniform_timing(1, kDelta), 4);
  auto& election = run.make<Election>(kDelta);
  std::vector<int> winner(4, -1);
  spawn_electors(run, election, winner);
  run.sim().crash_after_accesses(0, 10);
  run.sim().crash_after_accesses(1, 25);
  run.run(100'000'000);
  EXPECT_EQ(winner[0], -1);  // crashed mid-election
  EXPECT_EQ(winner[1], -1);
  EXPECT_GE(winner[2], 0);
  EXPECT_EQ(winner[2], winner[3]);
}

// --- Test-and-set ----------------------------------------------------------------

TEST(TestAndSet, ExactlyOneWinner) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ShimRun run(make_uniform_timing(1, kDelta), seed);
    auto& tas = run.make<TestAndSet>(kDelta);
    std::vector<int> got(5, -1);
    for (int i = 0; i < 5; ++i) {
      run.spawn([&tas, &got, i] {
        got[static_cast<std::size_t>(i)] = tas.test_and_set(i);
      });
    }
    run.run(50'000'000);
    EXPECT_EQ(std::count(got.begin(), got.end(), 0), 1) << "seed=" << seed;
    EXPECT_EQ(std::count(got.begin(), got.end(), 1), 4) << "seed=" << seed;
    EXPECT_EQ(tas.peek(), 1);
  }
}

TEST(TestAndSet, HistoryIsLinearizable) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ShimRun run(make_uniform_timing(1, kDelta), seed);
    auto& tas = run.make<TestAndSet>(kDelta);
    spec::History history;
    for (int i = 0; i < 4; ++i) {
      run.spawn([&run, &tas, &history, i] {
        const auto token = history.invoke(i, "tas", 0, run.now());
        const int r = tas.test_and_set(i);
        history.respond(token, r, run.now());
      });
    }
    run.run(50'000'000);
    const auto ops = history.completed();
    ASSERT_EQ(ops.size(), 4u);
    const auto verdict = spec::check_linearizable(ops, spec::TasModel{});
    EXPECT_TRUE(verdict.linearizable) << "seed=" << seed;
  }
}

// --- Renaming ---------------------------------------------------------------------

std::vector<int> run_renaming(ShimRun& run, Renaming& renaming,
                              int participants) {
  std::vector<int> name(static_cast<std::size_t>(participants), -1);
  for (int i = 0; i < participants; ++i) {
    run.spawn([&renaming, &name, i] {
      name[static_cast<std::size_t>(i)] = renaming.acquire(i);
    });
  }
  run.run(100'000'000);
  return name;
}

TEST(Renaming, NamesAreUniqueAndTight) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const int n = 6;
    ShimRun run(make_uniform_timing(1, kDelta), seed);
    const std::vector<int> name =
        run_renaming(run, run.make<Renaming>(kDelta, n), n);
    std::set<int> unique(name.begin(), name.end());
    EXPECT_EQ(unique.size(), static_cast<std::size_t>(n)) << "seed=" << seed;
    for (int v : name) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, n);
    }
  }
}

TEST(Renaming, SubsetOfParticipantsUsesPrefixOfNames) {
  // Three participants in a namespace sized for six: tight renaming means
  // they still end up with names 0..2 (a slot is only skipped by losing it
  // to a distinct winner).
  ShimRun run(make_uniform_timing(1, kDelta), 2);
  const std::vector<int> name =
      run_renaming(run, run.make<Renaming>(kDelta, 6), 3);
  std::set<int> unique(name.begin(), name.end());
  EXPECT_EQ(unique, (std::set<int>{0, 1, 2}));
}

TEST(Renaming, OwnersMatchAcquiredNames) {
  const int n = 4;
  ShimRun run(make_uniform_timing(1, kDelta), 8);
  auto& renaming = run.make<Renaming>(kDelta, n);
  const std::vector<int> name = run_renaming(run, renaming, n);
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(renaming.owner(name[static_cast<std::size_t>(i)]), i);
}

// --- Universal construction ----------------------------------------------------------

Universal& make_counter(ShimRun& run, int n) {
  return run.make<Universal>(kDelta, n, [] {
    return std::make_unique<CounterReplica>();
  });
}

/// Thread i adds `amount` `count` times; last[i] is the last value it saw.
void spawn_counter_adds(ShimRun& run, Universal& counter, int count,
                        int amount, std::vector<std::int64_t>& last) {
  for (std::size_t i = 0; i < last.size(); ++i) {
    run.spawn([&counter, &last, i, count, amount] {
      for (int k = 0; k < count; ++k)
        last[i] = counter.invoke(static_cast<int>(i), CounterReplica::kAdd,
                                 amount);
    });
  }
}

TEST(Universal, CounterSumsAllIncrements) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ShimRun run(make_uniform_timing(1, kDelta), seed);
    Universal& universal = make_counter(run, 4);
    std::vector<std::int64_t> last(4, -1);
    spawn_counter_adds(run, universal, 3, 10, last);
    run.run(500'000'000);
    // 12 increments of 10: some caller observed the final value 120.
    EXPECT_EQ(*std::max_element(last.begin(), last.end()), 120)
        << "seed=" << seed;
    EXPECT_EQ(universal.log_length(), 12u) << "seed=" << seed;
  }
}

TEST(Universal, QueueHistoryIsLinearizable) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    ShimRun run(make_uniform_timing(1, kDelta), seed);
    auto& universal = run.make<Universal>(kDelta, 3, [] {
      return std::make_unique<QueueReplica>();
    });
    spec::History history;
    for (int i = 0; i < 3; ++i) {
      run.spawn([&run, &universal, &history, i] {
        for (int k = 0; k < 2; ++k) {
          const int arg = i * 10 + k;
          auto token = history.invoke(i, "enqueue", arg, run.now());
          const auto r = universal.invoke(i, QueueReplica::kEnqueue, arg);
          history.respond(token, r, run.now());
          token = history.invoke(i, "dequeue", 0, run.now());
          const auto d = universal.invoke(i, QueueReplica::kDequeue, 0);
          history.respond(token, d, run.now());
        }
      });
    }
    run.run(500'000'000);
    const auto ops = history.completed();
    ASSERT_EQ(ops.size(), 12u);
    const auto verdict = spec::check_linearizable(ops, spec::QueueModel{});
    EXPECT_TRUE(verdict.linearizable) << "seed=" << seed;
  }
}

TEST(Universal, ResultsComeFromOwnOperations) {
  ShimRun run(make_fixed_timing(kDelta));
  Universal& universal = make_counter(run, 2);
  std::int64_t got = -1;
  run.spawn([&universal, &got] {
    universal.invoke(0, CounterReplica::kAdd, 5);
    universal.invoke(0, CounterReplica::kAdd, 7);
    got = universal.invoke(0, CounterReplica::kGet, 0);
  });
  run.run(100'000'000);
  EXPECT_EQ(got, 12);
}

TEST(Universal, SafeUnderTimingFailures) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    ShimRun run(faulty_timing(0.1, 8 * kDelta), seed);
    Universal& universal = make_counter(run, 3);
    std::vector<std::int64_t> last(3, -1);
    spawn_counter_adds(run, universal, 2, 1, last);
    run.run(2'000'000'000);
    EXPECT_EQ(*std::max_element(last.begin(), last.end()), 6)
        << "seed=" << seed;
  }
}

TEST(OpCodecTest, RoundTripsFields) {
  const auto op = OpCodec::encode(37, 1234, 7, 99);
  EXPECT_EQ(OpCodec::pid(op), 37);
  EXPECT_EQ(OpCodec::seq(op), 1234);
  EXPECT_EQ(OpCodec::opcode(op), 7);
  EXPECT_EQ(OpCodec::arg(op), 99);
  EXPECT_THROW(OpCodec::encode(-1, 1, 1, 1), ContractViolation);
  EXPECT_THROW(OpCodec::encode(1, 0, 1, 1), ContractViolation);
}

// --- k-set consensus ---------------------------------------------------------------

std::vector<std::int64_t> run_set_consensus(
    ShimRun& run, int k, const std::vector<std::int64_t>& inputs,
    sim::Time limit) {
  auto& sc = run.make<SetConsensus>(kDelta, k);
  std::vector<std::int64_t> out(inputs.size(), -1);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    run.spawn([&sc, &out, &inputs, i] {
      out[i] = sc.propose(static_cast<int>(i), inputs[i]);
    });
  }
  run.run(limit);
  return out;
}

TEST(SetConsensus, AtMostKValuesAndValidity) {
  for (const int k : {1, 2, 3}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      std::vector<std::int64_t> inputs;
      for (int i = 0; i < 9; ++i) inputs.push_back(100 + i);
      ShimRun run(make_uniform_timing(1, kDelta), seed);
      const auto out = run_set_consensus(run, k, inputs, 100'000'000);
      std::set<std::int64_t> decided(out.begin(), out.end());
      EXPECT_LE(decided.size(), static_cast<std::size_t>(k))
          << "k=" << k << " seed=" << seed;
      for (auto v : out)
        EXPECT_TRUE(std::count(inputs.begin(), inputs.end(), v) > 0);
    }
  }
}

TEST(SetConsensus, K1DegeneratesToConsensus) {
  ShimRun run(make_uniform_timing(1, kDelta), 7);
  const std::vector<std::int64_t> inputs{10, 11, 12, 13, 14};
  const auto out = run_set_consensus(run, 1, inputs, 100'000'000);
  for (auto v : out) EXPECT_EQ(v, out[0]);
}

TEST(SetConsensus, SafeUnderTimingFailures) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    ShimRun run(faulty_timing(0.15, 10 * kDelta), seed);
    const std::vector<std::int64_t> inputs{50, 51, 52, 53, 54, 55};
    const auto out = run_set_consensus(run, 2, inputs, 500'000'000);
    std::set<std::int64_t> decided(out.begin(), out.end());
    EXPECT_LE(decided.size(), 2u) << "seed=" << seed;
    for (auto v : out) EXPECT_GE(v, 50);  // every proposer decided
  }
}

// --- Long-lived test-and-set ------------------------------------------------------

/// `n` threads each take the long-lived TAS as a lock `sessions` times,
/// backing off 10 ticks between attempts and holding it for 20.
void spawn_lock_sessions(ShimRun& run, LongLivedTas& tas,
                         sim::MutexMonitor& mon, int n, int sessions) {
  for (int i = 0; i < n; ++i) {
    run.spawn([&run, &tas, &mon, i, sessions] {
      for (int s = 0; s < sessions; ++s) {
        mon.enter_entry(i, run.now());
        while (tas.test_and_set(i) != 0) Shim::delay(10);
        mon.enter_cs(i, run.now());
        Shim::delay(20);
        mon.exit_cs(i, run.now());
        tas.reset(i);
        mon.leave_exit(i, run.now());
      }
    });
  }
}

TEST(LongLivedTas, WorksAsMutexLock) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    ShimRun run(make_uniform_timing(1, kDelta), seed);
    auto& tas = run.make<LongLivedTas>(kDelta, 3);
    sim::MutexMonitor mon;
    spawn_lock_sessions(run, tas, mon, 3, 4);
    run.run(1'000'000'000);
    EXPECT_EQ(mon.mutual_exclusion_violations(), 0u) << "seed=" << seed;
    EXPECT_EQ(mon.cs_entries(), 12u) << "seed=" << seed;
    EXPECT_GE(tas.generations(), 12u);
  }
}

TEST(LongLivedTas, MutexHoldsUnderTimingFailures) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    ShimRun run(faulty_timing(0.1, 10 * kDelta), seed);
    auto& tas = run.make<LongLivedTas>(kDelta, 3);
    sim::MutexMonitor mon;
    spawn_lock_sessions(run, tas, mon, 3, 3);
    run.run(4'000'000'000);
    EXPECT_EQ(mon.mutual_exclusion_violations(), 0u) << "seed=" << seed;
    EXPECT_EQ(mon.cs_entries(), 9u) << "seed=" << seed;
  }
}

TEST(LongLivedTas, OneWinnerPerGeneration) {
  ShimRun run(make_uniform_timing(1, kDelta), 3);
  auto& tas = run.make<LongLivedTas>(kDelta, 4);
  std::vector<int> got(4, -1);
  for (int i = 0; i < 4; ++i) {
    run.spawn([&tas, &got, i] {
      got[static_cast<std::size_t>(i)] = tas.test_and_set(i);
    });
  }
  run.run(100'000'000);
  EXPECT_EQ(std::count(got.begin(), got.end(), 0), 1);
  EXPECT_EQ(std::count(got.begin(), got.end(), 1), 3);
  EXPECT_EQ(tas.generations(), 1u);
}

TEST(LongLivedTas, ResetByNonWinnerRejected) {
  ShimRun run(make_fixed_timing(10));
  auto& tas = run.make<LongLivedTas>(kDelta, 1);
  run.spawn([&tas] { tas.reset(0); });  // never won anything
  EXPECT_THROW(run.run(), ContractViolation);
}

// --- Pins against the retired simulator twins -------------------------------------

// Per-process shared accesses and completion time of E11's failure-free
// cells (uniform 1..Δ timing, seeds 0..7), as the coroutine transcription
// of these objects produced them before the shim ran the shipped code.
// The shipped code must take exactly the same steps.
struct Pinned {
  std::vector<std::uint64_t> accesses;
  sim::Time completion;
};

template <class Object, class Body, class... Args>
void expect_pinned(const std::vector<Pinned>& pins, int n, Body body,
                   Args... object_args) {
  for (std::uint64_t seed = 0; seed < pins.size(); ++seed) {
    ShimRun run(make_uniform_timing(1, kDelta), seed);
    auto& object = run.make<Object>(object_args...);
    for (int i = 0; i < n; ++i)
      run.spawn([&object, body, i] { body(object, i); });
    run.run(500'000'000);
    std::vector<std::uint64_t> accesses;
    for (int i = 0; i < n; ++i)
      accesses.push_back(run.sim().stats(i).accesses());
    EXPECT_EQ(accesses, pins[seed].accesses) << "seed=" << seed;
    EXPECT_EQ(run.now(), pins[seed].completion) << "seed=" << seed;
  }
}

TEST(RtShimDerived, ElectionN2MatchesPinnedAccesses) {
  const std::vector<Pinned> pins{
      {{185, 179}, 9595}, {{189, 190}, 9522}, {{183, 193}, 9487},
      {{187, 190}, 9451}, {{195, 177}, 9520}, {{189, 187}, 9803},
      {{190, 190}, 9375}, {{178, 183}, 9055}};
  expect_pinned<Election>(
      pins, 2, [](Election& e, int id) { e.elect(id); }, kDelta);
}

TEST(RtShimDerived, RenamingN8MatchesPinnedAccesses) {
  const std::vector<Pinned> pins{
      {{467, 1391, 643, 347, 1064, 159, 858, 1195}, 72178},
      {{868, 1233, 1402, 325, 157, 1058, 654, 518}, 73485},
      {{1214, 857, 698, 1007, 173, 1366, 504, 344}, 72016},
      {{155, 341, 1390, 1027, 1202, 692, 496, 848}, 73347},
      {{1395, 178, 1042, 865, 719, 1210, 527, 326}, 72963},
      {{855, 1240, 649, 493, 154, 1052, 1399, 327}, 72251},
      {{333, 1057, 877, 167, 1213, 472, 674, 1432}, 74460},
      {{864, 1022, 1388, 336, 498, 663, 1209, 160}, 72422}};
  expect_pinned<Renaming>(
      pins, 8, [](Renaming& r, int id) { r.acquire(id); }, kDelta, 8);
}

}  // namespace
}  // namespace tfr::derived
