// Tests for the mcheck stateless model checker: exhaustive verification
// of the paper's algorithms on small configurations, the known Fischer
// counterexample, byte-identical counterexample replay, and the
// DPOR-vs-naive pruning regression.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "tfr/core/consensus_rt.hpp"
#include "tfr/core/consensus_sim.hpp"
#include "tfr/mcheck/explorer.hpp"
#include "tfr/mcheck/rt_scenarios.hpp"
#include "tfr/mcheck/scenarios.hpp"
#include "tfr/obs/replay.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr {
namespace {

mcheck::ExploreConfig small_config() {
  mcheck::ExploreConfig config;
  config.delta = 2;
  config.failure_cost = 5;
  config.max_failures = 1;
  config.slow_budget = 1;
  return config;
}

// Algorithm 1, n=2, inputs {0,1}, round bound 2: agreement and validity
// hold on every execution within the bounds, every failure-free
// execution decides before round 2, and the DFS runs to completion.
TEST(McheckConsensus, ExhaustiveNoViolation) {
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_consensus_scenario({}), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.executions, 1000u);
  // With n=2 the sleep-set reduction manifests as whole executions cut at
  // a node whose every option is asleep.
  EXPECT_GT(result.stats.sleep_blocked, 0u);
}

// The sleep-set reduction must explore strictly fewer executions than
// naive DFS while reaching the same verdict.  A slow-access budget of 0
// keeps the naive state space small enough for a unit test.
TEST(McheckConsensus, SleepSetsPruneAgainstNaiveDfs) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = 0;

  const mcheck::CheckResult reduced =
      mcheck::check(mcheck::make_consensus_scenario({}), config);
  config.reduction = mcheck::Reduction::kNone;
  const mcheck::CheckResult naive =
      mcheck::check(mcheck::make_consensus_scenario({}), config);

  EXPECT_FALSE(reduced.violation);
  EXPECT_FALSE(naive.violation);
  EXPECT_TRUE(reduced.stats.complete);
  EXPECT_TRUE(naive.stats.complete);
  EXPECT_LT(reduced.stats.executions, naive.stats.executions);
  EXPECT_LT(reduced.stats.states, naive.stats.states);
  EXPECT_EQ(naive.stats.sleep_blocked, 0u);
}

// Source-set DPOR must prune strictly beyond plain sleep sets — same
// clean verdict, fewer executions, and nonzero dependent-access race and
// source-pruning activity.
TEST(McheckConsensus, SourceDporPrunesBeyondSleepSets) {
  mcheck::ExploreConfig config = small_config();

  const mcheck::CheckResult dpor =
      mcheck::check(mcheck::make_consensus_scenario({}), config);
  config.reduction = mcheck::Reduction::kSleepSets;
  const mcheck::CheckResult sleep =
      mcheck::check(mcheck::make_consensus_scenario({}), config);

  EXPECT_FALSE(dpor.violation);
  EXPECT_FALSE(sleep.violation);
  EXPECT_TRUE(dpor.stats.complete);
  EXPECT_TRUE(sleep.stats.complete);
  EXPECT_LT(dpor.stats.executions, sleep.stats.executions);
  EXPECT_GT(dpor.stats.races_detected, 0u);
  EXPECT_GT(dpor.stats.source_pruned, 0u);
  EXPECT_EQ(sleep.stats.races_detected, 0u);
  EXPECT_EQ(sleep.stats.source_pruned, 0u);
}

// Same ablation on a mutex scenario: Algorithm 3's much larger tree is
// where the reduction pays (33k -> 16k executions at n = 2).
TEST(McheckTfrMutex, SourceDporPrunesBeyondSleepSets) {
  mcheck::MutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::MutexScenarioConfig::Algorithm::kTfrStarvationFree;
  mcheck::ExploreConfig config = small_config();

  const mcheck::CheckResult dpor =
      mcheck::check(mcheck::make_mutex_scenario(scenario), config);
  config.reduction = mcheck::Reduction::kSleepSets;
  const mcheck::CheckResult sleep =
      mcheck::check(mcheck::make_mutex_scenario(scenario), config);

  EXPECT_FALSE(dpor.violation);
  EXPECT_FALSE(sleep.violation);
  EXPECT_TRUE(dpor.stats.complete);
  EXPECT_TRUE(sleep.stats.complete);
  EXPECT_LT(dpor.stats.executions, sleep.stats.executions);
}

// Bare Fischer (Algorithm 2) under a single timing failure: the explorer
// must find the known mutual-exclusion violation (§3.1) and emit a
// counterexample that replays byte-identically through the trace layer.
TEST(McheckFischer, FindsKnownViolationAndReplays) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = -1;
  const mcheck::CheckScenario scenario = mcheck::make_mutex_scenario({});

  const mcheck::CheckResult result = mcheck::check(scenario, config);
  ASSERT_TRUE(result.violation);
  EXPECT_EQ(result.what, "mutual exclusion violated");
  EXPECT_FALSE(result.counterexample.timing.script.empty());
  EXPECT_FALSE(result.counterexample.timing.schedule.empty());

  // Golden replay: the recorded trace must reproduce byte-for-byte.
  const obs::ReplayResult replayed = obs::replay(
      result.counterexample,
      mcheck::counterexample_scenario(scenario, config));
  EXPECT_TRUE(replayed.identical)
      << "first divergence at event " << replayed.first_divergence;

  // And the re-run must reproduce the violation itself.
  const mcheck::CheckOutcome reproduced =
      mcheck::run_recorded(result.counterexample, scenario, config);
  EXPECT_FALSE(reproduced.ok);
  EXPECT_EQ(reproduced.what, "mutual exclusion violated");
}

// The counterexample survives serialization: save bytes, load them back,
// and the loaded run still replays byte-identically.
TEST(McheckFischer, CounterexampleSerializationRoundtrip) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = -1;
  const mcheck::CheckScenario scenario = mcheck::make_mutex_scenario({});
  const mcheck::CheckResult result = mcheck::check(scenario, config);
  ASSERT_TRUE(result.violation);

  const std::string bytes = result.counterexample.to_bytes();
  const std::optional<obs::RecordedRun> loaded =
      obs::RecordedRun::from_bytes(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->timing.kind, obs::TimingSpec::Kind::kScripted);
  EXPECT_EQ(loaded->timing.script, result.counterexample.timing.script);
  EXPECT_EQ(loaded->timing.schedule, result.counterexample.timing.schedule);
  EXPECT_EQ(loaded->trace, result.counterexample.trace);

  const obs::ReplayResult replayed = obs::replay(
      *loaded, mcheck::counterexample_scenario(scenario, config));
  EXPECT_TRUE(replayed.identical);
}

// Without a timing failure budget Fischer is safe: the same scenario
// explored with max_failures = 0 must come up clean — the violation
// really is caused by the injected failure.
TEST(McheckFischer, SafeWithoutTimingFailures) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = -1;
  config.max_failures = 0;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_mutex_scenario({}), config);
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
}

// Algorithm 3 (Fischer filter over a starvation-free asynchronous A)
// keeps mutual exclusion even under the timing failure that breaks bare
// Fischer (Theorem 3.3's safety half), exhaustively for n=2.
TEST(McheckTfrMutex, ExhaustiveNoViolation) {
  mcheck::MutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::MutexScenarioConfig::Algorithm::kTfrStarvationFree;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.sleep_blocked, 0u);
}

// A scripted TimingSpec (the counterexample format) roundtrips through
// the flat serialization, including the schedule and per-access costs.
TEST(McheckReplayFormat, ScriptedSpecRoundtrip) {
  obs::RecordedRun run;
  run.seed = 42;
  run.timing.kind = obs::TimingSpec::Kind::kScripted;
  run.timing.lo = 1;
  run.timing.delta = 2;
  run.timing.script = {{0, 1}, {1, 5}, {0, 2}};
  run.timing.schedule = {0, 1, 1, 0};
  run.trace = "not-a-real-trace";

  const std::optional<obs::RecordedRun> loaded =
      obs::RecordedRun::from_bytes(run.to_bytes());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, 42u);
  EXPECT_EQ(loaded->timing.kind, obs::TimingSpec::Kind::kScripted);
  EXPECT_EQ(loaded->timing.script, run.timing.script);
  EXPECT_EQ(loaded->timing.schedule, run.timing.schedule);
  EXPECT_EQ(loaded->trace, run.trace);
  // A scripted spec never wraps a FailureInjector: the failures are in
  // the script itself.
  EXPECT_FALSE(loaded->timing.has_injector());
}

// The exploration honours its max_executions bound and says so.
TEST(McheckBounds, AbortsAtMaxExecutions) {
  mcheck::ExploreConfig config = small_config();
  config.max_executions = 10;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_consensus_scenario({}), config);
  EXPECT_FALSE(result.stats.complete);
  EXPECT_EQ(result.stats.executions, 10u);
}

// --- parallel exploration: jobs > 1 must be indistinguishable ------------

void expect_stats_equal(const mcheck::ExploreStats& parallel,
                        const mcheck::ExploreStats& serial) {
  EXPECT_EQ(parallel.executions, serial.executions);
  EXPECT_EQ(parallel.states, serial.states);
  EXPECT_EQ(parallel.transitions, serial.transitions);
  EXPECT_EQ(parallel.sched_choice_points, serial.sched_choice_points);
  EXPECT_EQ(parallel.cost_choice_points, serial.cost_choice_points);
  EXPECT_EQ(parallel.sleep_pruned, serial.sleep_pruned);
  EXPECT_EQ(parallel.sleep_blocked, serial.sleep_blocked);
  EXPECT_EQ(parallel.races_detected, serial.races_detected);
  EXPECT_EQ(parallel.source_pruned, serial.source_pruned);
  EXPECT_EQ(parallel.truncated, serial.truncated);
  EXPECT_EQ(parallel.complete, serial.complete);
}

/// Runs the scenario serially and at jobs {2, 4}; every parallel result
/// must match the serial one exactly — verdict, the full ExploreStats,
/// and (for violations) the counterexample artifact byte-for-byte.
/// Returns the serial result.
mcheck::CheckResult expect_parallel_equivalent(
    const mcheck::CheckScenario& scenario, const mcheck::ExploreConfig& base) {
  mcheck::ExploreConfig config = base;
  config.jobs = 1;
  const mcheck::CheckResult serial = mcheck::check(scenario, config);
  for (const int jobs : {2, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    config.jobs = jobs;
    const mcheck::CheckResult parallel = mcheck::check(scenario, config);
    EXPECT_EQ(parallel.violation, serial.violation);
    EXPECT_EQ(parallel.what, serial.what);
    expect_stats_equal(parallel.stats, serial.stats);
    if (serial.violation) {
      EXPECT_EQ(parallel.counterexample.to_bytes(),
                serial.counterexample.to_bytes());
    }
  }
  return serial;
}

// Algorithm 1 (clean verdict): the work-sharing frontier partitions a
// sleep-set-reduced tree; merged stats must equal the serial count of
// every event class, including the ones incurred at prefix depths.
TEST(McheckParallel, ConsensusMatchesSerial) {
  expect_parallel_equivalent(mcheck::make_consensus_scenario({}),
                             small_config());
}

// Bare Fischer (violating): the merged result must pick the DFS-least
// violating execution — the same one the serial run finds first — and
// hand back a byte-identical counterexample, no matter which worker
// reported a violation first.
TEST(McheckParallel, FischerViolationMatchesSerial) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = -1;
  expect_parallel_equivalent(mcheck::make_mutex_scenario({}), config);
}

// Algorithm 3 over starvation-free A (clean, heavy sleep-set activity).
TEST(McheckParallel, TfrMutexMatchesSerial) {
  mcheck::MutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::MutexScenarioConfig::Algorithm::kTfrStarvationFree;
  expect_parallel_equivalent(mcheck::make_mutex_scenario(scenario),
                             small_config());
}

// ABD with a crashed minority (clean, message-passing over channel
// registers, sleep-blocked probes at shallow depths).
TEST(McheckParallel, AbdMatchesSerial) {
  mcheck::ExploreConfig config = small_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  config.max_steps = 600;
  expect_parallel_equivalent(mcheck::make_abd_scenario({}), config);
}

// The fast-read ABD variant: the one-round read prunes the schedule tree
// (no write-back round on uniform-tag quorums), and the pruned tree must
// still partition deterministically across workers.
TEST(McheckParallel, AbdFastReadMatchesSerial) {
  mcheck::ExploreConfig config = small_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  config.max_steps = 600;
  mcheck::AbdScenarioConfig scenario;
  scenario.variant = msg::RegisterVariant::kPerPeerFastRead;
  expect_parallel_equivalent(mcheck::make_abd_scenario(scenario), config);
}

// Every explored schedule of the fast-read variant linearizes, the space
// is exhausted, and it is strictly smaller than stock's (the skipped
// write-back removes interleavings, never adds verdicts).
TEST(McheckParallel, AbdFastReadShrinksTheScheduleSpace) {
  mcheck::ExploreConfig config = small_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  config.max_steps = 600;
  config.jobs = 1;
  const mcheck::CheckResult stock =
      mcheck::check(mcheck::make_abd_scenario({}), config);
  mcheck::AbdScenarioConfig fast_scenario;
  fast_scenario.variant = msg::RegisterVariant::kPerPeerFastRead;
  const mcheck::CheckResult fast =
      mcheck::check(mcheck::make_abd_scenario(fast_scenario), config);
  EXPECT_FALSE(stock.violation);
  EXPECT_FALSE(fast.violation);
  EXPECT_TRUE(stock.stats.complete);
  EXPECT_TRUE(fast.stats.complete);
  EXPECT_LT(fast.stats.executions, stock.stats.executions);
}

// The gate splits the tree for every Reduction, not only kSourceDpor:
// plain sleep sets and the naive DFS must enumerate, fork and merge to
// the serial stats too.
TEST(McheckParallel, NonDporReductionsMatchSerial) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = 0;
  const mcheck::CheckScenario scenario = mcheck::make_consensus_scenario({});
  config.reduction = mcheck::Reduction::kSleepSets;
  const mcheck::CheckResult sleep_sets =
      expect_parallel_equivalent(scenario, config);
  EXPECT_FALSE(sleep_sets.violation);
  EXPECT_EQ(sleep_sets.stats.executions, 302u);
  config.reduction = mcheck::Reduction::kNone;
  const mcheck::CheckResult naive =
      expect_parallel_equivalent(scenario, config);
  EXPECT_FALSE(naive.violation);
  EXPECT_EQ(naive.stats.executions, 122944u);
}

// max_executions is documented as per-worker-subtree in parallel mode;
// hitting it in any subtree must still be reported as an incomplete
// exploration.
TEST(McheckParallel, MaxExecutionsReportsIncomplete) {
  mcheck::ExploreConfig config = small_config();
  config.max_executions = 10;
  config.jobs = 2;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_consensus_scenario({}), config);
  EXPECT_FALSE(result.stats.complete);
}

// --- real-thread scenarios through the atomic interposition seam --------
//
// Suite naming is deliberate: McheckRt* suites fork worker processes
// (jobs > 1) and stay outside the TSan ctest regex; RtShim* suites run
// everything in-process so the TSan job exercises the fiber switches
// between the pumps and the algorithm bodies.

mcheck::ExploreConfig rt_eventcount_config() {
  mcheck::ExploreConfig config = small_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  return config;
}

// Real-thread Fischer (rt::BasicFischerRt over ShimAtomics, the same
// source production instantiates with std::atomic) under one timing
// failure: the §3.1 violation must surface through the seam, and the
// counterexample must replay byte-identically.
TEST(McheckRtFischer, FindsKnownViolationAndReplays) {
  const mcheck::CheckScenario scenario = mcheck::make_rt_mutex_scenario({});
  const mcheck::ExploreConfig config = small_config();

  const mcheck::CheckResult result = mcheck::check(scenario, config);
  ASSERT_TRUE(result.violation);
  EXPECT_EQ(result.what, "mutual exclusion violated (CS occupancy overlap)");
  EXPECT_FALSE(result.counterexample.timing.script.empty());
  EXPECT_FALSE(result.counterexample.timing.schedule.empty());

  const obs::ReplayResult replayed = obs::replay(
      result.counterexample,
      mcheck::counterexample_scenario(scenario, config));
  EXPECT_TRUE(replayed.identical)
      << "first divergence at event " << replayed.first_divergence;

  const mcheck::CheckOutcome reproduced =
      mcheck::run_recorded(result.counterexample, scenario, config);
  EXPECT_FALSE(reproduced.ok);
  EXPECT_EQ(reproduced.what, result.what);
}

// Algorithm 1 as shipped (rt::BasicRtConsensus over ShimAtomics, the
// round loop RtConsensus and RtMultiConsensus run in production): clean
// and complete under one timing failure, and jobs {2, 4} reproduce the
// serial verdict and every ExploreStats counter.
TEST(McheckRtConsensus, ExhaustiveNoViolationAtAnyJobs) {
  const mcheck::CheckResult serial = expect_parallel_equivalent(
      mcheck::make_rt_consensus_scenario(), small_config());
  EXPECT_FALSE(serial.violation) << serial.what;
  EXPECT_TRUE(serial.stats.complete);
  EXPECT_GT(serial.stats.executions, 1000u);
}

// The futex-class AtomicMutex (wait/notify protocol) verifies clean and
// exhaustively through the seam under the same failure budget.
TEST(McheckRtAtomicLock, ExhaustiveNoViolation) {
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kAtomicLock;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_rt_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
}

// Algorithm 3 (tfr starvation-free mutex), real-thread flavour: clean and
// complete, the rt twin of McheckTfrMutex.ExhaustiveNoViolation.
TEST(McheckRtTfrMutex, ExhaustiveNoViolation) {
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::RtMutexScenarioConfig::Algorithm::kTfrStarvationFree;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_rt_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
}

// EventCount with the epoch published before the state write: the seam
// must find the lost-wakeup interleaving (both threads parked, simulation
// idle); the documented publication order must verify clean.
TEST(McheckRtEventCount, TornEpochLosesWakeupCorrectOrderDoesNot) {
  const mcheck::CheckResult torn = mcheck::check(
      mcheck::make_rt_eventcount_scenario({}), rt_eventcount_config());
  ASSERT_TRUE(torn.violation);
  EXPECT_EQ(torn.what, "lost wakeup: threads parked with the simulation idle");

  mcheck::RtEventCountScenarioConfig fixed;
  fixed.torn_epoch = false;
  const mcheck::CheckResult clean = mcheck::check(
      mcheck::make_rt_eventcount_scenario(fixed), rt_eventcount_config());
  EXPECT_FALSE(clean.violation) << clean.what;
  EXPECT_TRUE(clean.stats.complete);
}

// Forked-jobs parity for the rt scenarios: a forked worker inherits the
// fiber stack free list as plain memory, and jobs {2, 4} reproduce the
// serial verdict, stats and counterexample bytes exactly.
TEST(McheckRtParallel, FischerRtViolationMatchesSerial) {
  expect_parallel_equivalent(mcheck::make_rt_mutex_scenario({}),
                             small_config());
}

TEST(McheckRtParallel, AtomicLockMatchesSerial) {
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kAtomicLock;
  expect_parallel_equivalent(mcheck::make_rt_mutex_scenario(scenario),
                             small_config());
}

TEST(McheckRtParallel, EventCountTornMatchesSerial) {
  expect_parallel_equivalent(mcheck::make_rt_eventcount_scenario({}),
                             rt_eventcount_config());
}

// A solo propose through the seam is Algorithm 1's contention-free fast
// path: 7 shared accesses and no delay, the step count the sim twin
// takes.  Growing the register arrays constructs cells already holding
// their initial value, so segment allocation adds no explored step.
TEST(RtShimConsensus, SoloProposeTakesTheSimTwinsSevenSteps) {
  sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1));
  rtshim::RtExecution exec(simulation);
  rt::BasicRtConsensus<rtshim::ShimAtomics> consensus({.delta = 2});
  rt::BasicRtConsensus<rtshim::ShimAtomics>::Result result;
  exec.spawn_thread([&] { result = consensus.propose(1); });
  simulation.run();

  ASSERT_TRUE(simulation.all_done());
  EXPECT_EQ(result.value, 1);
  EXPECT_EQ(result.steps, 7u);
  EXPECT_EQ(simulation.stats(0).accesses(), 7u);
  EXPECT_EQ(simulation.stats(0).delays, 0u);

  const core::ConsensusOutcome twin =
      core::run_consensus({1}, 2, std::make_unique<sim::FixedTiming>(1));
  ASSERT_EQ(twin.steps.size(), 1u);
  EXPECT_EQ(simulation.stats(0).accesses(), twin.steps[0]);
  EXPECT_EQ(simulation.stats(0).delays, twin.delays[0]);
}

// In-process determinism (TSan-covered): two serial explorations of the
// same rt scenario are bit-for-bit the same — stats and counterexample —
// proving the fiber/pump alternation injects no nondeterminism (and,
// under TSan, no data races).
TEST(RtShimDeterminism, RepeatedEventCountRunsAreIdentical) {
  const mcheck::CheckScenario scenario = mcheck::make_rt_eventcount_scenario({});
  const mcheck::ExploreConfig config = rt_eventcount_config();
  const mcheck::CheckResult first = mcheck::check(scenario, config);
  const mcheck::CheckResult second = mcheck::check(scenario, config);
  ASSERT_TRUE(first.violation);
  ASSERT_TRUE(second.violation);
  EXPECT_EQ(first.what, second.what);
  expect_stats_equal(first.stats, second.stats);
  EXPECT_EQ(first.counterexample.to_bytes(), second.counterexample.to_bytes());
}

// In-process replay (TSan-covered): the recorded lost-wakeup run drives
// the algorithm fibers down the identical path, byte-for-byte.
TEST(RtShimReplay, EventCountCounterexampleReplaysByteIdentical) {
  const mcheck::CheckScenario scenario = mcheck::make_rt_eventcount_scenario({});
  const mcheck::ExploreConfig config = rt_eventcount_config();
  const mcheck::CheckResult result = mcheck::check(scenario, config);
  ASSERT_TRUE(result.violation);

  const obs::ReplayResult replayed = obs::replay(
      result.counterexample,
      mcheck::counterexample_scenario(scenario, config));
  EXPECT_TRUE(replayed.identical)
      << "first divergence at event " << replayed.first_divergence;

  const mcheck::CheckOutcome reproduced =
      mcheck::run_recorded(result.counterexample, scenario, config);
  EXPECT_FALSE(reproduced.ok);
  EXPECT_EQ(reproduced.what, result.what);
}

// In-process wait/notify workout (TSan-covered): the AtomicMutex check
// parks and wakes pump coroutines on every execution, so a clean complete
// run here means the park-list protocol is race-free.
TEST(RtShimWaitNotify, AtomicLockVerifiesCleanInProcess) {
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kAtomicLock;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_rt_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.executions, 10u);
}

// Re-running the torn-epoch check must give the same stats and
// counterexample as `before`: an aborted or failed execution leaves no
// residue in the reused fiber stacks.
void expect_eventcount_rerun_identical(const mcheck::CheckResult& before) {
  const mcheck::CheckResult after = mcheck::check(
      mcheck::make_rt_eventcount_scenario({}), rt_eventcount_config());
  expect_stats_equal(before.stats, after.stats);
  EXPECT_EQ(before.counterexample.to_bytes(), after.counterexample.to_bytes());
}

// A non-abort exception thrown by a thread body (a contract violation or
// logic bug in the code under test) surfaces from Simulation::run(),
// while another body is still parked mid-op.
TEST(RtShimFailure, BodyExceptionIsRethrownByRun) {
  const mcheck::CheckResult before = mcheck::check(
      mcheck::make_rt_eventcount_scenario({}), rt_eventcount_config());
  {
    sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1));
    rtshim::RtExecution exec(simulation);
    rtshim::atomic<int> cell(0);
    exec.spawn_thread([&] { cell.wait(0); });
    exec.spawn_thread([&] {
      cell.load();
      throw std::runtime_error("bug in the code under test");
    });
    try {
      simulation.run();
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "bug in the code under test");
    }
  }
  expect_eventcount_rerun_identical(before);
}

// Tearing an execution down while a body is parked mid-op unwinds that
// body through AbortExecution: its RAII destructors run exactly once and
// the code after the op never runs.
TEST(RtShimTeardown, ParkedBodyUnwindsItsDestructorsOnce) {
  const mcheck::CheckResult before = mcheck::check(
      mcheck::make_rt_eventcount_scenario({}), rt_eventcount_config());
  struct Guard {
    int* destroyed;
    ~Guard() { ++*destroyed; }
  };
  int destroyed = 0;
  bool resumed = false;
  sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1));
  auto exec = std::make_unique<rtshim::RtExecution>(simulation);
  rtshim::atomic<int> cell(0);
  exec->spawn_thread([&] {
    const Guard guard{&destroyed};
    cell.wait(0);  // nobody notifies: parked when the run goes idle
    resumed = true;
  });
  EXPECT_EQ(simulation.run(), sim::Simulation::RunResult::Idle);
  EXPECT_FALSE(simulation.all_done());
  EXPECT_EQ(destroyed, 0);

  exec.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(resumed);
  expect_eventcount_rerun_identical(before);
}

}  // namespace
}  // namespace tfr
