// Stateless model checking for the timing-based simulator.
//
// The simulator is a pure function of the choices made at its
// nondeterminism points: which of several simultaneously-enabled events
// linearizes first (the SchedulerStrategy seam) and what each shared
// access costs (fast, slow-but-legal, or stretched past Δ — a timing
// failure).  The Explorer drives both seams from a DFS over the resulting
// decision tree, re-executing the scenario from scratch along each branch
// — the CHESS/Verisoft style of systematic exploration, with a
// partial-order reduction keyed on the register-conflict independence
// relation: two enabled events are dependent iff they access the same
// register and at least one writes it.  The default reduction layers
// source-set-style dynamic POR (race-driven backtrack sets, in the
// Flanagan–Godefroid / Abdulla et al. lineage) over the original sleep
// sets (Godefroid); see Reduction.
//
// Exploration is exhaustive *within declared bounds*: per-access cost
// menus {1, Δ}, a budget on slow (cost Δ) accesses, a budget on injected
// timing failures (cost > Δ), a step bound per execution, plus any
// scenario cutoff (e.g. a consensus round bound).  A violating execution
// is emitted as an obs::RecordedRun — the scripted costs and tie-break
// schedule — which replays byte-identically through obs::record/replay.
//
// With ExploreConfig::jobs > 1 the tree is partitioned at a fixed decision
// depth (the gate) and disjoint subtrees are explored by forked worker
// processes (benchkit::fork_map); stats, verdict and counterexample are
// merged so the result is identical to the serial run (see
// ExploreConfig::jobs).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tfr/obs/replay.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::mcheck {

/// Per-execution facts the engine hands to the verdict predicate.
struct RunInfo {
  bool truncated = false;  ///< step bound or scenario cutoff fired
  std::uint32_t failures_injected = 0;   ///< accesses stretched past Δ
  std::uint32_t slow_accesses = 0;       ///< accesses that cost Δ (legal)
  sim::Time last_failure_completion = -1;
};

/// Verdict of one execution: ok, or a violation description.
struct CheckOutcome {
  bool ok = true;
  std::string what;
};

/// What a scenario hands back after setting up a simulation: an optional
/// extra cutoff (polled after every event) and the post-run safety
/// verdict.  Monitors must be configured with throw_on_violation(false)
/// so the verdict — not an exception — reports violations.
struct RunHarness {
  std::function<bool()> stop;  ///< optional scenario cutoff (round bound)
  std::function<CheckOutcome(const RunInfo&)> verdict;
};

/// Builds the objects under test inside a fresh Simulation and spawns the
/// processes.  Invoked once per explored execution; must be deterministic
/// given the simulation's Rng (the explorer replaces all other
/// randomness).
using CheckScenario = std::function<RunHarness(sim::Simulation&)>;

/// Which partial-order reduction prunes the DFS.
enum class Reduction : std::uint8_t {
  /// Naive DFS: every sibling of every decision node (pruning baseline).
  kNone = 0,
  /// Sleep sets (Godefroid) keyed on the register-conflict independence
  /// relation — the PR 2 baseline semantics.
  kSleepSets = 1,
  /// Sleep sets plus source-set-style dynamic POR: race-driven backtrack
  /// sets decide which siblings of a scheduling node need exploring at
  /// all.  They apply at-or-below a fixed decision depth (the gate, which
  /// is also the work-sharing frontier), so parallel runs stay
  /// byte-identical to serial ones.
  kSourceDpor = 2,
};

struct ExploreConfig {
  /// The algorithm's assumed bound Δ.  The per-access menu is {1, delta};
  /// with delta == 2 the menu covers *every* legal integer cost, so the
  /// check is exhaustive over legal timings within the slow budget.
  sim::Duration delta = 2;
  /// Cost of an injected timing failure (must exceed delta).
  sim::Duration failure_cost = 5;
  /// How many accesses per execution may be stretched past Δ.
  std::uint32_t max_failures = 1;
  /// How many accesses per execution may cost Δ instead of 1
  /// (-1 = unbounded).  Bounding this is what makes exhaustive runs
  /// tractable — the analogue of CHESS's preemption bound for timing.
  std::int64_t slow_budget = 1;
  /// Hard per-execution step bound (scheduler picks); exceeding it
  /// truncates the execution (safety is still checked on the prefix).
  std::uint64_t max_steps = 400;
  /// Virtual-time horizon per execution.
  sim::Time time_limit = sim::kTimeNever;
  /// Abort the whole exploration after this many executions.
  std::uint64_t max_executions = 4'000'000;
  /// Partial-order reduction mode.  kSourceDpor (default) layers dynamic
  /// backtrack sets over kSleepSets; kNone is the naive-DFS baseline for
  /// the pruning regression tests.
  Reduction reduction = Reduction::kSourceDpor;
  /// Seed for the simulation Rng (unused by explored scenarios, but part
  /// of the replay artifact).
  std::uint64_t seed = 1;
  /// Worker processes for exploration.  1 = serial, in-process.  With
  /// jobs > 1 the decision tree is partitioned at a fixed decision depth
  /// (the gate, the same for every Reduction) and the disjoint subtrees
  /// below it are explored by forked workers.  Results are merged
  /// deterministically: the reported stats, verdict and counterexample
  /// are identical to a jobs == 1 run — the first violation is resolved to
  /// the lexicographically-least decision path, not to whichever worker
  /// won the race.  Sole deviation: max_executions is enforced per worker
  /// subtree, not globally.
  int jobs = 1;
};

struct ExploreStats {
  std::uint64_t executions = 0;        ///< complete re-executions
  std::uint64_t states = 0;            ///< fresh decision nodes created
  std::uint64_t transitions = 0;       ///< scheduler picks across all runs
  std::uint64_t sched_choice_points = 0;  ///< fresh sched nodes, >1 option
  std::uint64_t cost_choice_points = 0;   ///< fresh cost nodes
  std::uint64_t sleep_pruned = 0;      ///< options skipped via sleep sets
  std::uint64_t sleep_blocked = 0;     ///< executions cut as redundant
  std::uint64_t truncated = 0;         ///< executions cut by a bound
  /// kSourceDpor only: dependent-access reversals recorded against a
  /// scheduling node (each may add one pid to that node's backtrack set).
  std::uint64_t races_detected = 0;
  /// kSourceDpor only: scheduling siblings never explored because no race
  /// in any explored sibling subtree required them.
  std::uint64_t source_pruned = 0;
  /// Always 0 (frontier state hashing was removed); kept because the
  /// perfbench mcheck workload still reads it.
  std::uint64_t state_pruned = 0;
  bool complete = false;  ///< DFS exhausted (vs. max_executions abort)
};

struct CheckResult {
  bool violation = false;
  std::string what;  ///< violation description when violation == true
  ExploreStats stats;
  /// The violating execution as a replayable artifact (scripted costs +
  /// tie-break schedule + golden trace); meaningful iff violation.
  obs::RecordedRun counterexample;
};

/// Explores every execution of `scenario` within `config`'s bounds,
/// stopping at the first safety violation.
CheckResult check(const CheckScenario& scenario, const ExploreConfig& config);

/// Re-runs a recorded counterexample (scripted costs + schedule) against
/// the scenario and returns the reproduced verdict — the programmatic
/// twin of replaying the trace through obs::replay().
CheckOutcome run_recorded(const obs::RecordedRun& run,
                          const CheckScenario& scenario,
                          const ExploreConfig& config);

/// The obs::Scenario adapter for a counterexample: sets up the check
/// scenario and runs until the recorded schedule is exhausted.  Use with
/// obs::record / obs::replay for byte-identical trace comparison.
obs::Scenario counterexample_scenario(const CheckScenario& scenario,
                                      const ExploreConfig& config);

}  // namespace tfr::mcheck
