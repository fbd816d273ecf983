// Workload `mcheck`: serial mcheck::check (jobs = 1) over the shipped check
// set — the six sim checks of `tfr_mcheck --all` and the five shim checks
// of `tfr_mcheck --rt`, built from the public make_*_scenario factories
// with tfr_mcheck's configs.  Every verdict and every execution count is
// checked against its known value.
//
// The shim hands each shared access between an OS thread and a simulator
// pump; across cores that hand-off is dominated by wake-up latency and
// varies run to run, so the workload pins itself (and the shim threads it
// starts) to one CPU — the highest-numbered one it may run on.
//
// Only the sim checks are timed end to end.  They are single-threaded and
// deterministic, so a disturbance of the host can only add time to them;
// they are reported from the fastest pass of each of their segments
// (SegmentBest).  The shim checks, whose hand-offs slow down with the
// host's phase far more, run once a run, after the timed passes.

#include <sched.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tfr/mcheck/explorer.hpp"
#include "tfr/mcheck/rt_scenarios.hpp"
#include "tfr/mcheck/scenarios.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tfr;

constexpr int kSetupEvery = 2;  // passes per set-up

struct Check {
  const char* name;
  bool shim;
  bool expect_violation;
  std::uint64_t expect_executions;
  mcheck::CheckScenario scenario;
  mcheck::ExploreConfig config;
};

mcheck::ExploreConfig base_config() {
  mcheck::ExploreConfig config;
  config.delta = 2;
  config.failure_cost = 5;
  config.max_failures = 1;
  config.slow_budget = 1;
  return config;
}

mcheck::ExploreConfig crash_only_config(std::uint64_t max_steps) {
  mcheck::ExploreConfig config = base_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  if (max_steps > 0) config.max_steps = max_steps;
  return config;
}

/// The shipped check set with tfr_mcheck's configs and today's exact
/// execution counts.
std::vector<Check> check_set(std::uint64_t seed) {
  using Mutex = mcheck::MutexScenarioConfig;
  using RtMutex = mcheck::RtMutexScenarioConfig;
  std::vector<Check> checks;
  checks.push_back({"consensus-n2", false, false, 3410,
                    mcheck::make_consensus_scenario({}), base_config()});
  mcheck::ExploreConfig fischer = base_config();
  fischer.slow_budget = -1;
  checks.push_back(
      {"fischer-n2", false, true, 215757,
       mcheck::make_mutex_scenario({.algorithm = Mutex::Algorithm::kFischer}),
       fischer});
  checks.push_back({"tfr-mutex-n2", false, false, 15979,
                    mcheck::make_mutex_scenario(
                        {.algorithm = Mutex::Algorithm::kTfrStarvationFree}),
                    base_config()});
  checks.push_back({"tfr-mutex-mistuned-n2", false, false, 15961,
                    mcheck::make_mutex_scenario(
                        {.algorithm = Mutex::Algorithm::kTfrStarvationFree,
                         .mistuned_controller = true}),
                    base_config()});
  checks.push_back({"abd-n3-minority-down", false, false, 65,
                    mcheck::make_abd_scenario({}), crash_only_config(600)});
  checks.push_back(
      {"abd-fast-n3-minority-down", false, false, 46,
       mcheck::make_abd_scenario(
           {.variant = msg::RegisterVariant::kPerPeerFastRead}),
       crash_only_config(600)});
  checks.push_back({"fischer-rt-n2", true, true, 509,
                    mcheck::make_rt_mutex_scenario(
                        {.algorithm = RtMutex::Algorithm::kFischer}),
                    base_config()});
  checks.push_back({"tfr-mutex-rt-n2", true, false, 6273,
                    mcheck::make_rt_mutex_scenario(
                        {.algorithm = RtMutex::Algorithm::kTfrStarvationFree}),
                    base_config()});
  checks.push_back({"atomic-lock-rt-n2", true, false, 139,
                    mcheck::make_rt_mutex_scenario(
                        {.algorithm = RtMutex::Algorithm::kAtomicLock}),
                    base_config()});
  checks.push_back(
      {"eventcount-torn-epoch", true, true, 2,
       mcheck::make_rt_eventcount_scenario({.torn_epoch = true}),
       crash_only_config(0)});
  checks.push_back(
      {"eventcount-write-then-advance", true, false, 4,
       mcheck::make_rt_eventcount_scenario({.torn_epoch = false}),
       crash_only_config(0)});
  for (Check& check : checks) check.config.seed = seed;
  return checks;
}

/// Time spent in the wrapped scenario factories and verdicts.
struct HookTimes {
  std::int64_t setup_ns = 0;
  std::uint64_t setups = 0;
  std::int64_t verdict_ns = 0;
  std::uint64_t verdicts = 0;
};

/// Wraps a scenario so that its factory and verdict are timed and recorded
/// as spans (traced passes only).
mcheck::CheckScenario wrap(const mcheck::CheckScenario& inner,
                           Tracer& tracer, Tracer::Lane* lane,
                           HookTimes* times) {
  return [inner, &tracer, lane, times](sim::Simulation& s) {
    mcheck::RunHarness harness;
    {
      Scoped span(lane, "CheckScenario");
      const std::int64_t start = tracer.now_ns();
      harness = inner(s);
      times->setup_ns += tracer.now_ns() - start;
      ++times->setups;
    }
    harness.verdict = [verdict = std::move(harness.verdict), &tracer, lane,
                       times](const mcheck::RunInfo& info) {
      Scoped span(lane, "verdict");
      const std::int64_t start = tracer.now_ns();
      mcheck::CheckOutcome outcome = verdict(info);
      times->verdict_ns += tracer.now_ns() - start;
      ++times->verdicts;
      return outcome;
    };
    return harness;
  };
}

struct Side {
  std::uint64_t executions = 0;
  std::uint64_t transitions = 0;
  double wall = 0;
  double cpu = 0;
};

struct Pass {
  Side sim;
  Side shim;
  std::uint64_t sim_allocs = 0;
  std::uint64_t useful = 0;
  std::uint64_t unexpected = 0;
};

/// Runs every check once.  With `best` (one entry per check), folds each
/// check's segments into it.
Pass run_pass(const std::vector<Check>& checks, Tracer& tracer,
              Tracer::Lane* lane, HookTimes* times,
              std::vector<SegmentBest>* best, Report& out) {
  Pass pass;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const Check& check = checks[i];
    const mcheck::CheckScenario scenario =
        lane != nullptr ? wrap(check.scenario, tracer, lane, times)
                        : check.scenario;
    if (best != nullptr) (*best)[i].begin();
    const std::uint64_t allocs = allocations();
    const double cpu = cpu_now();
    const double start = wall_now();
    mcheck::CheckResult result;
    {
      Scoped span(lane, "mcheck::check");
      result = mcheck::check(scenario, check.config);
    }
    const double wall = wall_now() - start;
    Side& side = check.shim ? pass.shim : pass.sim;
    side.cpu += cpu_now() - cpu;
    side.executions += result.stats.executions;
    side.transitions += result.stats.transitions;
    side.wall += wall;
    if (!check.shim) pass.sim_allocs += allocations() - allocs;
    if (best != nullptr && !(*best)[i].end()) {
      out.fail(std::string("mcheck ") + check.name +
               ": segment counts differ between passes");
    }
    pass.useful += result.stats.executions - result.stats.sleep_blocked -
                   result.stats.state_pruned;

    const bool verdict_ok =
        result.violation == check.expect_violation &&
        (result.violation || result.stats.complete);
    if (!verdict_ok) {
      ++pass.unexpected;
      out.fail(std::string("mcheck ") + check.name + ": unexpected verdict");
    }
    out.require(result.stats.executions == check.expect_executions,
                std::string("mcheck ") + check.name + ": " +
                    std::to_string(result.stats.executions) +
                    " executions, expected " +
                    std::to_string(check.expect_executions));
  }
  out.attempted += checks.size();
  out.failed += pass.unexpected;
  return pass;
}

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  sched_setaffinity(0, sizeof one, &one);
}

}  // namespace

Report run_mcheck_workload(const Options& opts, Tracer& tracer) {
  pin_to_one_cpu();
  Report out;
  std::vector<Check> sim_checks, shim_checks;
  std::vector<SegmentBest> best;
  // Set-up builds the check set and runs its small sim checks as a
  // warm-up.
  const auto setup = [&] {
    sim_checks.clear();
    shim_checks.clear();
    std::vector<Check> small;
    for (Check& check : check_set(opts.seed)) {
      if (!check.shim && check.expect_executions < 5000)
        small.push_back(check);
      (check.shim ? shim_checks : sim_checks).push_back(std::move(check));
    }
    best.resize(sim_checks.size());
    Report scratch;
    run_pass(small, tracer, nullptr, nullptr, nullptr, scratch);
    out.require(scratch.correct, "mcheck warm-up failed");
  };

  std::optional<Pass> last;
  Samples cpu_per_wall;
  std::vector<double> traced_wall, untraced_wall;
  HookTimes times;
  measure(opts, tracer, out, 3, kSetupEvery, setup, [&](Tracer::Lane* lane) {
    Scoped span(lane, "mcheck.pass");
    const Pass pass = run_pass(sim_checks, tracer, lane, &times,
                               lane != nullptr ? nullptr : &best, out);
    if (lane != nullptr) {
      traced_wall.push_back(pass.sim.wall);
      return;
    }
    untraced_wall.push_back(pass.sim.wall);
    out.pass_wall_s.add(pass.sim.wall);
    out.pass_cpu_s.add(pass.sim.cpu);
    out.pass_ops_per_s.add(static_cast<double>(pass.sim.executions) /
                           pass.sim.wall);
    cpu_per_wall.add(pass.sim.cpu / pass.sim.wall);
    if (last) {
      out.require(pass.sim_allocs == last->sim_allocs,
                  "mcheck: allocation counts differ between passes");
    }
    last = pass;
  });
  // The shim checks run once, untimed by the end-to-end figures: their
  // speed follows the host's phase (see README.md).
  const Pass shim = run_pass(shim_checks, tracer, nullptr, nullptr, nullptr,
                             out);

  // Each segment at its fastest pass.  CPU time is that wall time scaled by
  // the passes' CPU/wall ratio: one pinned thread, so about 1.
  double sim_s = 0;
  for (const SegmentBest& check : best) sim_s += check.total_s();
  if (last) {
    out.figures.wall_s = sim_s;
    out.figures.cpu_s = sim_s * cpu_per_wall.median();
    out.figures.ops_per_s = static_cast<double>(last->sim.executions) / sim_s;
  }

  out.headline = {
      {"executions_per_s", out.figures.ops_per_s, "1/s"},
      {"fail_frac",
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "ratio"},
  };

  if (opts.trace && last) {
    const Pass& p = *last;
    const double executions =
        static_cast<double>(p.sim.executions + shim.shim.executions);
    const double sim_ns =
        sim_s * 1e9 / static_cast<double>(p.sim.transitions);
    const double shim_ns =
        shim.shim.wall * 1e9 / static_cast<double>(shim.shim.transitions);
    Samples overhead;
    for (std::size_t i = 0; i < traced_wall.size(); ++i)
      overhead.add(traced_wall[i] / untraced_wall[i]);
    out.layer = {
        {"sim.ns_per_transition", sim_ns, "ns"},
        {"sim.allocs_per_execution",
         static_cast<double>(p.sim_allocs) /
             static_cast<double>(p.sim.executions),
         "count"},
        {"mcheck.sim_executions_per_s",
         static_cast<double>(p.sim.executions) / sim_s, "1/s"},
        {"mcheck.shim_executions_per_s",
         static_cast<double>(shim.shim.executions) / shim.shim.wall, "1/s"},
        {"mcheck.transitions_per_execution",
         static_cast<double>(p.sim.transitions + shim.shim.transitions) /
             executions,
         "count"},
        {"mcheck.useful_ratio",
         static_cast<double>(p.useful + shim.useful) / executions, "ratio"},
        {"mcheck.scenario_setup_ns",
         static_cast<double>(times.setup_ns) /
             static_cast<double>(times.setups),
         "ns"},
        {"mcheck.verdict_ns",
         static_cast<double>(times.verdict_ns) /
             static_cast<double>(times.verdicts),
         "ns"},
        {"shim.ns_per_transition", shim_ns, "ns"},
        {"shim.vs_sim_transition", shim_ns / sim_ns, "ratio"},
        {"obs.trace_overhead.mcheck", overhead.median(), "ratio"},
    };
  }
  return out;
}

}  // namespace perfbench
