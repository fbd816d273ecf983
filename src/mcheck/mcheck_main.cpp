// tfr_mcheck — systematic schedule exploration for small configurations.
//
//   $ tfr_mcheck --all              # the sim checks (also the default)
//   $ tfr_mcheck --consensus       # Algorithm 1, n=2, round bound 2
//   $ tfr_mcheck --fischer         # bare Fischer: must find an ME violation
//   $ tfr_mcheck --tfr-mutex      # Algorithm 3 (starvation-free A), n=2
//   $ tfr_mcheck --fischer --save fischer.run   # save the counterexample
//   $ tfr_mcheck --fischer --replay fischer.run # re-check a saved run
//                                  (--replay needs exactly one check)
//   $ tfr_mcheck --rt               # the real-thread code through the shim
//
// Options: --naive (naive DFS, no reduction), --sleep-sets (sleep sets
// only, no source-set DPOR), --seed N, --max-executions N, --jobs N
// (forked parallel exploration — verdicts, stats and counterexamples are
// identical to --jobs 1).  Exit status 0 iff every executed check matched
// its expectation (violation found / not found, counterexample replays
// byte-identically).  Multi-check runs end with a per-check wall-time
// summary table.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "tfr/common/table.hpp"
#include "tfr/mcheck/explorer.hpp"
#include "tfr/mcheck/rt_scenarios.hpp"
#include "tfr/mcheck/scenarios.hpp"
#include "tfr/obs/replay.hpp"

namespace {

using namespace tfr;

struct NamedCheck {
  std::string name;
  std::string description;
  mcheck::CheckScenario scenario;
  mcheck::ExploreConfig config;
  bool expect_violation = false;
};

mcheck::ExploreConfig base_config() {
  mcheck::ExploreConfig config;
  config.delta = 2;
  config.failure_cost = 5;
  config.max_failures = 1;
  config.slow_budget = 1;
  return config;
}

NamedCheck consensus_check() {
  NamedCheck check;
  check.name = "consensus-n2";
  check.description = "Algorithm 1, n=2, inputs {0,1}, round bound 2";
  check.scenario = mcheck::make_consensus_scenario({});
  check.config = base_config();
  check.expect_violation = false;
  return check;
}

NamedCheck fischer_check() {
  NamedCheck check;
  check.name = "fischer-n2";
  check.description =
      "bare Fischer (Algorithm 2), n=2, one timing failure allowed";
  mcheck::MutexScenarioConfig scenario;
  scenario.algorithm = mcheck::MutexScenarioConfig::Algorithm::kFischer;
  check.scenario = mcheck::make_mutex_scenario(scenario);
  check.config = base_config();
  check.config.slow_budget = -1;  // few accesses: afford the full menu
  check.expect_violation = true;
  return check;
}

NamedCheck abd_check() {
  NamedCheck check;
  check.name = "abd-n3-minority-down";
  check.description =
      "ABD register, n=3, one server crashed: reads/writes linearize";
  check.scenario = mcheck::make_abd_scenario({});
  check.config = base_config();
  // The crash is the fault under exploration; timing stays minimal so the
  // schedule space (many channel registers) remains tractable.
  check.config.max_failures = 0;
  check.config.slow_budget = 0;
  check.config.max_steps = 600;
  check.expect_violation = false;
  return check;
}

NamedCheck abd_fast_check() {
  NamedCheck check;
  check.name = "abd-fast-n3-minority-down";
  check.description =
      "ABD fast-read register (write-back skipped on uniform tags), n=3, "
      "one server crashed: reads/writes linearize";
  mcheck::AbdScenarioConfig scenario;
  scenario.variant = msg::RegisterVariant::kPerPeerFastRead;
  check.scenario = mcheck::make_abd_scenario(scenario);
  check.config = base_config();
  // Same budget as the stock check: the crash is the fault under
  // exploration; the fast read must stay linearizable in every schedule,
  // including the mixed-tag quorums that force the write-back fallback.
  check.config.max_failures = 0;
  check.config.slow_budget = 0;
  check.config.max_steps = 600;
  check.expect_violation = false;
  return check;
}

NamedCheck tfr_mutex_check() {
  NamedCheck check;
  check.name = "tfr-mutex-n2";
  check.description =
      "Algorithm 3 over starvation-free A, n=2, one timing failure allowed";
  mcheck::MutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::MutexScenarioConfig::Algorithm::kTfrStarvationFree;
  check.scenario = mcheck::make_mutex_scenario(scenario);
  check.config = base_config();
  check.expect_violation = false;
  return check;
}

NamedCheck mistuned_controller_check() {
  NamedCheck check;
  check.name = "tfr-mutex-mistuned-n2";
  check.description =
      "Algorithm 3 with the adaptive Δ estimate pinned at the floor: "
      "safety must not depend on the estimate";
  mcheck::MutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::MutexScenarioConfig::Algorithm::kTfrStarvationFree;
  scenario.mistuned_controller = true;
  check.scenario = mcheck::make_mutex_scenario(scenario);
  check.config = base_config();
  check.expect_violation = false;
  return check;
}

// ---------------------------------------------------------------------------
// Real-thread checks: the production rt code (consensus_rt.hpp,
// mutex_rt.hpp, atomic_mutex.hpp) instantiated with ShimAtomics and
// driven through the interposition seam — the checker explores the same
// source production runs, not a transcription.

NamedCheck consensus_rt_check() {
  NamedCheck check;
  check.name = "consensus-rt-n2";
  check.description =
      "real-thread Algorithm 1 through the shim, n=2, inputs {0,1}";
  check.scenario = mcheck::make_rt_consensus_scenario();
  check.config = base_config();
  check.expect_violation = false;
  return check;
}

NamedCheck fischer_rt_check() {
  NamedCheck check;
  check.name = "fischer-rt-n2";
  check.description =
      "real-thread Fischer through the shim: one timing failure breaks ME";
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kFischer;
  check.scenario = mcheck::make_rt_mutex_scenario(scenario);
  check.config = base_config();
  check.expect_violation = true;
  return check;
}

NamedCheck tfr_mutex_rt_check() {
  NamedCheck check;
  check.name = "tfr-mutex-rt-n2";
  check.description =
      "real-thread Algorithm 3 (starvation-free A) through the shim";
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::RtMutexScenarioConfig::Algorithm::kTfrStarvationFree;
  check.scenario = mcheck::make_rt_mutex_scenario(scenario);
  check.config = base_config();
  check.expect_violation = false;
  return check;
}

NamedCheck atomic_lock_rt_check() {
  NamedCheck check;
  check.name = "atomic-lock-rt-n2";
  check.description =
      "futex-class AtomicMutex through the shim: wait/notify protocol";
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kAtomicLock;
  check.scenario = mcheck::make_rt_mutex_scenario(scenario);
  check.config = base_config();
  check.expect_violation = false;
  return check;
}

NamedCheck eventcount_torn_check() {
  NamedCheck check;
  check.name = "eventcount-torn-epoch";
  check.description =
      "EventCount with advance() before the state write: lost wakeup";
  check.scenario = mcheck::make_rt_eventcount_scenario({.torn_epoch = true});
  check.config = base_config();
  // The bug is a pure ordering race; no timing failures needed to find it.
  check.config.max_failures = 0;
  check.config.slow_budget = 0;
  check.expect_violation = true;
  return check;
}

NamedCheck eventcount_correct_check() {
  NamedCheck check;
  check.name = "eventcount-write-then-advance";
  check.description =
      "EventCount with the documented publication order: no lost wakeup";
  check.scenario = mcheck::make_rt_eventcount_scenario({.torn_epoch = false});
  check.config = base_config();
  check.config.max_failures = 0;
  check.config.slow_budget = 0;
  check.expect_violation = false;
  return check;
}

/// The simulator checks: --all, and the run with no check flag.
std::vector<NamedCheck> sim_checks() {
  std::vector<NamedCheck> checks;
  checks.push_back(consensus_check());
  checks.push_back(fischer_check());
  checks.push_back(tfr_mutex_check());
  checks.push_back(mistuned_controller_check());
  checks.push_back(abd_check());
  checks.push_back(abd_fast_check());
  return checks;
}

std::vector<NamedCheck> rt_checks() {
  std::vector<NamedCheck> checks;
  checks.push_back(consensus_rt_check());
  checks.push_back(fischer_rt_check());
  checks.push_back(tfr_mutex_rt_check());
  checks.push_back(atomic_lock_rt_check());
  checks.push_back(eventcount_torn_check());
  checks.push_back(eventcount_correct_check());
  return checks;
}

void print_stats(const mcheck::ExploreStats& stats) {
  std::printf(
      "  executions=%llu states=%llu transitions=%llu sched-points=%llu "
      "cost-points=%llu\n",
      static_cast<unsigned long long>(stats.executions),
      static_cast<unsigned long long>(stats.states),
      static_cast<unsigned long long>(stats.transitions),
      static_cast<unsigned long long>(stats.sched_choice_points),
      static_cast<unsigned long long>(stats.cost_choice_points));
  std::printf(
      "  sleep-pruned=%llu sleep-blocked=%llu truncated=%llu complete=%s\n",
      static_cast<unsigned long long>(stats.sleep_pruned),
      static_cast<unsigned long long>(stats.sleep_blocked),
      static_cast<unsigned long long>(stats.truncated),
      stats.complete ? "yes" : "no");
  std::printf("  races=%llu source-pruned=%llu\n",
              static_cast<unsigned long long>(stats.races_detected),
              static_cast<unsigned long long>(stats.source_pruned));
}

/// One executed check, as reported in the end-of-run summary table.
struct CheckReport {
  std::string name;
  bool ok = false;
  bool violation = false;
  double wall_ms = 0;
  mcheck::ExploreStats stats;
};

/// Runs one check and compares against its expectation; on violation the
/// counterexample is replayed through the obs trace layer and must match
/// byte-for-byte.  Returns true iff everything matched.
bool run_check(const NamedCheck& check, const std::string& save_path,
               CheckReport& report) {
  std::printf("[mcheck] %s — %s\n", check.name.c_str(),
              check.description.c_str());
  const auto begin = std::chrono::steady_clock::now();
  const mcheck::CheckResult result = mcheck::check(check.scenario,
                                                   check.config);
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  report.name = check.name;
  report.violation = result.violation;
  report.stats = result.stats;
  print_stats(result.stats);
  std::printf("  wall: %.1f ms (jobs=%d)\n", report.wall_ms,
              check.config.jobs);

  bool ok = true;
  if (result.violation != check.expect_violation) {
    std::printf("  verdict: %s but expected %s — FAIL\n",
                result.violation ? "violation" : "no violation",
                check.expect_violation ? "a violation" : "none");
    ok = false;
  }
  if (result.violation) {
    std::printf("  violation: %s\n", result.what.c_str());
    const obs::ReplayResult replayed =
        obs::replay(result.counterexample,
                    mcheck::counterexample_scenario(check.scenario,
                                                    check.config));
    std::printf("  counterexample: %zu scripted costs, %zu scheduled picks, "
                "replay %s\n",
                result.counterexample.timing.script.size(),
                result.counterexample.timing.schedule.size(),
                replayed.identical ? "byte-identical" : "DIVERGED");
    if (!replayed.identical) ok = false;
    const mcheck::CheckOutcome reproduced = mcheck::run_recorded(
        result.counterexample, check.scenario, check.config);
    if (reproduced.ok) {
      std::printf("  counterexample replay did NOT reproduce the violation"
                  " — FAIL\n");
      ok = false;
    }
    if (!save_path.empty()) {
      if (result.counterexample.save(save_path)) {
        std::printf("  counterexample saved to %s\n", save_path.c_str());
      } else {
        std::printf("  could not save counterexample to %s\n",
                    save_path.c_str());
        ok = false;
      }
    }
  } else if (!result.stats.complete) {
    std::printf("  verdict: exploration aborted at max-executions — FAIL\n");
    ok = false;
  }
  if (ok) std::printf("  verdict: as expected\n");
  report.ok = ok;
  return ok;
}

/// Wall-time summary for multi-check runs (--all or the default set).
void print_summary(const std::vector<CheckReport>& reports) {
  tfr::Table table("mcheck summary");
  table.header({"check", "verdict", "executions", "states", "sleep-pruned",
                "wall ms", "status"});
  double total_ms = 0;
  for (const CheckReport& report : reports) {
    total_ms += report.wall_ms;
    table.row({report.name, report.violation ? "violation" : "clean",
               tfr::Table::fmt(
                   static_cast<unsigned long long>(report.stats.executions)),
               tfr::Table::fmt(
                   static_cast<unsigned long long>(report.stats.states)),
               tfr::Table::fmt(static_cast<unsigned long long>(
                   report.stats.sleep_pruned)),
               tfr::Table::fmt(report.wall_ms, 1),
               report.ok ? "ok" : "FAIL"});
  }
  table.print(std::cout);
  std::printf("total wall: %.1f ms\n", total_ms);
}

bool replay_saved(const NamedCheck& check, const std::string& path) {
  const std::optional<obs::RecordedRun> run = obs::RecordedRun::load(path);
  if (!run) {
    std::printf("[mcheck] could not load a recorded run from %s\n",
                path.c_str());
    return false;
  }
  const obs::ReplayResult replayed = obs::replay(
      *run, mcheck::counterexample_scenario(check.scenario, check.config));
  const mcheck::CheckOutcome outcome =
      mcheck::run_recorded(*run, check.scenario, check.config);
  std::printf("[mcheck] replay of %s against %s: trace %s, verdict: %s\n",
              path.c_str(), check.name.c_str(),
              replayed.identical ? "byte-identical" : "DIVERGED",
              outcome.ok ? "no violation" : outcome.what.c_str());
  return replayed.identical;
}

int usage() {
  std::printf(
      "usage: tfr_mcheck [--all] [--consensus] [--fischer] [--tfr-mutex]\n"
      "                  [--mistuned] [--abd] [--rt] [--fischer-rt]\n"
      "                  [--eventcount]\n"
      "                  [--naive] [--sleep-sets] [--seed N]\n"
      "                  [--max-executions N] [--jobs N]\n"
      "                  [--save FILE] [--replay FILE]\n"
      "--replay FILE needs exactly one check selected\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<NamedCheck> selected;
  bool naive = false;
  bool sleep_sets = false;
  std::uint64_t seed = 1;
  std::uint64_t max_executions = 0;
  int jobs = 1;
  std::string save_path;
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      for (NamedCheck& check : sim_checks())
        selected.push_back(std::move(check));
    } else if (arg == "--consensus") {
      selected.push_back(consensus_check());
    } else if (arg == "--fischer") {
      selected.push_back(fischer_check());
    } else if (arg == "--tfr-mutex") {
      selected.push_back(tfr_mutex_check());
    } else if (arg == "--mistuned") {
      selected.push_back(mistuned_controller_check());
    } else if (arg == "--abd") {
      selected.push_back(abd_check());
      selected.push_back(abd_fast_check());
    } else if (arg == "--rt") {
      for (NamedCheck& check : rt_checks())
        selected.push_back(std::move(check));
    } else if (arg == "--fischer-rt") {
      selected.push_back(fischer_rt_check());
    } else if (arg == "--eventcount") {
      selected.push_back(eventcount_torn_check());
      selected.push_back(eventcount_correct_check());
    } else if (arg == "--naive") {
      naive = true;
    } else if (arg == "--sleep-sets") {
      sleep_sets = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--max-executions" && i + 1 < argc) {
      max_executions = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (jobs < 1) return usage();
    } else if (arg == "--save" && i + 1 < argc) {
      save_path = argv[++i];
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_path = argv[++i];
    } else {
      return usage();
    }
  }
  // A recorded run belongs to the one check it was saved from.
  if (!replay_path.empty() && selected.size() != 1) return usage();
  if (selected.empty()) selected = sim_checks();

  bool ok = true;
  std::vector<CheckReport> reports;
  for (NamedCheck& check : selected) {
    if (naive) check.config.reduction = mcheck::Reduction::kNone;
    else if (sleep_sets) check.config.reduction = mcheck::Reduction::kSleepSets;
    check.config.seed = seed;
    if (max_executions > 0) check.config.max_executions = max_executions;
    check.config.jobs = jobs;
    if (!replay_path.empty()) {
      ok = replay_saved(check, replay_path) && ok;
      continue;
    }
    CheckReport report;
    ok = run_check(check, save_path, report) && ok;
    reports.push_back(std::move(report));
  }
  if (reports.size() > 1) print_summary(reports);
  std::printf("[mcheck] %s\n", ok ? "all checks as expected"
                                  : "EXPECTATION MISMATCH");
  return ok ? 0 : 1;
}
