#include "tfr/mcheck/explorer.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "tfr/benchkit/forkmap.hpp"
#include "tfr/common/contracts.hpp"

namespace tfr::mcheck {

namespace {

/// One decision node on the current DFS path.  The path is persistent
/// across re-executions: replayed prefixes walk it with a cursor, the
/// first divergence point appends fresh nodes.
struct Node {
  enum class Kind : std::uint8_t { kSched, kCost };

  Kind kind = Kind::kSched;
  std::size_t chosen = 0;
  /// kSched: the enabled events at this instant (sorted by pid).
  std::vector<sim::EnabledEvent> options;
  /// kSched: sleep set — events already covered by sibling subtrees;
  /// picking one here would re-explore an equivalent interleaving.
  std::vector<sim::EnabledEvent> sleep;
  /// kCost: the cost menu offered at this access.
  std::vector<sim::Duration> costs;
  /// A fresh node whose every option was asleep: the whole execution is
  /// redundant; advance() discards it without exploring children.
  bool blocked = false;
  /// kSourceDpor, node at-or-below the gate depth: siblings are explored
  /// only when a detected race demands them (see backtrack).
  bool dpor_managed = false;
  /// Escape hatch of the race-reversal rule: a race wanted a process that
  /// has no enabled event here, so every sibling must be explored (the
  /// conservative sound fallback for the timed model).
  bool explore_all = false;
  /// kSched + dpor_managed: pids whose subtree a race made mandatory.
  std::vector<sim::Pid> backtrack;
  /// kSched + dpor_managed: per-option "its subtree was entered" marks;
  /// at pop time the unexplored remainder is what the reduction saved.
  std::vector<char> explored;
};

bool in_sleep(const std::vector<sim::EnabledEvent>& sleep, sim::Pid pid) {
  return std::any_of(sleep.begin(), sleep.end(),
                     [pid](const sim::EnabledEvent& e) { return e.pid == pid; });
}

/// The one fixed decision depth that splits the tree, for every Reduction.
/// Nodes shallower than the gate keep plain sleep-set semantics (explore
/// every non-sleeping sibling); under kSourceDpor nodes at-or-below it
/// carry race-driven backtrack sets.  Parallel runs cut their work-sharing
/// frontier here too, so prefix nodes (owned by the enumerator, never
/// advanced by workers) are exactly the explore-all ones and every counter
/// stays byte-identical to the serial run.  Deep enough that modest
/// branching yields many more subtrees than workers, shallow enough that
/// the enumeration probes stay a negligible share of the exploration.
constexpr std::size_t kGate = 6;

class Explorer;

/// TimingModel that routes every access cost through the explorer's
/// cost-choice seam (menu {1, Δ[, failure]} under the configured budgets).
class ChoiceTiming final : public sim::TimingModel {
 public:
  explicit ChoiceTiming(Explorer* engine) : engine_(engine) {}
  sim::Duration access_cost(sim::Pid pid, sim::Time now, Rng& rng) override;

 private:
  Explorer* engine_;
};

/// Adds the event counters of `from` into `into` (the complete flag is a
/// property of the merged whole and is left to the caller).
void add_counters(ExploreStats& into, const ExploreStats& from) {
  into.executions += from.executions;
  into.states += from.states;
  into.transitions += from.transitions;
  into.sched_choice_points += from.sched_choice_points;
  into.cost_choice_points += from.cost_choice_points;
  into.sleep_pruned += from.sleep_pruned;
  into.sleep_blocked += from.sleep_blocked;
  into.truncated += from.truncated;
  into.races_detected += from.races_detected;
  into.source_pruned += from.source_pruned;
}

/// The DFS engine.  Doubles as the SchedulerStrategy of each explored
/// execution: scheduling and cost queries either replay the stored path
/// (cursor within path_) or create a fresh node and take its first
/// non-sleeping branch.
///
/// One engine instance runs in one of three modes:
///  - kSerial: explore the whole tree (jobs == 1, and the reference
///    semantics every parallel run must reproduce).
///  - kEnumerate: probe executions only up to the gate depth (kGate); each
///    gate-depth subtree (or shorter leaf) becomes a WorkItem.  Probe run
///    counters are discarded — the owning worker re-executes and counts —
///    but fresh prefix nodes, prefix-level backtracking and sleep-blocked
///    probe executions are enumerator-owned, exactly as in a serial run.
///  - kWorker: explore one WorkItem's subtree; the path is pre-seeded with
///    the frontier prefix (replayed, never advanced — fixed_depth_).
class Explorer final : public sim::SchedulerStrategy {
 public:
  enum class Mode : std::uint8_t { kSerial, kEnumerate, kWorker };

  /// One unit of parallel work: the frontier prefix identifying a subtree.
  /// Sleep sets are snapshotted as of emission — sound because a prefix
  /// node's sleep set only changes when the DFS backtracks *through* it,
  /// which by construction happens after its subtree is fully explored.
  struct WorkItem {
    std::vector<Node> prefix;
  };

  /// Everything the enumeration pass hands to the merge: the work items in
  /// DFS order, the cumulative enumerator-owned stats at each emission
  /// (the merge cuts here when item k holds the first violation), and the
  /// final enumerator stats (the clean-run contribution).
  struct Frontier {
    std::vector<WorkItem> items;
    std::vector<ExploreStats> stats_at_item;
    ExploreStats final_stats;
  };

  explicit Explorer(const ExploreConfig& config, Mode mode = Mode::kSerial)
      : config_(config), mode_(mode) {
    TFR_REQUIRE(config.delta >= 1);
    TFR_REQUIRE(config.failure_cost > config.delta);
    TFR_REQUIRE(config.max_steps >= 1);
    // Enumerate probes never detect races: their executions are re-run and
    // race-detected by the owning worker (keeps counters serial-identical).
    race_detect_ = dpor() && mode_ != Mode::kEnumerate;
  }

  CheckResult explore(const CheckScenario& scenario);
  Frontier enumerate(const CheckScenario& scenario);
  CheckResult explore_subtree(const CheckScenario& scenario,
                              const WorkItem& item);

  // --- SchedulerStrategy ---
  std::size_t pick(sim::Time now,
                   const std::vector<sim::EnabledEvent>& options) override {
    (void)now;
    if (aborted()) return 0;
    ++steps_;
    ++stats_.transitions;
    const std::size_t chosen = decide_sched(options);
    if (!aborted()) sched_picks_.push_back(options[chosen].pid);
    return chosen;
  }

  /// External cost seams (e.g. a FailureInjector with an attached
  /// strategy) branch here too, under the same DFS.
  std::size_t pick_cost(sim::Pid pid,
                        const std::vector<sim::Duration>& choices) override {
    (void)pid;
    if (aborted() || choices.size() < 2) return 0;
    return decide_cost(choices.data(), choices.size());
  }

  /// Cost of one shared access, drawn from the bounded menu.  Called by
  /// ChoiceTiming for every access of the execution.  The menu lives on
  /// the stack (at most {1, Δ, failure}) — building a vector here showed
  /// up as the single hottest allocation of the whole exploration.
  sim::Duration draw_cost(sim::Pid pid, sim::Time now) {
    if (aborted()) return 1;
    sim::Duration menu[3];
    std::size_t size = 0;
    menu[size++] = 1;
    if (config_.delta > 1 &&
        (config_.slow_budget < 0 ||
         slow_used_ < static_cast<std::uint32_t>(config_.slow_budget))) {
      menu[size++] = config_.delta;
    }
    if (failures_used_ < config_.max_failures)
      menu[size++] = config_.failure_cost;
    const std::size_t idx = size > 1 ? decide_cost(menu, size) : 0;
    const sim::Duration cost = aborted() ? 1 : menu[idx];
    if (cost > config_.delta) {
      ++failures_used_;
      last_failure_completion_ =
          std::max(last_failure_completion_, now + cost);
    } else if (cost > 1) {
      ++slow_used_;
    }
    cost_draws_.emplace_back(pid, cost);
    return cost;
  }

 private:
  struct RunVerdict {
    CheckOutcome outcome;
    bool truncated = false;
    bool blocked = false;
    bool frontier_hit = false;
  };

  /// The execution was cut short: sleep-blocked, or (enumerate mode) it
  /// reached the work-sharing frontier.  Every later decision defaults.
  bool aborted() const { return blocked_ || frontier_hit_; }

  bool dpor() const { return config_.reduction == Reduction::kSourceDpor; }
  bool sleepy() const { return config_.reduction != Reduction::kNone; }

  void init_simulation() {
    simulation_ = std::make_unique<sim::Simulation>(
        std::make_unique<ChoiceTiming>(this),
        sim::SimulationOptions{.seed = config_.seed, .strategy = this});
  }

  /// Claims the path slot at path_len_, recycling its heap buffers.  Nodes
  /// are pooled: advance() only ever rewinds path_len_, so a popped node's
  /// options/sleep/costs vectors keep their capacity for the next branch —
  /// after the first few executions the DFS allocates nothing per node.
  Node& fresh_node() {
    if (path_len_ == path_.size()) path_.emplace_back();
    Node& node = path_[path_len_++];
    node.options.clear();
    node.sleep.clear();
    node.costs.clear();
    node.chosen = 0;
    node.blocked = false;
    node.dpor_managed = false;
    node.explore_all = false;
    node.backtrack.clear();
    node.explored.clear();
    return node;
  }

  RunVerdict run_one(const CheckScenario& scenario);
  std::size_t decide_sched(const std::vector<sim::EnabledEvent>& options);
  std::size_t decide_cost(const sim::Duration* menu, std::size_t size);
  bool advance();
  obs::RecordedRun build_counterexample(const CheckScenario& scenario) const;

  // --- source-set DPOR: race detection over the current execution --------
  //
  // Every linearized shared access is one step; vector clocks over step
  // indices track happens-before (conflicting accesses are ordered by
  // linearization, so each access joins the clocks of the conflicting
  // accesses it observes).  A race is a pair of conflicting accesses by
  // different processes not ordered by anything *else* — exactly the
  // reversals whose other order a different tie-break could realize.

  std::vector<std::uint32_t>& clock_for(sim::Pid pid) {
    const auto index = static_cast<std::size_t>(pid);
    if (clocks_.size() <= index) clocks_.resize(index + 1);
    return clocks_[index];
  }

  static std::uint32_t clock_at(const std::vector<std::uint32_t>& clock,
                                sim::Pid pid) {
    const auto index = static_cast<std::size_t>(pid);
    return index < clock.size() ? clock[index] : 0;
  }

  static void clock_set(std::vector<std::uint32_t>& clock, sim::Pid pid,
                        std::uint32_t step) {
    const auto index = static_cast<std::size_t>(pid);
    if (clock.size() <= index) clock.resize(index + 1, 0);
    clock[index] = step;
  }

  static void clock_join(std::vector<std::uint32_t>& into,
                         const std::vector<std::uint32_t>& from) {
    if (into.size() < from.size()) into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i)
      into[i] = std::max(into[i], from[i]);
  }

  /// Records one linearized access at path node `node_index` and reports
  /// every race it closes against earlier conflicting accesses.
  void note_step(const sim::EnabledEvent& event, std::size_t node_index) {
    if (!race_detect_) return;
    const bool is_write = event.kind == sim::AccessKind::kWrite;
    if (!is_write && event.kind != sim::AccessKind::kRead) return;
    steps_dpor_.push_back(
        {event.pid, static_cast<std::uint32_t>(node_index)});
    const auto step = static_cast<std::uint32_t>(steps_dpor_.size());
    std::vector<std::uint32_t>& clock = clock_for(event.pid);
    RegTrack& track = reg_track_[event.reg];
    // Race candidates: the latest conflicting accesses this one is not
    // already ordered after.  (Earlier writes are ordered before the
    // latest write, so checking the latest of each kind suffices.)
    if (track.last_write != 0 && track.last_write_pid != event.pid &&
        clock_at(clock, track.last_write_pid) < track.last_write)
      note_race(track.last_write, event.pid);
    if (is_write) {
      for (const auto& [reader_pid, reader_step] : track.readers) {
        if (reader_pid != event.pid &&
            clock_at(clock, reader_pid) < reader_step)
          note_race(reader_step, event.pid);
      }
    }
    // Happens-before update: this access linearizes after every
    // conflicting access seen so far, raced or not.
    clock_join(clock, track.write_clock);
    if (is_write) clock_join(clock, track.read_clock);
    clock_set(clock, event.pid, step);
    if (is_write) {
      track.write_clock = clock;
      track.read_clock.clear();
      track.readers.clear();
      track.last_write = step;
      track.last_write_pid = event.pid;
    } else {
      clock_join(track.read_clock, clock);
      bool found = false;
      for (auto& [reader_pid, reader_step] : track.readers) {
        if (reader_pid == event.pid) {
          reader_step = step;
          found = true;
          break;
        }
      }
      if (!found) track.readers.emplace_back(event.pid, step);
    }
  }

  /// A race between step `earlier_step` and the current access of
  /// `racer_pid`: request the reversed order at the scheduling node that
  /// committed the earlier access.
  void note_race(std::uint32_t earlier_step, sim::Pid racer_pid) {
    const std::size_t node_index = steps_dpor_[earlier_step - 1].node;
    if (node_index < kGate) return;  // shallow region explores all
    ++stats_.races_detected;
    Node& node = path_[node_index];
    TFR_INVARIANT(node.kind == Node::Kind::kSched);
    TFR_INVARIANT(node.dpor_managed);
    if (node.explore_all) return;
    for (const sim::EnabledEvent& option : node.options) {
      if (option.pid != racer_pid) continue;
      // The racer was co-enabled with the earlier access: exploring its
      // subtree at that node realizes the reversal.
      if (!in_sleep(node.sleep, racer_pid) &&
          std::find(node.backtrack.begin(), node.backtrack.end(),
                    racer_pid) == node.backtrack.end())
        node.backtrack.push_back(racer_pid);
      return;
    }
    // The racer was not enabled at that instant (it raced from a later
    // one): the timed model offers no single node realizing the reversal,
    // so fall back to exploring every sibling — sound, never unsound.
    node.explore_all = true;
  }

  /// Keeps only the sleeping events independent of what just ran; the
  /// survivors seed the sleep set of the next fresh node.
  void filter_sleep(const std::vector<sim::EnabledEvent>& sleep,
                    const sim::EnabledEvent& chosen) {
    live_sleep_.clear();
    for (const sim::EnabledEvent& e : sleep) {
      if (!sim::events_dependent(e, chosen)) live_sleep_.push_back(e);
    }
  }

  ExploreConfig config_;
  Mode mode_;
  ExploreStats stats_;

  /// The one simulation object, reset() between executions so event-queue
  /// storage, stat vectors and trace buffers are reused (the re-execution
  /// fast path); run_until() gives the stop predicate static dispatch.
  std::unique_ptr<sim::Simulation> simulation_;

  // DFS path, persistent across executions.  path_len_ is the live length;
  // path_.size() is the pool high-water mark.
  std::vector<Node> path_;
  std::size_t path_len_ = 0;
  /// Worker mode: nodes below this depth are the frontier prefix — they
  /// replay but never advance; the subtree above them is this worker's.
  std::size_t fixed_depth_ = 0;

  // Per-execution state.
  std::size_t cursor_ = 0;
  std::vector<sim::EnabledEvent> live_sleep_;
  bool blocked_ = false;
  bool frontier_hit_ = false;
  std::uint64_t steps_ = 0;
  std::uint32_t slow_used_ = 0;
  std::uint32_t failures_used_ = 0;
  sim::Time last_failure_completion_ = -1;
  std::vector<std::pair<sim::Pid, sim::Duration>> cost_draws_;
  std::vector<sim::Pid> sched_picks_;

  // Per-execution race-detection state (kSourceDpor, serial/worker).
  /// One record per linearized shared access: who, and at which path node.
  struct StepRec {
    sim::Pid pid;
    std::uint32_t node;
  };
  /// Last-conflicting-access tracking per register uid.
  struct RegTrack {
    std::uint32_t last_write = 0;  ///< 1-based step index; 0 = none yet
    sim::Pid last_write_pid = -1;
    std::vector<std::uint32_t> write_clock;
    std::vector<std::uint32_t> read_clock;
    /// Per-pid latest read since the last write (the reads a new write
    /// conflicts with individually).
    std::vector<std::pair<sim::Pid, std::uint32_t>> readers;
  };
  bool race_detect_ = false;
  std::vector<StepRec> steps_dpor_;
  std::vector<std::vector<std::uint32_t>> clocks_;  ///< per-pid clocks
  std::unordered_map<std::uint64_t, RegTrack> reg_track_;
};

sim::Duration ChoiceTiming::access_cost(sim::Pid pid, sim::Time now,
                                        Rng& rng) {
  (void)rng;
  return engine_->draw_cost(pid, now);
}

std::size_t Explorer::decide_sched(
    const std::vector<sim::EnabledEvent>& options) {
  TFR_REQUIRE(!options.empty());
  if (cursor_ < path_len_) {
    // Replaying the stored prefix: same scenario + same prior choices
    // must reproduce the same enabled set (the simulator is
    // deterministic), so the stored pick is valid.
    Node& node = path_[cursor_];
    TFR_INVARIANT(node.kind == Node::Kind::kSched);
    TFR_INVARIANT(node.options.size() == options.size());
    TFR_INVARIANT(node.chosen < options.size());
    TFR_INVARIANT(node.options[node.chosen].pid == options[node.chosen].pid);
    const std::size_t node_index = cursor_;
    ++cursor_;
    filter_sleep(node.sleep, options[node.chosen]);
    note_step(options[node.chosen], node_index);
    return node.chosen;
  }

  if (mode_ == Mode::kEnumerate && path_len_ >= kGate) {
    // The execution is about to leave the shared prefix region: everything
    // below is one worker's subtree.
    frontier_hit_ = true;
    return 0;
  }

  // Divergence point: create a fresh node whose sleep set is inherited
  // from the path so far.
  Node& node = fresh_node();
  node.kind = Node::Kind::kSched;
  node.options = options;
  if (sleepy()) node.sleep = live_sleep_;
  std::size_t chosen = 0;
  if (sleepy()) {
    chosen = options.size();
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (!in_sleep(node.sleep, options[i].pid)) {
        chosen = i;
        break;
      }
    }
    if (chosen == options.size()) {
      // Every enabled event is asleep: this execution only permutes
      // independent events of ones already explored.  Cut it.
      node.blocked = true;
      blocked_ = true;
      ++stats_.sleep_blocked;
      ++cursor_;
      return 0;
    }
  }
  node.chosen = chosen;
  const std::size_t node_index = path_len_ - 1;
  if (dpor() && node_index >= kGate) {
    // Source-set discipline: only the first branch plus race-demanded
    // siblings get explored (advance() consumes backtrack/explored).
    node.dpor_managed = true;
    node.backtrack.push_back(options[chosen].pid);
    node.explored.assign(options.size(), 0);
    node.explored[chosen] = 1;
  }
  ++stats_.states;
  if (options.size() > 1) ++stats_.sched_choice_points;
  ++cursor_;
  filter_sleep(node.sleep, options[chosen]);
  note_step(options[chosen], node_index);
  return chosen;
}

std::size_t Explorer::decide_cost(const sim::Duration* menu,
                                  std::size_t size) {
  if (cursor_ < path_len_) {
    Node& node = path_[cursor_];
    TFR_INVARIANT(node.kind == Node::Kind::kCost);
    TFR_INVARIANT(node.costs.size() == size);
    ++cursor_;
    return node.chosen;
  }
  if (mode_ == Mode::kEnumerate && path_len_ >= kGate) {
    frontier_hit_ = true;
    return 0;
  }
  Node& node = fresh_node();
  node.kind = Node::Kind::kCost;
  node.costs.assign(menu, menu + size);
  ++stats_.states;
  ++stats_.cost_choice_points;
  ++cursor_;
  return 0;
}

Explorer::RunVerdict Explorer::run_one(const CheckScenario& scenario) {
  cursor_ = 0;
  live_sleep_.clear();
  blocked_ = false;
  frontier_hit_ = false;
  steps_ = 0;
  slow_used_ = 0;
  failures_used_ = 0;
  last_failure_completion_ = -1;
  cost_draws_.clear();
  sched_picks_.clear();
  if (race_detect_) {
    steps_dpor_.clear();
    for (std::vector<std::uint32_t>& clock : clocks_) clock.clear();
    // Register uids are identical across runs (allocation-order keys), so
    // entries are reset in place — the map stops allocating after run one.
    for (auto& [uid, track] : reg_track_) {
      (void)uid;
      track.last_write = 0;
      track.last_write_pid = -1;
      track.write_clock.clear();
      track.read_clock.clear();
      track.readers.clear();
    }
  }

  simulation_->reset(config_.seed);
  RunHarness harness = scenario(*simulation_);

  bool cutoff = false;
  const auto result =
      simulation_->run_until(config_.time_limit, [this, &harness, &cutoff] {
        if (aborted()) return true;
        if (steps_ >= config_.max_steps) {
          cutoff = true;
          return true;
        }
        if (harness.stop && harness.stop()) {
          cutoff = true;
          return true;
        }
        return false;
      });

  RunVerdict verdict;
  verdict.blocked = blocked_;
  verdict.frontier_hit = frontier_hit_;
  verdict.truncated =
      cutoff || result == sim::Simulation::RunResult::TimeLimit;
  if (!aborted() && harness.verdict) {
    RunInfo info;
    info.truncated = verdict.truncated;
    info.failures_injected = failures_used_;
    info.slow_accesses = slow_used_;
    info.last_failure_completion = last_failure_completion_;
    verdict.outcome = harness.verdict(info);
  }
  return verdict;
}

bool Explorer::advance() {
  while (path_len_ > fixed_depth_) {
    Node& node = path_[path_len_ - 1];
    if (node.blocked) {
      --path_len_;
      continue;
    }
    if (node.kind == Node::Kind::kSched) {
      if (node.dpor_managed) {
        // Source-set discipline: a sibling is entered only if some race in
        // an explored subtree demanded it (backtrack) — or every sibling,
        // once the conservative fallback fired.  The scan restarts from 0
        // because races may demand siblings at lower indices than chosen.
        node.sleep.push_back(node.options[node.chosen]);
        std::size_t next = node.options.size();
        for (std::size_t i = 0; i < node.options.size(); ++i) {
          if (node.explored[i]) continue;
          if (in_sleep(node.sleep, node.options[i].pid)) continue;
          if (!node.explore_all &&
              std::find(node.backtrack.begin(), node.backtrack.end(),
                        node.options[i].pid) == node.backtrack.end())
            continue;
          next = i;
          break;
        }
        if (next < node.options.size()) {
          node.chosen = next;
          node.explored[next] = 1;
          return true;
        }
        // Pop: attribute every never-entered sibling to its pruning cause.
        for (std::size_t i = 0; i < node.options.size(); ++i) {
          if (node.explored[i]) continue;
          if (in_sleep(node.sleep, node.options[i].pid))
            ++stats_.sleep_pruned;
          else
            ++stats_.source_pruned;
        }
      } else if (sleepy()) {
        // The subtree under `chosen` is fully explored; any sibling that
        // commutes with it would reach the same states — put it to sleep.
        node.sleep.push_back(node.options[node.chosen]);
        std::size_t next = node.chosen + 1;
        while (next < node.options.size() &&
               in_sleep(node.sleep, node.options[next].pid)) {
          ++stats_.sleep_pruned;
          ++next;
        }
        if (next < node.options.size()) {
          node.chosen = next;
          return true;
        }
      } else if (node.chosen + 1 < node.options.size()) {
        ++node.chosen;
        return true;
      }
    } else if (node.chosen + 1 < node.costs.size()) {
      ++node.chosen;
      return true;
    }
    --path_len_;
  }
  return false;
}

obs::RecordedRun Explorer::build_counterexample(
    const CheckScenario& scenario) const {
  obs::TimingSpec spec;
  spec.kind = obs::TimingSpec::Kind::kScripted;
  spec.lo = 1;
  spec.delta = config_.delta;
  spec.script = cost_draws_;
  spec.schedule = sched_picks_;
  return obs::record(config_.seed, spec,
                     counterexample_scenario(scenario, config_));
}

CheckResult Explorer::explore(const CheckScenario& scenario) {
  init_simulation();
  CheckResult result;
  for (;;) {
    ++stats_.executions;
    const RunVerdict verdict = run_one(scenario);
    if (verdict.truncated) ++stats_.truncated;
    if (!verdict.blocked && !verdict.outcome.ok) {
      result.violation = true;
      result.what = verdict.outcome.what;
      result.counterexample = build_counterexample(scenario);
      stats_.complete = false;
      break;
    }
    if (stats_.executions >= config_.max_executions) {
      stats_.complete = false;
      break;
    }
    if (!advance()) {
      stats_.complete = true;
      break;
    }
  }
  result.stats = stats_;
  return result;
}

Explorer::Frontier Explorer::enumerate(const CheckScenario& scenario) {
  init_simulation();
  Frontier frontier;
  for (;;) {
    const std::uint64_t transitions_before = stats_.transitions;
    const RunVerdict verdict = run_one(scenario);
    if (verdict.blocked) {
      // A sleep-blocked probe *is* a full execution in serial terms (the
      // cut happens before the frontier): enumerator-owned.
      ++stats_.executions;
      if (verdict.truncated) ++stats_.truncated;
    } else {
      // Frontier hit (a gate-depth subtree) or a leaf shorter than the
      // frontier (a one-execution subtree): the owning worker re-executes
      // and counts the run, so the probe's transition count is discarded.
      // Fresh prefix nodes stay counted here — serial creates them once,
      // and workers only ever replay them.
      stats_.transitions = transitions_before;
      WorkItem item;
      item.prefix.assign(path_.begin(),
                         path_.begin() + static_cast<std::ptrdiff_t>(path_len_));
      frontier.items.push_back(std::move(item));
      frontier.stats_at_item.push_back(stats_);
    }
    if (!advance()) break;
  }
  frontier.final_stats = stats_;
  return frontier;
}

CheckResult Explorer::explore_subtree(const CheckScenario& scenario,
                                      const WorkItem& item) {
  path_.assign(item.prefix.begin(), item.prefix.end());
  path_len_ = path_.size();
  fixed_depth_ = path_len_;
  return explore(scenario);
}

// --- worker result wire format (fork_map payload) ------------------------

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_blob(std::string& out, const std::string& bytes) {
  put_u64(out, bytes.size());
  out += bytes;
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    TFR_REQUIRE(pos_ < bytes_.size());
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint64_t u64() {
    TFR_REQUIRE(pos_ + 8 <= bytes_.size());
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos_ += 8;
    return v;
  }

  std::string blob() {
    const std::uint64_t size = u64();
    TFR_REQUIRE(size <= bytes_.size() - pos_);
    std::string out(bytes_.substr(pos_, size));
    pos_ += size;
    return out;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

std::string encode_result(const CheckResult& result) {
  std::string out;
  out.push_back(result.violation ? 1 : 0);
  out.push_back(result.stats.complete ? 1 : 0);
  put_u64(out, result.stats.executions);
  put_u64(out, result.stats.states);
  put_u64(out, result.stats.transitions);
  put_u64(out, result.stats.sched_choice_points);
  put_u64(out, result.stats.cost_choice_points);
  put_u64(out, result.stats.sleep_pruned);
  put_u64(out, result.stats.sleep_blocked);
  put_u64(out, result.stats.truncated);
  put_u64(out, result.stats.races_detected);
  put_u64(out, result.stats.source_pruned);
  put_blob(out, result.what);
  put_blob(out,
           result.violation ? result.counterexample.to_bytes() : std::string());
  return out;
}

CheckResult decode_result(std::string_view bytes) {
  ByteReader reader(bytes);
  CheckResult result;
  result.violation = reader.u8() != 0;
  result.stats.complete = reader.u8() != 0;
  result.stats.executions = reader.u64();
  result.stats.states = reader.u64();
  result.stats.transitions = reader.u64();
  result.stats.sched_choice_points = reader.u64();
  result.stats.cost_choice_points = reader.u64();
  result.stats.sleep_pruned = reader.u64();
  result.stats.sleep_blocked = reader.u64();
  result.stats.truncated = reader.u64();
  result.stats.races_detected = reader.u64();
  result.stats.source_pruned = reader.u64();
  result.what = reader.blob();
  const std::string cex = reader.blob();
  if (result.violation) {
    auto run = obs::RecordedRun::from_bytes(cex);
    TFR_REQUIRE(run.has_value());
    result.counterexample = std::move(*run);
  }
  return result;
}

/// True iff a worker payload reports a violation — cheap peek used by the
/// fork_map result hook to cancel subtrees past the first violating one.
bool payload_has_violation(const std::string& payload) {
  return !payload.empty() && payload[0] != 0;
}

// --- parallel driver -----------------------------------------------------

CheckResult check_parallel(const CheckScenario& scenario,
                           const ExploreConfig& config) {
  // Phase 1 (in-process): partition the tree at the gate (see kGate).
  Explorer enumerator(config, Explorer::Mode::kEnumerate);
  const Explorer::Frontier frontier = enumerator.enumerate(scenario);

  if (frontier.items.empty()) {
    // Degenerate: every probe was sleep-blocked; the enumerator's stats
    // are the whole exploration.
    CheckResult result;
    result.stats = frontier.final_stats;
    result.stats.complete = true;
    return result;
  }

  // Phase 2: one forked worker per subtree.  The child inherits the
  // scenario and its work item by memory image; only results cross back.
  // A reported violation cancels every *later* subtree — earlier ones
  // must still finish so the merged result is cut at the DFS-least
  // (lexicographically-least decision path) violation, independent of
  // which worker reported first.
  const std::vector<benchkit::ForkResult> raw = benchkit::fork_map(
      frontier.items.size(), config.jobs,
      [&scenario, &config, &frontier](std::size_t index) {
        Explorer worker(config, Explorer::Mode::kWorker);
        return encode_result(
            worker.explore_subtree(scenario, frontier.items[index]));
      },
      [](std::size_t index, const benchkit::ForkResult& result,
         benchkit::ForkMapControl& control) {
        if (result.completed && payload_has_violation(result.payload))
          control.skip_after(index);
      });

  // Phase 3: deterministic merge, in frontier (= DFS) order.
  std::vector<CheckResult> decoded;
  decoded.reserve(raw.size());
  for (const benchkit::ForkResult& result : raw) {
    if (result.skipped) break;  // beyond the violation cut, by construction
    TFR_REQUIRE(result.completed);
    decoded.push_back(decode_result(result.payload));
  }

  CheckResult merged;
  for (std::size_t v = 0; v < decoded.size(); ++v) {
    if (!decoded[v].violation) continue;
    // Serial state at this violation: enumerator work up to item v's
    // emission, the full subtrees before it, and subtree v's partial run.
    ExploreStats total = frontier.stats_at_item[v];
    for (std::size_t j = 0; j < v; ++j) add_counters(total, decoded[j].stats);
    add_counters(total, decoded[v].stats);
    total.complete = false;
    merged.violation = true;
    merged.what = decoded[v].what;
    merged.counterexample = decoded[v].counterexample;
    merged.stats = total;
    return merged;
  }

  ExploreStats total = frontier.final_stats;
  bool complete = true;
  for (const CheckResult& result : decoded) {
    add_counters(total, result.stats);
    complete = complete && result.stats.complete;
  }
  total.complete = complete;
  merged.stats = total;
  return merged;
}

}  // namespace

CheckResult check(const CheckScenario& scenario, const ExploreConfig& config) {
  if (config.jobs > 1) return check_parallel(scenario, config);
  Explorer explorer(config);
  return explorer.explore(scenario);
}

CheckOutcome run_recorded(const obs::RecordedRun& run,
                          const CheckScenario& scenario,
                          const ExploreConfig& config) {
  std::unique_ptr<sim::TimingModel> timing = obs::make_timing(run.timing);
  obs::ReplaySchedule replayer(run.timing.schedule);
  sim::Simulation simulation(
      std::move(timing),
      sim::SimulationOptions{.seed = run.seed, .strategy = &replayer});
  RunHarness harness = scenario(simulation);
  simulation.run(config.time_limit,
                 [&replayer] { return replayer.exhausted(); });

  RunInfo info;
  // A recorded counterexample is by construction a prefix of a longer
  // execution; report it as truncated so liveness-flavoured verdict
  // clauses stay out of the way and only safety is judged.
  info.truncated = true;
  for (const auto& [pid, cost] : run.timing.script) {
    (void)pid;
    if (cost > config.delta) {
      ++info.failures_injected;
    } else if (cost > 1) {
      ++info.slow_accesses;
    }
  }
  info.last_failure_completion = -1;
  return harness.verdict ? harness.verdict(info) : CheckOutcome{};
}

obs::Scenario counterexample_scenario(const CheckScenario& scenario,
                                      const ExploreConfig& config) {
  return [scenario, limit = config.time_limit](sim::Simulation& simulation) {
    RunHarness harness = scenario(simulation);
    simulation.run(limit, [&simulation] {
      const sim::SchedulerStrategy* strategy = simulation.strategy();
      return strategy != nullptr && strategy->exhausted();
    });
  };
}

}  // namespace tfr::mcheck
