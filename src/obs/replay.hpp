// Deterministic record / replay for simulator runs.
//
// The simulator is a pure function of (timing model, seed, scenario): the
// event queue breaks ties by FIFO sequence and all randomness flows from
// the seeded Rng.  A RecordedRun therefore captures everything needed to
// reproduce an execution: the seed, a serializable TimingSpec describing
// the timing model (base distribution + injected failure schedule), and
// the golden trace the run produced.  replay() rebuilds the model, re-runs
// the scenario and compares traces byte-for-byte — a flaky bench or a
// monitor violation becomes a saveable, re-runnable artifact.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tfr/obs/trace.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr::obs {

/// Serializable description of a timing model: a base distribution
/// (fixed, uniform, or phased/drifting access cost) optionally wrapped in
/// a FailureInjector with windowed and/or random timing failures — or,
/// for mcheck counterexamples, a fully scripted execution: per-access
/// costs plus the tie-break schedule the explorer chose.
struct TimingSpec {
  enum class Kind : std::uint8_t {
    kFixed = 0,
    kUniform = 1,
    kScripted = 2,
    kPhased = 3,  ///< drifting distribution: regime switches and ramps
  };

  Kind kind = Kind::kFixed;
  sim::Duration lo = 1;  ///< fixed cost, or uniform lower bound
  sim::Duration hi = 1;  ///< uniform upper bound (ignored for kFixed)

  /// kPhased: the drifting step-time regimes (sim::PhasedTiming).
  std::vector<sim::TimingPhase> phases;

  /// Δ of the FailureInjector wrapper; 0 = no wrapper (failure-free).
  sim::Duration delta = 0;
  std::vector<sim::FailureWindow> windows;
  double random_p = 0.0;
  sim::Duration random_stretch_max = 0;

  /// kScripted: the cost of every access, in global issue order, replayed
  /// per-pid FIFO through sim::ScriptedTiming (base: fixed cost `lo`).
  std::vector<std::pair<sim::Pid, sim::Duration>> script;
  /// kScripted: the pid chosen at each scheduler tie-break query, in
  /// order; replayed by a ReplaySchedule strategy.  An empty schedule
  /// keeps the simulator's FIFO tie-breaks.
  std::vector<sim::Pid> schedule;

  bool has_injector() const {
    return kind != Kind::kScripted && delta > 0 &&
           (!windows.empty() || random_p > 0.0);
  }
};

/// SchedulerStrategy that replays a recorded tie-break schedule: at each
/// query it picks the recorded pid.  Once the schedule is consumed it
/// reports exhausted() — the recorded execution is over — and defaults to
/// the lowest pid, so callers typically stop the run on exhausted().
class ReplaySchedule final : public sim::SchedulerStrategy {
 public:
  explicit ReplaySchedule(std::vector<sim::Pid> picks)
      : picks_(std::move(picks)) {}

  std::size_t pick(sim::Time now,
                   const std::vector<sim::EnabledEvent>& options) override;
  bool exhausted() const override { return position_ >= picks_.size(); }

 private:
  std::vector<sim::Pid> picks_;
  std::size_t position_ = 0;
};

/// Builds the timing model a spec describes.  When the spec carries an
/// injector, injected failures are emitted to `sink` (may be null).
std::unique_ptr<sim::TimingModel> make_timing(const TimingSpec& spec,
                                              TraceSink* sink = nullptr);

/// The scenario body: build algorithm objects inside the simulation, spawn
/// processes, run.  Must derive all randomness from the simulation's Rng
/// so that (spec, seed) fully determine the execution.
using Scenario = std::function<void(sim::Simulation&)>;

/// A reproducible execution: inputs plus the golden trace (binary-encoded).
struct RecordedRun {
  std::uint64_t seed = 1;
  TimingSpec timing;
  std::string trace;  ///< encode_binary() of the recorded trace

  /// Flat serialization of the whole artifact (seed + spec + trace).
  std::string to_bytes() const;
  static std::optional<RecordedRun> from_bytes(std::string_view bytes);
  bool save(const std::string& path) const;
  static std::optional<RecordedRun> load(const std::string& path);
};

/// Runs `scenario` under (spec, seed) with a fresh TraceSink attached and
/// returns the artifact.
RecordedRun record(std::uint64_t seed, const TimingSpec& spec,
                   const Scenario& scenario);

struct ReplayResult {
  bool identical = false;    ///< replayed trace == recorded trace, bytewise
  std::size_t first_divergence = 0;  ///< event index; meaningful if !identical
  std::string trace;         ///< binary encoding of the replayed trace
};

/// Re-runs the recorded execution and compares traces byte-for-byte.
ReplayResult replay(const RecordedRun& run, const Scenario& scenario);

}  // namespace tfr::obs
