// Algorithm 1 on real threads: wait-free binary consensus resilient to
// timing failures, built from atomic registers only.
//
// Mirrors core/consensus_sim.hpp line for line; see that header for the
// round structure and the theorem list.  Here Δ is wall-clock
// (nanoseconds) and should be an optimistic(Δ) for the host (§3.3): safety
// never depends on it, a too-small value only costs extra rounds.
//
// The class is a template over the Atomics policy (rt/atomics_policy.hpp).
// RtConsensus = BasicRtConsensus<StdAtomics> is the production object
// (std::atomic registers, busy-wait delay), explicitly instantiated in
// consensus_rt.cpp; BasicRtConsensus<ShimAtomics> runs the same round
// loop under the model checker (mcheck/rt_scenarios.cpp).  The round loop
// exists once, in run_rounds(): RtConsensus runs it on lane 0 of its own
// arrays, RtMultiConsensus (derived/derived_rt.hpp) on one lane per bit.
//
// An optional FaultInjector stalls the caller at named points, emulating
// preemption-induced timing failures:
//   "consensus.after_flag"      — between line 2 and line 3
//   "consensus.after_read_y"    — between reading and writing y[r]
//   "consensus.before_decide"   — before line 4's decide write

#pragma once

#include <cstddef>
#include <cstdint>

#include "tfr/common/contracts.hpp"
#include "tfr/registers/atomic_register.hpp"
#include "tfr/registers/fault_injector.hpp"
#include "tfr/registers/register_array.hpp"
#include "tfr/rt/atomics_policy.hpp"

namespace tfr::rt {

template <class Atomics>
class BasicRtConsensus {
 public:
  static constexpr int kBot = -1;

  using Register = BasicAtomicRegister<int, Atomics>;

  struct Config {
    /// optimistic(Δ) used by delay()
    typename Atomics::duration delta{1000};
    FaultInjector* faults = nullptr;  ///< optional failure injection
  };

  explicit BasicRtConsensus(Config config)
      : config_(config), x0_(0), x1_(0), y_(kBot), decide_(kBot) {
    TFR_REQUIRE(Atomics::count(config.delta) >= 0);
  }

  BasicRtConsensus(const BasicRtConsensus&) = delete;
  BasicRtConsensus& operator=(const BasicRtConsensus&) = delete;

  struct Result {
    int value = kBot;
    std::uint64_t rounds = 0;  ///< rounds entered by this caller (>= 1)
    std::uint64_t steps = 0;   ///< shared accesses by this caller
    std::uint64_t delays = 0;  ///< delay statements executed
  };

  /// Proposes `input` (0/1) on behalf of the calling thread and blocks
  /// until a decision is reached.  Wait-free once timing holds: progress
  /// does not depend on any other thread taking steps.
  Result propose(int input) {
    return run_rounds(x0_, x1_, y_, decide_, 1, 0, input, config_);
  }

  /// Convenience wrapper returning only the decision.
  int propose_value(int input) { return propose(input).value; }

  /// Snapshot of the decide register (kBot while undecided).
  int decided() const { return decide_.read(); }

  /// Algorithm 1's round loop.  Round r of `lane` flags x0/x1 and
  /// proposes into y at index r * stride + lane; `decide` is the lane's
  /// decide register.  Arrays start at 0 (flags) and kBot (proposals).
  template <class Array>
  static Result run_rounds(Array& x0, Array& x1, Array& y, Register& decide,
                           std::size_t stride, std::size_t lane, int input,
                           const Config& config) {
    TFR_REQUIRE(input == 0 || input == 1);
    Result result;
    int v = input;
    std::size_t r = 0;
    for (;;) {
      const std::size_t cell = r * stride + lane;
      // Line 1: while decide = ⊥ (also completes the 7-step fast path).
      ++result.steps;
      const int decided = decide.read();
      if (decided != kBot) {
        result.value = decided;
        result.rounds = r + 1;
        return result;
      }
      // Line 2: flag our preference for round r.
      ++result.steps;
      (v == 0 ? x0 : x1).at(cell).write(1);
      maybe_stall(config.faults, "consensus.after_flag");
      // Line 3: publish v as the round's proposal if none is there yet.
      ++result.steps;
      const int proposal = y.at(cell).read();
      maybe_stall(config.faults, "consensus.after_read_y");
      if (proposal == kBot) {
        ++result.steps;
        y.at(cell).write(v);
      }
      // Line 4: if nobody flagged the conflicting preference, decide.
      ++result.steps;
      const int conflicting = (v == 0 ? x1 : x0).at(cell).read();
      if (conflicting == 0) {
        maybe_stall(config.faults, "consensus.before_decide");
        ++result.steps;
        decide.write(v);
      } else {
        // Lines 5-7: wait out the bound, adopt the proposal, retry.
        ++result.delays;
        Atomics::delay(config.delta);
        ++result.steps;
        v = y.at(cell).read();
        TFR_INVARIANT(v != kBot);
        r += 1;
      }
    }
  }

 private:
  using Array = RegisterArray<int, 1024, 4096, Atomics>;

  Config config_;
  Array x0_;
  Array x1_;
  Array y_;
  Register decide_;
};

using RtConsensus = BasicRtConsensus<StdAtomics>;

// The production instantiation lives in consensus_rt.cpp.
extern template class BasicRtConsensus<StdAtomics>;

}  // namespace tfr::rt
