// Wing–Gong linearizability checker.
//
// Decides whether a completed concurrent history is linearizable with
// respect to a sequential model: is there a total order of the operations,
// consistent with the history's real-time partial order (op A precedes op
// B iff A responded before B was invoked), in which every operation
// returns what the sequential model says it should?
//
// The search is the classic Wing–Gong recursion: repeatedly pick a
// *minimal* pending operation (one invoked before every unchosen
// operation's response), try it against the model, and backtrack on
// mismatch.  Exponential in the worst case, but a level costs only its
// candidates (plus a sort of them), so a nearly sequential history checks
// in O(n log n).  For histories of at most 64 operations, a memoization
// set over (chosen-set, model fingerprint) prunes re-exploration.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tfr/spec/history.hpp"

namespace tfr::spec {

/// A sequential specification.  apply() returns the result the operation
/// must produce from the current state, advancing the state.
class SequentialModel {
 public:
  virtual ~SequentialModel() = default;
  virtual std::unique_ptr<SequentialModel> clone() const = 0;
  virtual std::int64_t apply(const std::string& op, std::int64_t arg) = 0;
  /// Cheap state fingerprint for memoization (need not be perfect; it only
  /// prunes, correctness never depends on collisions being absent — a
  /// collision merely risks a false "already explored" prune, so models
  /// should fold their full state in).
  virtual std::uint64_t fingerprint() const = 0;
};

struct LinearizabilityResult {
  bool linearizable = false;
  /// A witness order (indices into the input) when linearizable.
  std::vector<std::size_t> witness;
  std::uint64_t states_explored = 0;
};

/// Checks `history` against `model` (which supplies the initial state).
LinearizabilityResult check_linearizable(const std::vector<Operation>& history,
                                         const SequentialModel& model);

// Ready-made models. ------------------------------------------------------

/// One-shot test-and-set bit: "tas" -> 0 first, 1 afterwards; "read" ->
/// current bit.
class TasModel final : public SequentialModel {
 public:
  std::unique_ptr<SequentialModel> clone() const override;
  std::int64_t apply(const std::string& op, std::int64_t arg) override;
  std::uint64_t fingerprint() const override { return bit_ ? 2 : 1; }

 private:
  bool bit_ = false;
};

/// Counter: "add" -> new value, "get" -> value.
class CounterModel final : public SequentialModel {
 public:
  std::unique_ptr<SequentialModel> clone() const override;
  std::int64_t apply(const std::string& op, std::int64_t arg) override;
  std::uint64_t fingerprint() const override {
    return static_cast<std::uint64_t>(value_) * 0x9e3779b97f4a7c15ULL + 1;
  }

 private:
  std::int64_t value_ = 0;
};

/// FIFO queue: "enqueue" -> size after, "dequeue" -> front or -1 if empty.
class QueueModel final : public SequentialModel {
 public:
  std::unique_ptr<SequentialModel> clone() const override;
  std::int64_t apply(const std::string& op, std::int64_t arg) override;
  std::uint64_t fingerprint() const override;

 private:
  std::vector<std::int64_t> items_;
};

/// Atomic register: "write" -> arg, "read" -> last written (init 0).
class RegisterModel final : public SequentialModel {
 public:
  std::unique_ptr<SequentialModel> clone() const override;
  std::int64_t apply(const std::string& op, std::int64_t arg) override;
  std::uint64_t fingerprint() const override {
    return static_cast<std::uint64_t>(value_) ^ 0xabcdef1234567890ULL;
  }

 private:
  std::int64_t value_ = 0;
};

}  // namespace tfr::spec
