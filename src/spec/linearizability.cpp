#include "tfr/spec/linearizability.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "tfr/common/contracts.hpp"
#include "tfr/common/rng.hpp"

namespace tfr::spec {

namespace {

/// Wing–Gong search with the minimal candidates of each level read off
/// two doubly linked lists of the unchosen operations — one in invocation
/// order, one in response order — instead of two full scans.  Choosing an
/// operation unlinks it from both lists and backtracking relinks it in
/// LIFO order (dancing links), so the minimum response is always the head
/// of the response list and the candidates are the prefix of the
/// invocation list invoked no later than it.  Candidates are tried in
/// input-index order, exactly as a scan would find them, so the verdict,
/// the witness and the explored-state count do not depend on this
/// representation.  The search is iterative: a sequential history of n
/// operations checks in O(n log n) time without deep recursion.
class Checker {
 public:
  Checker(const std::vector<Operation>& ops, const SequentialModel& model)
      : ops_(ops), root_(model.clone()) {
    const std::size_t n = ops.size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    by_invoke_ = link(order, [&](std::size_t a, std::size_t b) {
      return ops[a].invoked_at < ops[b].invoked_at;
    });
    by_response_ = link(order, [&](std::size_t a, std::size_t b) {
      return ops[a].responded_at < ops[b].responded_at;
    });
  }

  LinearizabilityResult run() {
    LinearizabilityResult result;
    result.linearizable = search();
    result.states_explored = explored_;
    if (result.linearizable) result.witness = order_;
    return result;
  }

 private:
  /// Unchosen operations in one order; node ops_.size() is the sentinel.
  struct List {
    std::vector<std::size_t> prev;
    std::vector<std::size_t> next;

    std::size_t head() const { return next.back(); }
    void unlink(std::size_t i) {
      next[prev[i]] = next[i];
      prev[next[i]] = prev[i];
    }
    void relink(std::size_t i) {
      next[prev[i]] = i;
      prev[next[i]] = i;
    }
  };

  /// One search level: the model state after the chosen prefix and the
  /// level's candidates, cands_[begin, end).
  struct Level {
    std::unique_ptr<SequentialModel> model;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t next = 0;       ///< next candidate to try
    std::size_t chosen = kNone; ///< candidate currently descended into
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  template <class Less>
  List link(std::vector<std::size_t> order, Less less) const {
    std::stable_sort(order.begin(), order.end(), less);
    const std::size_t sentinel = ops_.size();
    List list;
    list.prev.assign(sentinel + 1, sentinel);
    list.next.assign(sentinel + 1, sentinel);
    std::size_t last = sentinel;
    for (std::size_t i : order) {
      list.next[last] = i;
      list.prev[i] = last;
      last = i;
    }
    list.next[last] = sentinel;
    list.prev[sentinel] = last;
    return list;
  }

  /// Enters a level: counts the state and, unless every operation is
  /// chosen, collects its minimal candidates.  True when the level is a
  /// complete linearization.
  bool enter(std::unique_ptr<SequentialModel> model) {
    ++explored_;
    Level level;
    level.model = std::move(model);
    level.begin = level.next = cands_.size();
    const bool complete = order_.size() == ops_.size();
    if (!complete) {
      // Real-time constraint: an operation may be linearized next only if
      // no *unchosen* operation completed before it was invoked.
      const std::int64_t min_response =
          ops_[by_response_.head()].responded_at;
      const std::size_t sentinel = ops_.size();
      for (std::size_t i = by_invoke_.head();
           i != sentinel && ops_[i].invoked_at <= min_response;
           i = by_invoke_.next[i]) {
        cands_.push_back(i);
      }
      std::sort(cands_.begin() + static_cast<std::ptrdiff_t>(level.begin),
                cands_.end());
    }
    level.end = cands_.size();
    levels_.push_back(std::move(level));
    return complete;
  }

  void choose(std::size_t i) {
    by_invoke_.unlink(i);
    by_response_.unlink(i);
    order_.push_back(i);
    if (ops_.size() <= 64) mask_ |= std::uint64_t{1} << i;
  }

  void release(std::size_t i) {
    by_response_.relink(i);
    by_invoke_.relink(i);
    order_.pop_back();
    if (ops_.size() <= 64) mask_ &= ~(std::uint64_t{1} << i);
  }

  bool search() {
    if (enter(std::move(root_))) return true;
    while (!levels_.empty()) {
      Level& level = levels_.back();
      if (level.chosen != kNone) {
        release(level.chosen);
        level.chosen = kNone;
      }
      std::unique_ptr<SequentialModel> next;
      while (level.next < level.end) {
        const std::size_t i = cands_[level.next++];
        auto candidate = level.model->clone();
        const std::int64_t produced =
            candidate->apply(ops_[i].op, ops_[i].arg);
        if (produced != ops_[i].result) continue;  // model disagrees
        if (ops_.size() <= 64) {
          const std::uint64_t mask = mask_ | (std::uint64_t{1} << i);
          if (!seen_.insert({mask, candidate->fingerprint()}).second)
            continue;
        }
        level.chosen = i;
        next = std::move(candidate);
        break;
      }
      if (next == nullptr) {
        cands_.resize(level.begin);
        levels_.pop_back();
        continue;
      }
      choose(level.chosen);
      if (enter(std::move(next))) return true;
    }
    return false;
  }

  const std::vector<Operation>& ops_;
  std::unique_ptr<SequentialModel> root_;
  List by_invoke_;
  List by_response_;
  std::vector<Level> levels_;
  std::vector<std::size_t> cands_;
  std::vector<std::size_t> order_;
  std::uint64_t mask_ = 0;  ///< chosen set, for histories of <= 64 ops
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen_;
  std::uint64_t explored_ = 0;
};

}  // namespace

LinearizabilityResult check_linearizable(const std::vector<Operation>& history,
                                         const SequentialModel& model) {
  Checker checker(history, model);
  return checker.run();
}

// --------------------------------------------------------------------------
// Models

std::unique_ptr<SequentialModel> TasModel::clone() const {
  return std::make_unique<TasModel>(*this);
}

std::int64_t TasModel::apply(const std::string& op, std::int64_t) {
  if (op == "tas") {
    if (bit_) return 1;
    bit_ = true;
    return 0;
  }
  if (op == "read") return bit_ ? 1 : 0;
  TFR_REQUIRE(!"unknown TAS operation");
  return -1;
}

std::unique_ptr<SequentialModel> CounterModel::clone() const {
  return std::make_unique<CounterModel>(*this);
}

std::int64_t CounterModel::apply(const std::string& op, std::int64_t arg) {
  if (op == "add") {
    value_ += arg;
    return value_;
  }
  if (op == "get") return value_;
  TFR_REQUIRE(!"unknown counter operation");
  return -1;
}

std::unique_ptr<SequentialModel> QueueModel::clone() const {
  return std::make_unique<QueueModel>(*this);
}

std::int64_t QueueModel::apply(const std::string& op, std::int64_t arg) {
  if (op == "enqueue") {
    items_.push_back(arg);
    return static_cast<std::int64_t>(items_.size());
  }
  if (op == "dequeue") {
    if (items_.empty()) return -1;
    const std::int64_t front = items_.front();
    items_.erase(items_.begin());
    return front;
  }
  TFR_REQUIRE(!"unknown queue operation");
  return -1;
}

std::uint64_t QueueModel::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::int64_t v : items_) {
    h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    h *= 0x100000001b3ULL;
  }
  return h ^ items_.size();
}

std::unique_ptr<SequentialModel> RegisterModel::clone() const {
  return std::make_unique<RegisterModel>(*this);
}

std::int64_t RegisterModel::apply(const std::string& op, std::int64_t arg) {
  if (op == "write") {
    value_ = arg;
    return arg;
  }
  if (op == "read") return value_;
  TFR_REQUIRE(!"unknown register operation");
  return -1;
}

}  // namespace tfr::spec
