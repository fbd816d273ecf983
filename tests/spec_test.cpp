// Unit tests for the history recorder and the Wing-Gong linearizability
// checker, against hand-constructed histories with known verdicts.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/common/rng.hpp"
#include "tfr/spec/history.hpp"
#include "tfr/spec/linearizability.hpp"

namespace tfr::spec {
namespace {

Operation op(int thread, const char* name, std::int64_t arg,
             std::int64_t result, std::int64_t from, std::int64_t to) {
  return Operation{thread, name, arg, result, from, to};
}

TEST(History, RecordsAndCompletes) {
  History h;
  const auto a = h.invoke(0, "add", 5, 10);
  const auto b = h.invoke(1, "get", 0, 12);
  h.respond(a, 5, 20);
  EXPECT_EQ(h.size(), 2u);
  const auto done = h.completed();
  ASSERT_EQ(done.size(), 1u);  // b never responded
  EXPECT_EQ(done[0].op, "add");
  EXPECT_EQ(done[0].result, 5);
  EXPECT_EQ(done[0].invoked_at, 10);
  EXPECT_EQ(done[0].responded_at, 20);
  (void)b;
}

TEST(History, RejectsDoubleResponse) {
  History h;
  const auto a = h.invoke(0, "x", 0, 0);
  h.respond(a, 0, 1);
  EXPECT_THROW(h.respond(a, 0, 2), ContractViolation);
}

TEST(History, RejectsResponseBeforeInvoke) {
  History h;
  const auto a = h.invoke(0, "x", 0, 10);
  EXPECT_THROW(h.respond(a, 0, 5), ContractViolation);
}

TEST(Linearizability, EmptyHistoryIsLinearizable) {
  const auto verdict = check_linearizable({}, CounterModel{});
  EXPECT_TRUE(verdict.linearizable);
}

TEST(Linearizability, SequentialCounterOk) {
  std::vector<Operation> h{
      op(0, "add", 1, 1, 0, 10),
      op(0, "add", 2, 3, 20, 30),
      op(0, "get", 0, 3, 40, 50),
  };
  EXPECT_TRUE(check_linearizable(h, CounterModel{}).linearizable);
}

TEST(Linearizability, SequentialCounterWrongResult) {
  std::vector<Operation> h{
      op(0, "add", 1, 1, 0, 10),
      op(0, "get", 0, 99, 20, 30),
  };
  EXPECT_FALSE(check_linearizable(h, CounterModel{}).linearizable);
}

TEST(Linearizability, ConcurrentOpsMayReorder) {
  // get overlaps the add: may linearize before (0) — here it returned 0.
  std::vector<Operation> h{
      op(0, "add", 5, 5, 0, 100),
      op(1, "get", 0, 0, 10, 20),
  };
  EXPECT_TRUE(check_linearizable(h, CounterModel{}).linearizable);
}

TEST(Linearizability, RealTimeOrderIsRespected) {
  // get strictly AFTER the add completed must see 5; it saw 0.
  std::vector<Operation> h{
      op(0, "add", 5, 5, 0, 10),
      op(1, "get", 0, 0, 20, 30),
  };
  EXPECT_FALSE(check_linearizable(h, CounterModel{}).linearizable);
}

TEST(Linearizability, TasExactlyOneWinnerOk) {
  std::vector<Operation> h{
      op(0, "tas", 0, 0, 0, 50),
      op(1, "tas", 0, 1, 10, 60),
      op(2, "tas", 0, 1, 20, 70),
  };
  EXPECT_TRUE(check_linearizable(h, TasModel{}).linearizable);
}

TEST(Linearizability, TasTwoWinnersRejected) {
  std::vector<Operation> h{
      op(0, "tas", 0, 0, 0, 50),
      op(1, "tas", 0, 0, 10, 60),
  };
  EXPECT_FALSE(check_linearizable(h, TasModel{}).linearizable);
}

TEST(Linearizability, TasLateWinnerAfterLoserRejected) {
  // Loser (returned 1) completed before the winner was invoked: no legal
  // order exists (the bit must have been set by someone before the loser,
  // but the only other op started later).
  std::vector<Operation> h{
      op(0, "tas", 0, 1, 0, 10),
      op(1, "tas", 0, 0, 20, 30),
  };
  EXPECT_FALSE(check_linearizable(h, TasModel{}).linearizable);
}

TEST(Linearizability, QueueFifoOk) {
  std::vector<Operation> h{
      op(0, "enqueue", 1, 1, 0, 10),
      op(0, "enqueue", 2, 2, 20, 30),
      op(1, "dequeue", 0, 1, 40, 50),
      op(1, "dequeue", 0, 2, 60, 70),
  };
  EXPECT_TRUE(check_linearizable(h, QueueModel{}).linearizable);
}

TEST(Linearizability, QueueLifoRejected) {
  std::vector<Operation> h{
      op(0, "enqueue", 1, 1, 0, 10),
      op(0, "enqueue", 2, 2, 20, 30),
      op(1, "dequeue", 0, 2, 40, 50),  // LIFO order: illegal for a queue
      op(1, "dequeue", 0, 1, 60, 70),
  };
  EXPECT_FALSE(check_linearizable(h, QueueModel{}).linearizable);
}

TEST(Linearizability, QueueConcurrentEnqueuesEitherOrder) {
  // The two enqueues overlap; the recorded results (enqueue(2) saw size 1,
  // enqueue(1) saw size 2) force the order e2 < e1, and the dequeues agree.
  std::vector<Operation> h{
      op(0, "enqueue", 1, 2, 0, 100),
      op(1, "enqueue", 2, 1, 0, 100),
      op(2, "dequeue", 0, 2, 200, 210),
      op(2, "dequeue", 0, 1, 220, 230),
  };
  EXPECT_TRUE(check_linearizable(h, QueueModel{}).linearizable);
}

TEST(Linearizability, DequeueEmptyRule) {
  std::vector<Operation> h{
      op(0, "dequeue", 0, -1, 0, 10),
      op(0, "enqueue", 7, 1, 20, 30),
      op(0, "dequeue", 0, 7, 40, 50),
  };
  EXPECT_TRUE(check_linearizable(h, QueueModel{}).linearizable);
}

TEST(Linearizability, RegisterReadMustSeeLatestWrite) {
  std::vector<Operation> h{
      op(0, "write", 1, 1, 0, 10),
      op(1, "write", 2, 2, 20, 30),
      op(2, "read", 0, 1, 40, 50),  // stale read after write(2) completed
  };
  EXPECT_FALSE(check_linearizable(h, RegisterModel{}).linearizable);
}

TEST(Linearizability, RegisterConcurrentWriteReadOk) {
  std::vector<Operation> h{
      op(0, "write", 1, 1, 0, 10),
      op(1, "write", 2, 2, 20, 60),
      op(2, "read", 0, 1, 30, 40),  // overlaps write(2): may precede it
  };
  EXPECT_TRUE(check_linearizable(h, RegisterModel{}).linearizable);
}

TEST(Linearizability, WitnessOrderIsValid) {
  std::vector<Operation> h{
      op(0, "add", 5, 5, 0, 100),
      op(1, "get", 0, 0, 10, 20),
  };
  const auto verdict = check_linearizable(h, CounterModel{});
  ASSERT_TRUE(verdict.linearizable);
  ASSERT_EQ(verdict.witness.size(), 2u);
  // The witness must place the get (index 1) before the add (index 0).
  EXPECT_EQ(verdict.witness.front(), 1u);
}

TEST(Linearizability, LargerHistoryStaysTractable) {
  // 3 threads x 4 sequential counter ops with full overlap freedom across
  // threads: exercises the memoized search.
  std::vector<Operation> h;
  std::int64_t per_thread_total[3] = {0, 0, 0};
  for (int t = 0; t < 3; ++t) {
    for (int k = 0; k < 4; ++k) {
      // Give every op the same wide window so all interleavings are live.
      per_thread_total[t] += 1;
      h.push_back(op(t, "add", 1, 0, k * 10, k * 10 + 1000));
    }
  }
  // Results must be *some* permutation-consistent values; use a simple
  // sequential-consistent assignment: thread t's i-th add returns
  // 3*i + t + 1 (round-robin order t0,t1,t2,t0,...).
  for (int t = 0; t < 3; ++t) {
    for (int k = 0; k < 4; ++k) {
      h[static_cast<std::size_t>(t * 4 + k)].result = 3 * k + t + 1;
    }
  }
  const auto verdict = check_linearizable(h, CounterModel{});
  EXPECT_TRUE(verdict.linearizable);
  EXPECT_GT(verdict.states_explored, 0u);
}

// --- Differential check against the scanning search ------------------------

/// The textbook Wing–Gong search, kept as the reference: every level scans
/// all operations for the minimum response, then again for the minimal
/// candidates (O(n^2) on a sequential history).  check_linearizable() must
/// agree with it on verdict, witness and explored-state count.
class ReferenceChecker {
 public:
  ReferenceChecker(const std::vector<Operation>& ops,
                   const SequentialModel& model)
      : ops_(ops), chosen_(ops.size(), false), root_(model.clone()) {}

  LinearizabilityResult run() {
    LinearizabilityResult result;
    result.linearizable = dfs(*root_);
    result.states_explored = explored_;
    if (result.linearizable) result.witness = order_;
    return result;
  }

 private:
  bool dfs(SequentialModel& model) {
    ++explored_;
    if (order_.size() == ops_.size()) return true;
    std::int64_t min_response = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (!chosen_[i])
        min_response = std::min(min_response, ops_[i].responded_at);
    }
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (chosen_[i]) continue;
      if (ops_[i].invoked_at > min_response) continue;  // not minimal
      auto next = model.clone();
      const std::int64_t produced = next->apply(ops_[i].op, ops_[i].arg);
      if (produced != ops_[i].result) continue;  // model disagrees
      if (ops_.size() <= 64) {
        std::uint64_t mask = std::uint64_t{1} << i;
        for (std::size_t j = 0; j < ops_.size(); ++j)
          if (chosen_[j]) mask |= std::uint64_t{1} << j;
        if (!seen_.insert({mask, next->fingerprint()}).second) continue;
      }
      chosen_[i] = true;
      order_.push_back(i);
      if (dfs(*next)) return true;
      order_.pop_back();
      chosen_[i] = false;
    }
    return false;
  }

  const std::vector<Operation>& ops_;
  std::vector<bool> chosen_;
  std::unique_ptr<SequentialModel> root_;
  std::vector<std::size_t> order_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen_;
  std::uint64_t explored_ = 0;
};

enum class Shape { kRegister, kQueue };

/// A linearizable history: `threads` clients issue `count` operations in
/// total, each with a random interval and a linearization point inside it;
/// results come from applying the operations in linearization-point
/// order.  Input order is shuffled so index order and time order differ.
std::vector<Operation> random_history(Rng& rng, Shape shape, int threads,
                                      int count, std::int64_t max_gap) {
  struct Pending {
    Operation op;
    std::int64_t point;
  };
  std::vector<Pending> ops;
  std::vector<std::int64_t> clock(static_cast<std::size_t>(threads), 0);
  for (int k = 0; k < count; ++k) {
    const int t = static_cast<int>(rng.index(static_cast<std::size_t>(threads)));
    std::int64_t& now = clock[static_cast<std::size_t>(t)];
    const std::int64_t from = now + rng.uniform(0, max_gap);
    const std::int64_t to = from + rng.uniform(1, 12);
    now = to;
    const bool update = rng.bernoulli(0.5);
    const char* name = shape == Shape::kRegister
                           ? (update ? "write" : "read")
                           : (update ? "enqueue" : "dequeue");
    ops.push_back({Operation{t, name, k + 1, 0, from, to},
                   rng.uniform(from, to)});
  }
  std::vector<std::size_t> by_point(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) by_point[i] = i;
  std::stable_sort(by_point.begin(), by_point.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ops[a].point < ops[b].point;
                   });
  std::unique_ptr<SequentialModel> model;
  if (shape == Shape::kRegister) {
    model = std::make_unique<RegisterModel>();
  } else {
    model = std::make_unique<QueueModel>();
  }
  for (std::size_t i : by_point)
    ops[i].op.result = model->apply(ops[i].op.op, ops[i].op.arg);
  rng.shuffle(ops);
  std::vector<Operation> history;
  for (Pending& p : ops) history.push_back(std::move(p.op));
  return history;
}

/// Plants a violation: one of the first observers (reads or dequeues, by
/// invocation) returns a value that no operation ever wrote or enqueued.
/// Early, because refuting a history backtracks over every order of the
/// operations before the bad one, and above 64 operations nothing prunes
/// that search.
void plant_violation(Rng& rng, std::vector<Operation>& history) {
  std::vector<std::size_t> observers;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].op == "read" || history[i].op == "dequeue")
      observers.push_back(i);
  }
  ASSERT_FALSE(observers.empty());
  std::sort(observers.begin(), observers.end(),
            [&](std::size_t a, std::size_t b) {
              return history[a].invoked_at < history[b].invoked_at;
            });
  Operation& victim =
      history[observers[rng.index(std::min<std::size_t>(observers.size(), 12))]];
  victim.result = rng.bernoulli(0.5)
                      ? victim.result + 1'000'000
                      : static_cast<std::int64_t>(history.size()) + 7;
}

void expect_same_search(const std::vector<Operation>& history,
                        const SequentialModel& model, bool expected) {
  const LinearizabilityResult fast = check_linearizable(history, model);
  const LinearizabilityResult reference =
      ReferenceChecker(history, model).run();
  EXPECT_EQ(fast.linearizable, expected);
  EXPECT_EQ(fast.linearizable, reference.linearizable);
  EXPECT_EQ(fast.witness, reference.witness);
  EXPECT_EQ(fast.states_explored, reference.states_explored);
}

void differential_sweep(Shape shape, int count, int threads,
                        std::int64_t max_gap) {
  const RegisterModel reg;
  const QueueModel queue;
  const SequentialModel& model =
      shape == Shape::kRegister ? static_cast<const SequentialModel&>(reg)
                                : static_cast<const SequentialModel&>(queue);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(count));
    std::vector<Operation> history =
        random_history(rng, shape, threads, count, max_gap);
    expect_same_search(history, model, true);
    plant_violation(rng, history);
    expect_same_search(history, model, false);
  }
}

TEST(LinearizabilityDifferential, RegisterHistoriesUpTo64Ops) {
  differential_sweep(Shape::kRegister, 40, 4, 3);
}

TEST(LinearizabilityDifferential, QueueHistoriesUpTo64Ops) {
  differential_sweep(Shape::kQueue, 48, 3, 3);
}

// Above 64 operations the search runs without its memo, so the histories
// keep few overlaps per level: wider ones would make both searches slow.
TEST(LinearizabilityDifferential, RegisterHistoriesAbove64Ops) {
  differential_sweep(Shape::kRegister, 150, 2, 8);
}

TEST(LinearizabilityDifferential, QueueHistoriesAbove64Ops) {
  differential_sweep(Shape::kQueue, 120, 2, 8);
}

TEST(LinearizabilityDifferential, SequentialHistoryOf100kOpsChecksFast) {
  std::vector<Operation> history;
  constexpr int kOps = 100'000;
  history.reserve(kOps);
  std::int64_t value = 0;
  for (int k = 0; k < kOps; ++k) {
    const bool write = k % 3 == 0;
    if (write) value = k;
    history.push_back(op(0, write ? "write" : "read", write ? k : 0, value,
                         10 * k, 10 * k + 5));
  }
  const auto start = std::chrono::steady_clock::now();
  const LinearizabilityResult verdict =
      check_linearizable(history, RegisterModel{});
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(verdict.linearizable);
  ASSERT_EQ(verdict.witness.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i)
    ASSERT_EQ(verdict.witness[i], i);
  EXPECT_EQ(verdict.states_explored, history.size() + 1);
  EXPECT_LT(seconds, 1.0);
}

}  // namespace
}  // namespace tfr::spec
