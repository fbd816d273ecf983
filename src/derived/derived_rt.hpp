// Derived wait-free objects built from Algorithm 1 (§1.4): multi-valued
// consensus, leader election, test-and-set, n-renaming, k-set consensus,
// a long-lived test-and-set and Herlihy's universal construction.
//
// Each object exists once, as a template over the Atomics policy
// (rt/atomics_policy.hpp), like BasicRtConsensus.  The Rt* names are the
// production StdAtomics instantiations (std::atomic registers, wall-clock
// Δ), explicitly instantiated in derived_rt.cpp.  The ShimAtomics
// instantiations run the same code as fibers in a sim::Simulation
// (rt/shim/rt_exec.hpp): experiment E11, the derived-object tests and the
// leader-election example measure and check them that way.
//
//   BasicRtMultiConsensus — bitwise prefix agreement over per-bit
//                      instances of Algorithm 1.  Before proposing bit b
//                      at position k, a process publishes its whole
//                      candidate in witness[k][b]; a process whose bit
//                      loses adopts the witness for the winning bit, which
//                      (a) was written before that bit could win, (b)
//                      matches the agreed prefix through position k and
//                      (c) is some process's input.  After all positions
//                      the agreed bit string is the decided value.  Each
//                      bit runs BasicRtConsensus::run_rounds on its own
//                      lane of shared register arrays (indexed by
//                      round * bits + bit), which keeps one instance a few
//                      KB, so the universal construction can afford one
//                      instance per log slot.
//   BasicRtElection  — everyone proposes its own id; the decision is the
//                      leader.
//   BasicRtTestAndSet — the election's winner reads 0, the rest read 1.
//   BasicRtRenaming  — one multi-valued instance per name slot; a process
//                      proposes its id for slot 0, 1, 2, ... until it wins
//                      one.  Each lost slot is won by a different process,
//                      so n participants use names 0..n-1 (tight).
//   BasicRtSetConsensus — k-set agreement: proposers are partitioned over
//                      k consensus instances by id mod k, so at most k
//                      values are decided.
//   BasicRtLongLivedTestAndSet — generations of one-shot elections.
//                      test_and_set() plays the current generation's
//                      election; only that generation's winner may
//                      reset(), which opens the next one.  So
//                      `loop { if (tas() == 0) { CS; reset(); } }` is a
//                      lock resilient to timing failures.
//   BasicRtUniversal — state-machine replication over a log of
//                      multi-valued consensus instances with Herlihy-style
//                      helping: a process announces its operation, and at
//                      slot s everyone proposes the announced, unapplied
//                      operation of process s mod n (its own otherwise),
//                      so a slow announcer lands within ~2n slots.
//
// All of them inherit Algorithm 1's headline property: safety holds under
// arbitrary timing behaviour, and progress resumes as soon as steps fit
// inside the instance's (optimistic) Δ.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/core/consensus_rt.hpp"
#include "tfr/registers/atomic_register.hpp"
#include "tfr/registers/register_array.hpp"
#include "tfr/rt/atomics_policy.hpp"

namespace tfr::derived {

/// A sequential object for the universal construction: deterministically
/// applies encoded operations.
class Replica {
 public:
  virtual ~Replica() = default;
  virtual std::int64_t apply(std::int64_t op) = 0;
};

/// Operation encoding of the universal construction.  Every invocation is
/// unique (the log decides operations, not (operation, result) pairs):
///   bits 48..61 pid (14 bits), 32..47 per-process sequence + 1 (16 bits),
///   bits 24..31 opcode (8 bits), bits 0..23 argument (24 bits).
struct OpCodec {
  static constexpr int kBits = 62;

  static std::int64_t encode(int pid, int seq, int opcode, int arg);
  static int pid(std::int64_t op) {
    return static_cast<int>((op >> 48) & 0x3fff);
  }
  /// 1-based so that 0 means "nothing applied yet".
  static int seq(std::int64_t op) {
    return static_cast<int>((op >> 32) & 0xffff);
  }
  static int opcode(std::int64_t op) {
    return static_cast<int>((op >> 24) & 0xff);
  }
  static int arg(std::int64_t op) {
    return static_cast<int>(op & 0xffffff);
  }
};

/// Counter: opcode 1 = add(arg) -> new value; 2 = get() -> value.
class CounterReplica final : public Replica {
 public:
  std::int64_t apply(std::int64_t op) override;
  static constexpr int kAdd = 1;
  static constexpr int kGet = 2;

 private:
  std::int64_t value_ = 0;
};

/// FIFO queue of ints: opcode 1 = enqueue(arg) -> size; 2 = dequeue() ->
/// front or -1 when empty.
class QueueReplica final : public Replica {
 public:
  std::int64_t apply(std::int64_t op) override;
  static constexpr int kEnqueue = 1;
  static constexpr int kDequeue = 2;

 private:
  std::vector<int> items_;
  std::size_t head_ = 0;
};

}  // namespace tfr::derived

namespace tfr::rt {

namespace derived_detail {
/// Identities are small: 24 bits keep the bitwise reduction short.
inline constexpr int kPidBits = 24;
inline constexpr std::size_t kMaxGenerations = 1 << 18;
inline constexpr std::size_t kMaxUniversalSlots = 65536;
}  // namespace derived_detail

/// Multi-valued consensus on values in [0, 2^bits), bits <= 62.
template <class Atomics>
class BasicRtMultiConsensus {
 public:
  struct Config {
    typename Atomics::duration delta{1000};
    int bits = 31;
  };

  explicit BasicRtMultiConsensus(Config config)
      : config_(config),
        x0_(0),
        x1_(0),
        y_(-1),
        decide_(-1),
        witness0_(-1),
        witness1_(-1) {
    TFR_REQUIRE(config.bits >= 1 && config.bits <= 62);
  }

  BasicRtMultiConsensus(const BasicRtMultiConsensus&) = delete;
  BasicRtMultiConsensus& operator=(const BasicRtMultiConsensus&) = delete;

  /// Proposes `value`; blocks until the agreed value is known.
  std::int64_t propose(std::int64_t value) {
    TFR_REQUIRE(value >= 0);
    TFR_REQUIRE(config_.bits >= 62 ||
                value < (std::int64_t{1} << config_.bits));
    std::int64_t candidate = value;
    for (int k = 0; k < config_.bits; ++k) {
      const auto bit = static_cast<std::size_t>(k);
      const int b = static_cast<int>((candidate >> k) & 1);
      (b == 0 ? witness0_ : witness1_).at(bit).write(candidate);
      const int decided =
          Consensus::run_rounds(x0_, x1_, y_, decide_.at(bit),
                                static_cast<std::size_t>(config_.bits), bit,
                                b, {.delta = config_.delta})
              .value;
      if (decided != b) {
        const std::int64_t adopted =
            (decided == 0 ? witness0_ : witness1_).at(bit).read();
        TFR_INVARIANT(adopted >= 0);
        TFR_INVARIANT(
            ((adopted ^ candidate) & ((std::int64_t{1} << k) - 1)) == 0);
        TFR_INVARIANT(((adopted >> k) & 1) == decided);
        candidate = adopted;
      }
    }
    return candidate;
  }

  /// Agreed value if every bit decided, else -1.
  std::int64_t decided() const {
    std::int64_t value = 0;
    for (int k = 0; k < config_.bits; ++k) {
      const int d = decide_.peek(static_cast<std::size_t>(k), -1);
      if (d == -1) return -1;
      value |= std::int64_t{d} << k;
    }
    return value;
  }

 private:
  using Consensus = BasicRtConsensus<Atomics>;
  static constexpr std::size_t kSeg = 256;
  static constexpr std::size_t kMaxSeg = 64;
  using Array = RegisterArray<int, kSeg, kMaxSeg, Atomics>;
  using PerBit = RegisterArray<int, 64, 1, Atomics>;
  using Array64 = RegisterArray<std::int64_t, 64, 16, Atomics>;

  Config config_;
  Array x0_;          ///< x[r, 0] of bit b at r*bits + b
  Array x1_;          ///< x[r, 1] of bit b at r*bits + b
  Array y_;           ///< y[r] of bit b at r*bits + b
  PerBit decide_;     ///< per-bit decide registers
  Array64 witness0_;  ///< per-bit witnesses for bit value 0
  Array64 witness1_;
};

/// Wait-free leader election among threads with ids 0..n-1.
template <class Atomics>
class BasicRtElection {
 public:
  explicit BasicRtElection(typename Atomics::duration delta)
      : agreement_({.delta = delta, .bits = derived_detail::kPidBits}) {}

  /// Participates with identity `id`; returns the elected id.
  int elect(int id) {
    TFR_REQUIRE(id >= 0);
    return static_cast<int>(agreement_.propose(static_cast<std::int64_t>(id)));
  }

  /// Elected id, or -1 (snapshot).
  int leader() const {
    const std::int64_t v = agreement_.decided();
    return v < 0 ? -1 : static_cast<int>(v);
  }

 private:
  BasicRtMultiConsensus<Atomics> agreement_;
};

/// Wait-free one-shot test-and-set (0 for exactly one caller).
template <class Atomics>
class BasicRtTestAndSet {
 public:
  explicit BasicRtTestAndSet(typename Atomics::duration delta)
      : election_(delta) {}

  int test_and_set(int id) { return election_.elect(id) == id ? 0 : 1; }
  int peek() const { return election_.leader() >= 0 ? 1 : 0; }

 private:
  BasicRtElection<Atomics> election_;
};

/// Wait-free one-shot n-renaming: participants acquire unique names from
/// {0..max_names-1}.
template <class Atomics>
class BasicRtRenaming {
 public:
  BasicRtRenaming(typename Atomics::duration delta, int max_names) {
    TFR_REQUIRE(max_names >= 1);
    slots_.reserve(static_cast<std::size_t>(max_names));
    for (int k = 0; k < max_names; ++k)
      slots_.push_back(std::make_unique<MultiConsensus>(
          typename MultiConsensus::Config{.delta = delta,
                                          .bits = derived_detail::kPidBits}));
  }

  /// Acquires a name; one call per thread identity.
  int acquire(int id) {
    TFR_REQUIRE(id >= 0);
    for (std::size_t k = 0; k < slots_.size(); ++k)
      if (slots_[k]->propose(id) == id) return static_cast<int>(k);
    TFR_REQUIRE(!"renaming namespace exhausted: more participants than names");
    return -1;
  }

  /// Winner of slot `name`, or -1 (snapshot).
  int owner(int name) const {
    TFR_REQUIRE(name >= 0 && static_cast<std::size_t>(name) < slots_.size());
    const std::int64_t v = slots_[static_cast<std::size_t>(name)]->decided();
    return v < 0 ? -1 : static_cast<int>(v);
  }

 private:
  using MultiConsensus = BasicRtMultiConsensus<Atomics>;
  std::vector<std::unique_ptr<MultiConsensus>> slots_;
};

/// k-set agreement: at most k distinct values decided (proposers are
/// partitioned across k consensus instances by id mod k).
template <class Atomics>
class BasicRtSetConsensus {
 public:
  BasicRtSetConsensus(typename Atomics::duration delta, int k, int bits = 31)
      : k_(k) {
    TFR_REQUIRE(k >= 1);
    groups_.reserve(static_cast<std::size_t>(k));
    for (int g = 0; g < k; ++g)
      groups_.push_back(std::make_unique<MultiConsensus>(
          typename MultiConsensus::Config{.delta = delta, .bits = bits}));
  }

  std::int64_t propose(int id, std::int64_t value) {
    TFR_REQUIRE(id >= 0);
    return groups_[static_cast<std::size_t>(id % k_)]->propose(value);
  }

  int k() const { return k_; }

 private:
  using MultiConsensus = BasicRtMultiConsensus<Atomics>;
  int k_;
  std::vector<std::unique_ptr<MultiConsensus>> groups_;
};

/// Long-lived (resettable) test-and-set: generations of one-shot
/// elections, allocated on demand like Algorithm 1's rounds.  Per
/// generation exactly one caller wins; only the current winner may
/// reset().
template <class Atomics>
class BasicRtLongLivedTestAndSet {
 public:
  using Election = BasicRtElection<Atomics>;

  /// `n` = number of thread identities (ids 0..n-1).
  BasicRtLongLivedTestAndSet(typename Atomics::duration delta, int n)
      : delta_(delta),
        n_(n),
        won_generation_(static_cast<std::size_t>(n), -1) {
    TFR_REQUIRE(n >= 1);
    // A stable spine for lock-free readers.
    elections_.reserve(derived_detail::kMaxGenerations);
  }

  /// 0 for exactly one caller per generation, 1 for the rest.
  int test_and_set(int id) {
    TFR_REQUIRE(id >= 0 && id < n_);
    const int g = generation_.read();
    TFR_INVARIANT(g >= 0);
    const int winner = election(static_cast<std::size_t>(g)).elect(id);
    if (winner != id) return 1;
    // Winning generation g implies g is still current: only its unique
    // winner can advance the generation register, and that is us.
    won_generation_[static_cast<std::size_t>(id)] = g;
    return 0;
  }

  /// Releases the bit; caller must be the current generation's winner.
  void reset(int id) {
    TFR_REQUIRE(id >= 0 && id < n_);
    const int g = generation_.read();
    TFR_REQUIRE(won_generation_[static_cast<std::size_t>(id)] == g);
    generation_.write(g + 1);
  }

  std::size_t generations() const {
    // mo-ok: a count of published elections; pairs with the release.
    return elections_ready_.load(std::memory_order_acquire);
  }

 private:
  Election& election(std::size_t generation) {
    TFR_REQUIRE(generation < derived_detail::kMaxGenerations);
    // mo-ok: acquire pairs with the release below; the prefix is built.
    if (generation < elections_ready_.load(std::memory_order_acquire))
      return *elections_[generation];
    std::lock_guard<std::mutex> guard(grow_mutex_);
    while (elections_.size() <= generation)
      elections_.push_back(std::make_unique<Election>(delta_));
    // mo-ok: release publishes the elections constructed above.
    elections_ready_.store(elections_.size(), std::memory_order_release);
    return *elections_[generation];
  }

  typename Atomics::duration delta_;
  int n_;
  BasicAtomicRegister<int, Atomics> generation_{0};
  std::vector<int> won_generation_;  ///< [id]: written only by thread id

  mutable std::mutex grow_mutex_;
  // raw-atomic-ok: publishes the grown prefix, not an algorithm register.
  std::atomic<std::size_t> elections_ready_{0};
  std::vector<std::unique_ptr<Election>> elections_;
};

/// Wait-free linearizable universal object: any sequential `Replica`,
/// replicated over a consensus log.
template <class Atomics>
class BasicRtUniversal {
 public:
  /// `n` participating threads (ids 0..n-1); `make_replica` builds one
  /// private replica per thread, all deterministic and in the same state.
  BasicRtUniversal(
      typename Atomics::duration delta, int n,
      std::function<std::unique_ptr<derived::Replica>()> make_replica)
      : delta_(delta),
        n_(n),
        make_replica_(std::move(make_replica)),
        announce_(std::make_unique<Register[]>(static_cast<std::size_t>(n))) {
    TFR_REQUIRE(n >= 1 && n < (1 << 14));
    TFR_REQUIRE(make_replica_ != nullptr);
    for (int i = 0; i < n; ++i)
      announce_[static_cast<std::size_t>(i)].write(-1);
    per_process_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto pp = std::make_unique<PerProcess>();
      pp->replica = make_replica_();
      pp->applied_seq.assign(static_cast<std::size_t>(n), 0);
      per_process_.push_back(std::move(pp));
    }
    // Reserve the slot spine once so readers can index the vector without
    // racing a reallocation (slots_ready_ guards the initialized prefix).
    slots_.reserve(derived_detail::kMaxUniversalSlots);
  }

  /// Invokes opcode(arg) on behalf of thread `id`; returns the result.
  /// Wait-free once timing holds; linearizable always.
  std::int64_t invoke(int id, int opcode, int arg) {
    using derived::OpCodec;
    TFR_REQUIRE(id >= 0 && id < n_);
    PerProcess& mine = *per_process_[static_cast<std::size_t>(id)];
    const std::int64_t op = OpCodec::encode(id, mine.next_seq++, opcode, arg);

    // Announce, so others help us into the log even if we lose every race.
    announce_[static_cast<std::size_t>(id)].write(op);

    std::int64_t my_result = -1;
    bool applied_mine = false;
    while (!applied_mine) {
      const std::size_t index = mine.applied_slots;
      // Helping rule: slot s belongs to process s mod n.
      const int beneficiary =
          static_cast<int>(index % static_cast<std::size_t>(n_));
      std::int64_t proposal = op;
      if (beneficiary != id) {
        const std::int64_t announced =
            announce_[static_cast<std::size_t>(beneficiary)].read();
        if (announced >= 0 &&
            OpCodec::seq(announced) >
                mine.applied_seq[static_cast<std::size_t>(beneficiary)]) {
          proposal = announced;
        }
      }
      const std::int64_t winner = slot(index).propose(proposal);
      // Apply whoever won: the replica follows the decided log prefix.
      const std::int64_t result = mine.replica->apply(winner);
      const int winner_pid = OpCodec::pid(winner);
      TFR_INVARIANT(winner_pid >= 0 && winner_pid < n_);
      // One pid's operations enter the log in sequence order.
      TFR_INVARIANT(OpCodec::seq(winner) >
                    mine.applied_seq[static_cast<std::size_t>(winner_pid)]);
      mine.applied_seq[static_cast<std::size_t>(winner_pid)] =
          OpCodec::seq(winner);
      mine.applied_slots = index + 1;
      if (winner == op) {
        my_result = result;
        applied_mine = true;
      }
    }
    // Retiring the announcement is an optimization: latecomers already
    // see the op as applied through the sequence high-water mark.
    announce_[static_cast<std::size_t>(id)].write(-1);
    return my_result;
  }

  /// Log slots applied by the fastest replica so far.
  std::size_t log_length() const {
    std::size_t longest = 0;
    for (const auto& pp : per_process_)
      if (pp && pp->applied_slots > longest) longest = pp->applied_slots;
    return longest;
  }

 private:
  using MultiConsensus = BasicRtMultiConsensus<Atomics>;
  using Register = BasicAtomicRegister<std::int64_t, Atomics>;

  struct PerProcess {
    std::unique_ptr<derived::Replica> replica;
    std::size_t applied_slots = 0;  ///< next log slot this replica applies
    std::vector<int> applied_seq;   ///< per-pid applied high-water marks
    int next_seq = 1;               ///< own sequence numbers (1-based)
  };

  MultiConsensus& slot(std::size_t index) {
    TFR_REQUIRE(index < derived_detail::kMaxUniversalSlots);
    // mo-ok: acquire pairs with the release below; the prefix is built.
    if (index < slots_ready_.load(std::memory_order_acquire))
      return *slots_[index];
    std::lock_guard<std::mutex> guard(grow_mutex_);
    while (slots_.size() <= index) {
      slots_.push_back(std::make_unique<MultiConsensus>(
          typename MultiConsensus::Config{.delta = delta_,
                                          .bits = derived::OpCodec::kBits}));
    }
    // mo-ok: release publishes the slots constructed above.
    slots_ready_.store(slots_.size(), std::memory_order_release);
    return *slots_[index];
  }

  typename Atomics::duration delta_;
  int n_;
  std::function<std::unique_ptr<derived::Replica>()> make_replica_;
  std::unique_ptr<Register[]> announce_;  ///< -1 = nothing announced
  std::vector<std::unique_ptr<PerProcess>> per_process_;

  // The slot vector grows on demand.  Readers find the built prefix
  // through an atomic count; growth takes a mutex, because it is storage
  // management of the implementation, not a shared register of the
  // algorithm.
  mutable std::mutex grow_mutex_;
  // raw-atomic-ok: publishes the grown prefix, not an algorithm register.
  std::atomic<std::size_t> slots_ready_{0};
  std::vector<std::unique_ptr<MultiConsensus>> slots_;
};

using RtMultiConsensus = BasicRtMultiConsensus<StdAtomics>;
using RtElection = BasicRtElection<StdAtomics>;
using RtTestAndSet = BasicRtTestAndSet<StdAtomics>;
using RtRenaming = BasicRtRenaming<StdAtomics>;
using RtSetConsensus = BasicRtSetConsensus<StdAtomics>;
using RtLongLivedTestAndSet = BasicRtLongLivedTestAndSet<StdAtomics>;
using RtUniversal = BasicRtUniversal<StdAtomics>;

// The production instantiations live in derived_rt.cpp.
extern template class BasicRtMultiConsensus<StdAtomics>;
extern template class BasicRtElection<StdAtomics>;
extern template class BasicRtTestAndSet<StdAtomics>;
extern template class BasicRtRenaming<StdAtomics>;
extern template class BasicRtSetConsensus<StdAtomics>;
extern template class BasicRtLongLivedTestAndSet<StdAtomics>;
extern template class BasicRtUniversal<StdAtomics>;

}  // namespace tfr::rt
