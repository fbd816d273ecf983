// Simulated atomic read/write registers.
//
// A Register<T> is a passive cell: the *time* an access takes is charged by
// the simulator when a process co_awaits env.read()/env.write(); the value
// transfer itself happens at the instant the access linearizes (event
// resume), which is trivially atomic because the simulator is
// single-threaded.  peek()/poke() bypass simulated time and are reserved
// for monitors, tests and initialization.
//
// Registers are allocated inside a RegisterSpace, which counts them — this
// is how E9 audits the space lower bound of Theorem 3.1.  RegisterArray<T>
// realizes the paper's infinite arrays (x[1..∞], y[1..∞]) by growing on
// demand; allocation is a local action and costs no simulated time.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::sim {

/// Accounting domain for registers: how many shared registers an algorithm
/// instance actually allocated, and how many accesses they served.
class RegisterSpace {
 public:
  RegisterSpace() = default;
  RegisterSpace(const RegisterSpace&) = delete;
  RegisterSpace& operator=(const RegisterSpace&) = delete;

  std::uint64_t allocated() const { return allocated_; }
  std::uint64_t total_reads() const { return reads_; }
  std::uint64_t total_writes() const { return writes_; }

  /// Forgets every allocation and access count, restarting uid assignment
  /// from 1.  Called by Simulation::reset() when a simulation object is
  /// reused for a fresh execution (the mcheck fast path); all registers of
  /// the previous run must already be destroyed, so the re-issued uids
  /// stay unique within each run — which is all the conflict relation
  /// needs.
  void reset() {
    allocated_ = 0;
    reads_ = 0;
    writes_ = 0;
    hashers_.clear();
    hashable_ = true;
  }

  /// Opt-in for state-signature support (mcheck's frontier state hashing):
  /// when enabled, every Register constructed in this space registers a
  /// value-hash thunk.  Off by default so the zero-per-iteration
  /// allocation budget of plain simulations is untouched.
  void set_value_capture(bool on) { capture_ = on; }
  bool value_capture() const { return capture_; }

  /// False when some live register's value type has no unique object
  /// representation (its bytes cannot be hashed portably); callers must
  /// then skip state hashing for the whole space.
  bool values_hashable() const { return hashable_; }

  /// FNV-1a over every live register's (uid, value bytes), in allocation
  /// order.  Only meaningful while the registers of the current run are
  /// alive and values_hashable() holds; requires set_value_capture(true)
  /// before the registers were constructed.
  std::uint64_t values_fingerprint() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    mix(hashers_.size());
    for (std::size_t i = 0; i < hashers_.size(); ++i) {
      mix(i + 1);
      mix(hashers_[i].second(hashers_[i].first));
    }
    return h;
  }

 private:
  template <class T>
  friend class Register;

  using ValueHasher = std::uint64_t (*)(const void*);

  /// Registers a live register's value-hash thunk (capture mode only).
  /// Entries dangle once their register is destroyed — the next reset()
  /// clears them; values_fingerprint() is only called mid-run.
  void note_hasher(const void* object, ValueHasher hasher) {
    hashers_.emplace_back(object, hasher);
  }
  void mark_unhashable() { hashable_ = false; }

  /// Returns the new register's uid: 1-based allocation order, stable
  /// across identical runs — the conflict key mcheck's independence
  /// relation uses (pointers would not survive re-execution).
  std::uint64_t note_allocated() { return ++allocated_; }
  void note_read() { ++reads_; }
  void note_write() { ++writes_; }

  std::uint64_t allocated_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  bool capture_ = false;
  bool hashable_ = true;
  std::vector<std::pair<const void*, ValueHasher>> hashers_;
};

/// A register's trace label, spelled out when a trace asks for it.  An
/// array cell's label "<array>[<index>]" is formatted into an inline
/// buffer, so naming a cell allocates nothing unless the array name is
/// longer than the buffer.
class RegisterName {
 public:
  explicit RegisterName(std::string_view name) : plain_(name) {}

  RegisterName(std::string_view array, std::size_t index) {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + index % 10);
      index /= 10;
    } while (index != 0);
    const std::size_t size = array.size() + n + 2;
    char* out = inline_;
    if (size > sizeof(inline_)) {
      spill_.resize(size);
      out = spill_.data();
    }
    std::memcpy(out, array.data(), array.size());
    out += array.size();
    *out++ = '[';
    while (n != 0) *out++ = digits[--n];
    *out = ']';
    plain_ = size > sizeof(inline_) ? std::string_view(spill_)
                                    : std::string_view(inline_, size);
  }

  RegisterName(const RegisterName&) = delete;
  RegisterName& operator=(const RegisterName&) = delete;

  std::string_view view() const { return plain_; }
  operator std::string_view() const { return plain_; }

 private:
  std::string_view plain_;
  char inline_[48];
  std::string spill_;
};

/// Names an array cell after its array: the array's name (which must
/// outlive the cell) and the cell's index.
struct CellOf {
  const std::string* array = nullptr;
  std::size_t index = 0;
};

/// One atomic shared register holding a T.  T must be cheaply copyable
/// (ints, small structs) — exactly what the paper's registers hold.
template <class T>
class Register {
 public:
  Register(RegisterSpace& space, T initial, std::string name = {})
      : space_(&space), value_(std::move(initial)), name_(std::move(name)) {
    on_allocated();
  }

  /// An array cell: named lazily after its array and index.
  Register(RegisterSpace& space, T initial, CellOf cell)
      : space_(&space),
        value_(std::move(initial)),
        array_name_(cell.array),
        index_(cell.index) {
    on_allocated();
  }

  Register(const Register&) = delete;
  Register& operator=(const Register&) = delete;
  Register(Register&&) = delete;
  Register& operator=(Register&&) = delete;

  /// Untimed read (monitors / tests / local inspection only).
  const T& peek() const { return value_; }

  /// Untimed write (initialization / tests / fault injection only).
  void poke(T v) { value_ = std::move(v); }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  /// The trace label; the returned object must not outlive the register.
  RegisterName name() const {
    if (array_name_ != nullptr) return RegisterName(*array_name_, index_);
    return RegisterName(name_);
  }
  /// Stable identity: allocation order within the RegisterSpace (1-based).
  /// Identical runs allocate in identical order, so uids — unlike
  /// addresses — survive re-execution (mcheck's conflict key).
  std::uint64_t uid() const { return uid_; }

  // Remote-memory-reference accounting (cache-coherent model): a read is
  // remote iff the reader holds no valid cached copy (it then acquires
  // one); a write is always remote and invalidates every other copy.
  // Used by the local-spinning analysis (E15); costs no simulated time.
  // Pids below 64 keep their bit in an inline mask; only larger pids
  // touch the fallback vector.
  bool note_read_rmr(Pid pid) const {
    const auto index = static_cast<std::size_t>(pid);
    std::uint64_t* word = &cached_low_;
    if (index >= 64) {
      const std::size_t high = index / 64 - 1;
      if (high >= cached_high_.size()) cached_high_.resize(high + 1, 0);
      word = &cached_high_[high];
    }
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    if ((*word & bit) != 0) return false;
    *word |= bit;
    return true;
  }

  void note_write_rmr(Pid pid) {
    cached_low_ = 0;
    std::fill(cached_high_.begin(), cached_high_.end(), 0);
    note_read_rmr(pid);  // the writer retains a valid copy
  }

  // Internal: the timed accesses, invoked by the simulator's awaiters at
  // the instant the access linearizes.  Algorithm code must go through
  // Env::read/Env::write instead.
  T load_linearized() const {
    ++reads_;
    space_->note_read();
    return value_;
  }

  void store_linearized(T v) {
    ++writes_;
    space_->note_write();
    value_ = std::move(v);
  }

 private:
  void on_allocated() {
    uid_ = space_->note_allocated();
    if (space_->value_capture()) {
      if constexpr (std::has_unique_object_representations_v<T>) {
        space_->note_hasher(this, &hash_value);
      } else {
        space_->mark_unhashable();
      }
    }
  }

  /// Value-hash thunk for RegisterSpace::values_fingerprint(): FNV-1a over
  /// the object representation (only instantiated for types with unique
  /// object representations, so padding cannot leak in).
  static std::uint64_t hash_value(const void* object) {
    const T& value = static_cast<const Register*>(object)->value_;
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
    return h;
  }

  RegisterSpace* space_;
  T value_;
  std::uint64_t uid_ = 0;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  /// A plain register's name; empty for an array cell.
  std::string name_;
  /// An array cell's array name and index (null for a plain register).
  const std::string* array_name_ = nullptr;
  std::size_t index_ = 0;
  /// "Holds a valid cached copy" bits (RMR accounting): pids 0..63 in the
  /// inline mask, pid p >= 64 at bit p % 64 of word p / 64 - 1.
  mutable std::uint64_t cached_low_ = 0;
  mutable std::vector<std::uint64_t> cached_high_;
};

/// Unbounded register array (the paper's x[1..∞]): grows on first touch of
/// an index.  Indices are 0-based.  Backed by a deque so grown registers
/// never move (registers are pinned: awaiters hold pointers to them).
/// Cells refer back to the array's name, so the array cannot move either.
template <class T>
class RegisterArray {
 public:
  RegisterArray(RegisterSpace& space, T initial, std::string name = {})
      : space_(&space), initial_(std::move(initial)), name_(std::move(name)) {}

  RegisterArray(const RegisterArray&) = delete;
  RegisterArray& operator=(const RegisterArray&) = delete;
  RegisterArray(RegisterArray&&) = delete;
  RegisterArray& operator=(RegisterArray&&) = delete;

  /// Returns the register at `index`, allocating up to it on demand.
  Register<T>& at(std::size_t index) {
    while (cells_.size() <= index)
      cells_.emplace_back(*space_, initial_, CellOf{&name_, cells_.size()});
    return cells_[index];
  }

  /// Read-only access to an index that must already exist.
  const Register<T>& at(std::size_t index) const {
    TFR_REQUIRE(index < cells_.size());
    return cells_[index];
  }

  std::size_t size() const { return cells_.size(); }

 private:
  RegisterSpace* space_;
  T initial_;
  std::string name_;
  std::deque<Register<T>> cells_;
};

}  // namespace tfr::sim
