// Structured event tracing for the simulator and the real-thread harnesses.
//
// A TraceSink is a fixed-capacity, lock-free-append log of small POD
// events.  Emitters (Simulation awaiters, FailureInjector, monitors,
// rt::FaultInjector) push one Event per semantically meaningful instant:
// register accesses with their linearization span, delay(d) spans,
// injected timing failures, round transitions, decide / CS transitions,
// monitor violations, crashes and rt stalls.  Because the simulator is
// deterministic given (timing model, seed), two runs of the same scenario
// produce byte-identical traces — which is what obs/replay.hpp asserts and
// what turns any flaky bench into a reproducible artifact.
//
// Variable-length data (register names, injection-point names) lives in an
// interned string table so Event stays fixed-size; the hot append path is a
// single fetch_add plus a struct store and is safe from multiple threads.
// Interning takes a mutex and is meant for setup / cold paths.
//
// This header is deliberately self-contained (no sim/ includes) so that
// sim, registers and mutex code can emit events without a link-time
// dependency; exporters, metrics and replay live in the tfr_obs library.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tfr::obs {

/// What happened.  Values are part of the binary trace format — append
/// only, never renumber.
enum class EventKind : std::uint8_t {
  kRead = 1,           ///< register read; a = duration, b = remote (RMR),
                       ///< label = register name
  kWrite = 2,          ///< register write; a = duration, b = value, label = reg
  kDelay = 3,          ///< delay(d) span; a = d
  kTimingFailure = 4,  ///< injected failure; a = stretched cost, b = Δ
  kRound = 5,          ///< process entered consensus round; a = round index
  kDecide = 6,         ///< process decided; a = value
  kEntry = 7,          ///< mutex: entry section begins
  kCsEnter = 8,        ///< mutex: critical section entered; a = entry wait
  kCsExit = 9,         ///< mutex: critical section left
  kExitDone = 10,      ///< mutex: exit section finished (back to NCS)
  kViolation = 11,     ///< monitor violation; label = which property
  kCrash = 12,         ///< process killed by fault injection
  kDone = 13,          ///< process coroutine finished
  kStall = 14,         ///< rt injected stall; a = stall ns, b = visit index,
                       ///< label = injection point
  kNetDrop = 15,       ///< adversary dropped a message; a = channel seq,
                       ///< b = receiver endpoint, label = channel
  kNetDuplicate = 16,  ///< adversary duplicated a message; a = channel seq,
                       ///< b = extra copies, label = channel
  kNetDelay = 17,      ///< adversary delayed a message; a = extra delay,
                       ///< b = channel seq, label = channel
  kNetPartition = 18,  ///< partition boundary; a = 0 begin / 1 heal,
                       ///< b = partition index, label = "partition"
  kRetry = 19,         ///< client re-sent a request; a = attempt, b = rid,
                       ///< label = phase
  kTimeout = 20,       ///< client phase timeout expired; a = timeout used,
                       ///< b = rid, label = phase
  kBackoff = 21,       ///< client backoff pause; a = pause length, b = rid,
                       ///< label = phase
  kCounter = 22,       ///< counter sample; a/b = kind-specific running
                       ///< totals (e.g. stall count / stalled ns),
                       ///< label = counter name
};

/// One trace record.  `time` is virtual ticks in the simulator and
/// nanoseconds since the emitter's epoch in the rt harnesses.  For span
/// kinds (kRead/kWrite/kDelay), `time` is the span start and `a` its
/// duration; for instants `a`/`b` are kind-specific payload.  `label` is 0
/// (none) or an id returned by TraceSink::intern().
struct Event {
  std::int64_t time = 0;
  std::int32_t pid = -1;
  EventKind kind{};
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::uint32_t label = 0;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Fixed-capacity append-only event log.  append() is lock-free and
/// wait-free (one fetch_add); events past the capacity are counted in
/// dropped() rather than silently lost.
///
/// The buffer is left uninitialised and each event is constructed in place
/// by append(), so the pages of a large sink are only mapped as events
/// arrive: a short trace costs what it records, not the capacity.
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 1 << 20)
      : events_(static_cast<Event*>(::operator new(capacity * sizeof(Event)))),
        capacity_(capacity) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  ~TraceSink() { ::operator delete(events_); }

  /// Appends one event.  Safe from any thread; never allocates.
  void append(const Event& event) noexcept {
    const std::size_t index = count_.fetch_add(1, std::memory_order_relaxed);
    if (index >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::construct_at(events_ + index, event);
  }

  /// Number of events recorded (excludes dropped ones).
  std::size_t size() const {
    const std::size_t n = count_.load(std::memory_order_acquire);
    return n < capacity_ ? n : capacity_;
  }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  const Event& operator[](std::size_t i) const { return events_[i]; }

  /// Copy of the recorded prefix, in append order.
  std::vector<Event> snapshot() const {
    return std::vector<Event>(events_, events_ + size());
  }

  /// Interns `name`, returning its stable nonzero label id.  Takes a lock;
  /// call from setup or cold paths, not per-event hot loops (emitters cache
  /// the id).  Interning the same string twice returns the same id.
  std::uint32_t intern(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    labels_.emplace_back(name);
    const auto id = static_cast<std::uint32_t>(labels_.size());
    ids_.emplace(labels_.back(), id);
    return id;
  }

  /// Resolves a label id; id 0 and unknown ids yield "".
  std::string_view label(std::uint32_t id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id == 0 || id > labels_.size()) return {};
    return labels_[id - 1];
  }

  /// All interned labels, in id order (id = index + 1).
  std::vector<std::string> labels() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<std::string>(labels_.begin(), labels_.end());
  }

  /// Forgets all events (labels are kept, so cached ids stay valid).
  void clear() {
    dropped_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_release);
  }

  /// FNV-1a hash over events and labels — a cheap identity for
  /// "same trace?" checks (the binary encoding is the authoritative one).
  std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix_byte = [&h](std::uint8_t byte) {
      h ^= byte;
      h *= 0x100000001b3ULL;
    };
    auto mix64 = [&](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) mix_byte((v >> (8 * i)) & 0xff);
    };
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = events_[i];
      mix64(static_cast<std::uint64_t>(e.time));
      mix64(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.pid)));
      mix_byte(static_cast<std::uint8_t>(e.kind));
      mix64(static_cast<std::uint64_t>(e.a));
      mix64(static_cast<std::uint64_t>(e.b));
      mix64(e.label);
    }
    for (const std::string& s : labels()) {
      for (char c : s) mix_byte(static_cast<std::uint8_t>(c));
      mix_byte(0);
    }
    return h;
  }

 private:
  static_assert(std::is_trivially_destructible_v<Event>);

  Event* events_;  ///< capacity_ slots; [0, size()) constructed
  std::size_t capacity_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};

  mutable std::mutex mutex_;
  std::deque<std::string> labels_;  ///< deque: stable refs for the id map
  std::map<std::string_view, std::uint32_t> ids_;
};

}  // namespace tfr::obs
