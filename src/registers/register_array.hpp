// Unbounded array of atomic registers for real threads.
//
// Algorithm 1 uses infinite arrays x[1..∞], y[1..∞]; rounds advance only
// under timing failures, so most executions touch a handful of cells but
// nothing bounds the index a priori.  The array is a two-level radix
// structure: a fixed spine of atomic segment pointers, segments allocated
// on first touch and published with a CAS.  Readers never block; a loser
// of the publication race deletes its segment.  Grown cells are pinned
// (never move), so references handed out stay valid for the array's
// lifetime.
//
// The cells are BasicAtomicRegister<T, Atomics>: std::atomic under the
// production StdAtomics policy, shim cells under the model checker.  A
// fresh segment's cells are constructed already holding the initial
// value, so growing the array is storage management, not a register
// write the checker would have to interleave.
//
// A policy caps how many cells one segment builds (Atomics::
// kMaxSegmentCells).  A segment wider than the cap is itself a
// RegisterArray of cap-sized segments, so the capacity stays SegmentSize *
// MaxSegments.  StdAtomics has no cap: production segments are flat.  The
// shim caps at 8, because each shim cell is a simulator register and a
// checked execution touches only a few cells of each array.

#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "tfr/common/contracts.hpp"
#include "tfr/registers/atomic_register.hpp"

namespace tfr::rt {

/// SegmentSize/MaxSegments trade footprint against capacity: the spine
/// costs MaxSegments pointers up front, segments SegmentSize registers
/// each on demand.  Composed objects (multi-valued consensus, the
/// universal construction) use small arrays; standalone instances can
/// afford the default 4M-register capacity.
template <class T, std::size_t SegmentSize = 1024,
          std::size_t MaxSegments = 4096, class Atomics = StdAtomics>
class RegisterArray {
 public:
  using Cell = BasicAtomicRegister<T, Atomics>;

  static constexpr std::size_t kSegmentSize = SegmentSize;
  static constexpr std::size_t kMaxSegments = MaxSegments;

  explicit RegisterArray(T initial) : initial_(initial) {
    // mo-ok: the array is not shared before its constructor returns.
    for (auto& slot : spine_) slot.store(nullptr, std::memory_order_relaxed);
  }

  RegisterArray(const RegisterArray&) = delete;
  RegisterArray& operator=(const RegisterArray&) = delete;

  ~RegisterArray() {
    // mo-ok: acquire pairs with the publishing CAS.
    for (auto& slot : spine_) delete slot.load(std::memory_order_acquire);
  }

  /// Register at `index`, allocating its segment on demand.  Thread-safe.
  Cell& at(std::size_t index) {
    const std::size_t seg = index / kSegmentSize;
    const std::size_t off = index % kSegmentSize;
    TFR_REQUIRE(seg < kMaxSegments);
    // mo-ok: acquire pairs with the publishing CAS.
    Segment* segment = spine_[seg].load(std::memory_order_acquire);
    if (segment == nullptr) segment = publish_segment(seg);
    return segment->at(off);
  }

  /// Read without allocating: `fallback` when the segment is absent (i.e.
  /// nobody has written near `index` yet, so it still holds the initial
  /// value by construction).
  T peek(std::size_t index, T fallback) const {
    const std::size_t seg = index / kSegmentSize;
    const std::size_t off = index % kSegmentSize;
    TFR_REQUIRE(seg < kMaxSegments);
    // mo-ok: acquire pairs with the publishing CAS.
    Segment* segment = spine_[seg].load(std::memory_order_acquire);
    return segment ? segment->peek(off, fallback) : fallback;
  }

  /// Number of segments currently allocated (coarse space accounting).
  std::size_t segments_allocated() const {
    // mo-ok: a statistic; nothing is ordered by it.
    return segments_allocated_.load(std::memory_order_relaxed);
  }

 private:
  /// kSegmentSize cells, each constructed holding the array's initial
  /// value (cells are neither copyable nor movable, hence the raw slots).
  class Cells {
   public:
    explicit Cells(T initial) {
      for (Slot& slot : slots_) std::construct_at(&slot.cell, initial);
    }
    Cells(const Cells&) = delete;
    Cells& operator=(const Cells&) = delete;
    ~Cells() {
      for (Slot& slot : slots_) std::destroy_at(&slot.cell);
    }

    Cell& at(std::size_t off) { return slots_[off].cell; }
    T peek(std::size_t off, T /*fallback*/) const {
      return slots_[off].cell.read();
    }

   private:
    union Slot {
      Slot() {}
      ~Slot() {}
      Cell cell;
    };
    Slot slots_[kSegmentSize];
  };

  static constexpr std::size_t kCap = Atomics::kMaxSegmentCells;
  static_assert(kSegmentSize <= kCap || kSegmentSize % kCap == 0,
                "a capped segment splits into whole cap-sized segments");
  /// Flat cells within the policy's cap, a nested array beyond it.
  using Segment =
      std::conditional_t<(kSegmentSize <= kCap), Cells,
                         RegisterArray<T, kCap, kSegmentSize / kCap, Atomics>>;

  Segment* publish_segment(std::size_t seg) {
    auto fresh = std::make_unique<Segment>(initial_);
    Segment* expected = nullptr;
    if (spine_[seg].compare_exchange_strong(
            expected, fresh.get(),
            // mo-ok: publishes the initialized cells to acquire readers.
            std::memory_order_acq_rel, std::memory_order_acquire)) {
      // mo-ok: a statistic; nothing is ordered by it.
      segments_allocated_.fetch_add(1, std::memory_order_relaxed);
      return fresh.release();
    }
    // Lost the race; `expected` holds the winner and `fresh` self-destroys.
    return expected;
  }

  T initial_;
  // Segment publication is storage management, not an algorithm register:
  // raw-atomic-ok: no explored interleaving depends on the spine.
  std::atomic<Segment*> spine_[kMaxSegments];
  /// Segments published so far (space accounting only).
  typename Atomics::template counter<std::size_t> segments_allocated_{0};
};

}  // namespace tfr::rt
