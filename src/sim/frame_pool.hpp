// Coroutine frame pool.
//
// Every simulated process and every Task it awaits is a C++20 coroutine,
// and each call allocates a frame.  On the message-passing paths that is
// several frames per message (send, a polling sweep, a quorum phase), so
// global operator new used to dominate the real-clock cost of a run.  A
// FramePool recycles those frames: each Simulation owns one, and the
// promise operator new of Process and Task finds it through the
// coroutine's sim::Env argument (coroutines without an Env use global new).
//
// Ownership: a frame belongs to the simulation whose Env spawned it, and
// returns to that simulation's pool when it is destroyed.  The pool
// outlives every frame it hands out (the Simulation destroys its processes
// before its pool), and Simulation::reset() keeps the pool, so a re-driven
// simulation reaches a state where no frame allocation reaches operator
// new.  The pool is never thread-local or global: two simulations never
// share blocks, so each run allocates the same amount whatever ran before.
//
// A pool grows only through global operator new (allocation counters see
// every block) and never shrinks before it is destroyed.  It is not
// thread-safe; the simulator is single-threaded, and the rt shim's OS
// threads run strictly alternated with it.  Under AddressSanitizer a block
// on a free list is poisoned, so a use after free of a pooled frame is
// still reported.

#pragma once

#include <array>
#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define TFR_FRAME_POOL_ASAN 1
#endif

namespace tfr::sim {

class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  ~FramePool() {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      while (Header* block = free_[cls]) {
        free_[cls] = block->next;
        unpoison(block + 1, payload_of(cls));
        ::operator delete(block);
      }
    }
  }

  /// A frame of `size` bytes: from `pool` when one is given and the size
  /// fits a class, else from global operator new.
  static void* allocate(FramePool* pool, std::size_t size) {
    const std::size_t cls = class_of(size);
    Header* block = nullptr;
    if (pool == nullptr || cls >= kClasses) {
      block = static_cast<Header*>(::operator new(size + sizeof(Header)));
      pool = nullptr;
    } else if (pool->free_[cls] != nullptr) {
      block = pool->free_[cls];
      pool->free_[cls] = block->next;
      unpoison(block + 1, payload_of(cls));
    } else {
      block = static_cast<Header*>(::operator new(cls * kGranule));
      ++pool->blocks_;
    }
    block->pool = pool;
    return block + 1;
  }

  /// Returns a frame obtained from allocate() with the same `size`.
  static void deallocate(void* frame, std::size_t size) noexcept {
    Header* block = static_cast<Header*>(frame) - 1;
    FramePool* pool = block->pool;
    if (pool == nullptr) {
      ::operator delete(block);
      return;
    }
    const std::size_t cls = class_of(size);
    block->next = pool->free_[cls];
    pool->free_[cls] = block;
    poison(frame, payload_of(cls));
  }

  /// Blocks this pool has drawn from operator new so far.
  std::size_t blocks() const { return blocks_; }

 private:
  /// Precedes every frame, pooled or not; 16 bytes keep the frame at the
  /// default new alignment.
  struct alignas(__STDCPP_DEFAULT_NEW_ALIGNMENT__) Header {
    FramePool* pool;  ///< owner; null for a block from global new
    Header* next;     ///< free-list link while the block is pooled
  };

  static constexpr std::size_t kGranule = sizeof(Header);
  /// Blocks up to 4 KiB (header included) are pooled; larger frames are
  /// rare enough to go to global new.
  static constexpr std::size_t kClasses = 4096 / kGranule + 1;

  static constexpr std::size_t class_of(std::size_t size) {
    return (size + sizeof(Header) + kGranule - 1) / kGranule;
  }
  static constexpr std::size_t payload_of(std::size_t cls) {
    return cls * kGranule - sizeof(Header);
  }

  static void poison(void* frame, std::size_t bytes) noexcept {
#ifdef TFR_FRAME_POOL_ASAN
    __asan_poison_memory_region(frame, bytes);
#else
    (void)frame;
    (void)bytes;
#endif
  }
  static void unpoison(void* frame, std::size_t bytes) noexcept {
#ifdef TFR_FRAME_POOL_ASAN
    __asan_unpoison_memory_region(frame, bytes);
#else
    (void)frame;
    (void)bytes;
#endif
  }

  std::array<Header*, kClasses> free_{};
  std::size_t blocks_ = 0;
};

}  // namespace tfr::sim
