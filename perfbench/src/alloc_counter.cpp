// Counting global operator new for the whole benchmark binary (the same
// technique as tests/sim_alloc_test.cpp): route through malloc/free and
// count calls, so a workload can read exact allocation counts around the
// calls it makes into the libraries.  The count doubles as the clock that
// cuts SegmentBest's passes into segments.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "harness.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_calls{0};

// SegmentBest's marks: wall_ns() at every kAllocsPerMark-th call while
// g_marking, up to the buffer's capacity, so that marking never allocates.
constexpr std::size_t kMaxMarks = 1 << 17;
std::atomic<bool> g_marking{false};
std::uint64_t g_marks_base = 0;
std::vector<std::int64_t> g_marks;

}  // namespace

void* operator new(std::size_t size) {
  const std::uint64_t call =
      g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (g_marking.load(std::memory_order_relaxed) &&
      (call - g_marks_base) % perfbench::SegmentBest::kAllocsPerMark == 0 &&
      g_marks.size() < g_marks.capacity()) {
    g_marks.push_back(perfbench::wall_ns());
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocations() {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

void SegmentBest::begin() {
  g_marks.reserve(kMaxMarks);
  g_marks.clear();
  g_marks_base = allocations();
  start_ns_ = wall_ns();
  g_marking.store(true, std::memory_order_relaxed);
}

bool SegmentBest::end() {
  g_marking.store(false, std::memory_order_relaxed);
  const std::int64_t end_ns = wall_ns();
  const std::size_t segments = g_marks.size() + 1;
  if (best_ns_.empty()) best_ns_.assign(segments, INT64_MAX);
  if (best_ns_.size() != segments) return false;
  std::int64_t from = start_ns_;
  for (std::size_t i = 0; i < segments; ++i) {
    const std::int64_t to = i < g_marks.size() ? g_marks[i] : end_ns;
    best_ns_[i] = std::min(best_ns_[i], to - from);
    from = to;
  }
  return true;
}

double SegmentBest::total_s() const {
  std::int64_t total = 0;
  for (std::int64_t ns : best_ns_) total += ns;
  return static_cast<double>(total) * 1e-9;
}

}  // namespace perfbench
