// Measurement harness shared by the perfbench workloads: clocks, the
// allocation counter, in-memory spans, and the metric lists a run reports.
//
// Every number here is taken from outside the program under test: the
// workloads time their own calls into the public tfr APIs and read the
// counters those APIs already expose.  Nothing in src/ is instrumented.

#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "tfr/common/stats.hpp"

namespace perfbench {

using tfr::Samples;

// ------------------------------------------------------------- clocks --

/// Monotonic wall clock, seconds.
double wall_now();
/// The same clock in nanoseconds.
std::int64_t wall_ns();
/// CPU time of the whole process (all threads), seconds.
double cpu_now();
/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// Global operator new calls so far (counted by alloc_counter.cpp).
std::uint64_t allocations();

// -------------------------------------------------------------- spans --

/// One recorded wall-clock span.  `parent` is the id of the enclosing span
/// (-1 for a root); ids are dense indices into Tracer::spans().
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  int thread = 0;
};

/// In-memory span log.  Disabled tracers record nothing, so untraced
/// passes pay one branch per call site.  Each thread records into its own
/// Lane (no shared state on the hot path); lanes are merged on export.
class Tracer {
 public:
  class Lane {
   public:
    /// Opens a span under the lane's innermost open span (or under
    /// `root_parent` when none is open); returns its lane-local index.
    std::size_t open(const char* name);
    void close(std::size_t index);
    /// Id of the innermost open span (the lane's root parent when none).
    /// Main lane only: its indices are the merged ids.
    std::int64_t current() const;

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;
    int thread_ = 0;
    std::int64_t root_parent_ = -1;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
  };

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The main thread's lane (always exists).
  Lane* main() { return enabled_ ? &lanes_.front() : nullptr; }

  /// A lane for a worker thread whose root spans hang under `parent` (a
  /// span id from current() of the spawning lane).  Null when disabled.
  /// Call from the spawning thread, before the worker starts.
  Lane* lane(std::int64_t parent);

  /// Drops every recorded span and worker lane, so that memory holds one
  /// traced pass at a time.  Call between passes, with no span open.
  void reset();

  /// Merges every lane into one id space.  Call once all workers joined.
  std::vector<Span> spans();

  std::int64_t now_ns() const;

 private:
  bool enabled_;
  std::int64_t epoch_ns_ = 0;
  std::mutex mutex_;
  std::deque<Lane> lanes_;  ///< deque: stable addresses for workers
};

/// RAII span on a lane; a null lane makes it a no-op.
class Scoped {
 public:
  Scoped(Tracer::Lane* lane, const char* name)
      : lane_(lane), index_(lane != nullptr ? lane->open(name) : 0) {}
  ~Scoped() {
    if (lane_ != nullptr) lane_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer::Lane* lane_;
  std::size_t index_;
};

// ------------------------------------------------------------ metrics --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

/// What a workload hands back to main().  `headline` are the end-to-end
/// metrics this workload owns (README "End-to-end metrics"), `layer` the
/// per-layer metrics it measured in a traced run.
struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Generic end-to-end figures, one entry per measured pass.
  Samples setup_s;
  Samples pass_wall_s;
  Samples pass_cpu_s;
  Samples pass_ops_per_s;

  Metrics headline;
  Metrics layer;

  /// The run's wall_s, cpu_s and ops_per_s, which the workload derives
  /// from its passes.  Single-threaded workloads sum the fastest time of
  /// each segment of a pass (SegmentBest): other tenants of a shared host
  /// only add time, in short stalls.  Workloads that race real threads take
  /// the median pass, as a disturbance can also remove contention: a
  /// descheduled spinner burns no CPU and contends for nothing.
  struct Figures {
    double wall_s = 0;
    double cpu_s = 0;
    double ops_per_s = 0;
  };
  Figures figures;

  /// Records a correctness failure (the run then exits non-zero).
  void fail(const std::string& what);
  /// fail() unless `ok`.
  void require(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// The fastest time of every segment of a deterministic, single-threaded
/// piece of work, over repeated passes (alloc_counter.cpp).  Between
/// begin() and end(), every kAllocsPerMark-th operator new call ends a
/// segment.  A thread that repeats deterministic work allocates in the
/// same order every time, so the marks cut every pass into the same
/// segments, some microseconds long.  Keeping each segment's fastest time
/// filters out the host's short stalls, which every pass of more than a
/// few milliseconds contains.  One SegmentBest may be between begin() and
/// end() at a time.
class SegmentBest {
 public:
  static constexpr std::uint64_t kAllocsPerMark = 64;

  void begin();
  /// Folds the pass begun by begin() in.  False if it has another number
  /// of segments than the passes before it.
  bool end();
  /// Sum of the segments' fastest times, seconds.
  double total_s() const;

 private:
  std::int64_t start_ns_ = 0;
  std::vector<std::int64_t> best_ns_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;        ///< min(4, CPUs this process may run on)
  std::string out_dir;    ///< where a traced run writes its spans
};

/// Runs `pass` (untraced) until `seconds` of wall time have passed and at
/// least `min_passes` ran; with opts.trace each untraced pass is followed
/// by a traced one, and the spans of the last traced pass are kept.
/// `pass(lane)` gets a null lane when untraced.  `setup()` runs before the
/// first pass and again before every `setup_every`-th one, so that the
/// set-up times in out.setup_s sample the whole run, not one moment of it.
template <class Setup, class Pass>
void measure(const Options& opts, Tracer& tracer, Report& out,
             int min_passes, int setup_every, Setup&& setup, Pass&& pass) {
  const double start = wall_now();
  for (int i = 0;; ++i) {
    if (i >= min_passes && wall_now() - start >= opts.seconds) break;
    if (i % setup_every == 0) {
      const double setup_start = wall_now();
      setup();
      out.setup_s.add(wall_now() - setup_start);
    }
    pass(nullptr);
    if (opts.trace) {
      tracer.reset();
      pass(tracer.main());
    }
  }
}

}  // namespace perfbench
