#include "harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <ctime>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------- spans --

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_ns_(wall_ns()) {
  lanes_.emplace_back();
  lanes_.front().tracer_ = this;
}

std::int64_t Tracer::now_ns() const { return wall_ns() - epoch_ns_; }

Tracer::Lane* Tracer::lane(std::int64_t parent) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> guard(mutex_);
  Lane& lane = lanes_.emplace_back();
  lane.tracer_ = this;
  lane.thread_ = static_cast<int>(lanes_.size() - 1);
  lane.root_parent_ = parent;
  return &lane;
}

std::size_t Tracer::Lane::open(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = tracer_->now_ns();
  span.thread = thread_;
  // Lane-local until spans() merges the lanes; -1 = the lane's root.
  span.parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Lane::close(std::size_t index) {
  spans_[index].end_ns = tracer_->now_ns();
  stack_.pop_back();
}

std::int64_t Tracer::Lane::current() const {
  // The main lane merges first, so its indices are already global ids.
  return stack_.empty() ? root_parent_
                        : static_cast<std::int64_t>(stack_.back());
}

void Tracer::reset() {
  std::lock_guard<std::mutex> guard(mutex_);
  lanes_.resize(1);
  lanes_.front().spans_.clear();
  lanes_.front().stack_.clear();
}

std::vector<Span> Tracer::spans() {
  std::vector<Span> out;
  if (!enabled_) return out;
  for (const Lane& lane : lanes_) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (Span span : lane.spans_) {
      span.parent = span.parent >= 0 ? span.parent + base : lane.root_parent_;
      out.push_back(span);
    }
  }
  return out;
}

// ------------------------------------------------------------ metrics --

void Report::fail(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

}  // namespace perfbench
