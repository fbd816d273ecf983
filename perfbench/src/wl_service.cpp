// Workload `service`: service::run_service on the E20 shape (4 shards x 3
// replicas, stock ABD, max_batch 256, Δ = 50 ticks, uniform access cost,
// no faults) at two fixed open-loop rates.  The steady rate (0.40
// arrivals/tick, ~74% of capacity) admits every session on its first try;
// the overload rate (1.0/tick, ~2x capacity) takes the reject ->
// retry-heap -> shed path.  Each call is reported from the fastest pass of
// each of its segments (SegmentBest).

#include <cstdint>
#include <memory>
#include <string>

#include "tfr/obs/trace.hpp"
#include "tfr/service/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tfr;

constexpr sim::Duration kStep = 50;
constexpr std::uint64_t kSteadySessions = 250'000;
constexpr std::uint64_t kOverloadSessions = 60'000;
constexpr std::uint64_t kWarmupSessions = 25'000;
constexpr int kSetupEvery = 4;  // passes per set-up

/// The E19/E20 hardened retry discipline, in units of the step bound.
msg::RetryPolicy retry_policy() {
  msg::RetryPolicy policy;
  policy.timeout = 40 * kStep;
  policy.timeout_growth = 2.0;
  policy.max_timeout = 320 * kStep;
  policy.backoff = 2 * kStep;
  policy.backoff_growth = 2.0;
  policy.max_backoff = 40 * kStep;
  policy.jitter = kStep;
  policy.poll_every = 5;
  return policy;
}

service::ServiceConfig make_config(std::uint64_t seed, double rate,
                                   std::uint64_t sessions,
                                   std::size_t queue_capacity) {
  service::ServiceConfig config;
  config.shards = 4;
  config.step = kStep;
  config.sim_seed = seed;
  config.shard.replicas = 3;
  config.shard.delta = kStep;
  config.shard.abd_retry = retry_policy();
  config.shard.batch.max_batch = 256;
  config.shard.batch.max_wait = 4 * kStep;
  config.shard.queue_capacity = queue_capacity;
  config.shard.drain_hint = 8;
  config.shard.poll_every = kStep;
  config.load.sessions = sessions;
  config.load.arrivals_per_tick = rate;
  config.load.tick = kStep;
  config.load.retry = retry_policy();
  config.load.max_attempts = 6;
  config.load.route_seed = seed * 0x9e3779b97f4a7c15ULL + 11;
  return config;
}

struct Cell {
  service::ServiceReport report;
  double wall = 0;
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t accesses = 0;
  std::uint64_t delays = 0;
};

/// One run_service call; with a lane, under a TraceSink sized so that
/// nothing is dropped (checked), counting events by kind.  With `best`,
/// folds the call's segments into it.
Cell run_cell(service::ServiceConfig config, Tracer::Lane* lane,
              SegmentBest* best, Report& out) {
  std::unique_ptr<obs::TraceSink> sink;
  if (lane != nullptr) {
    sink = std::make_unique<obs::TraceSink>(4 * config.load.sessions +
                                            (1 << 16));
    config.sink = sink.get();
  }
  Cell cell;
  {
    Scoped span(lane, "run_service");
    if (best != nullptr) best->begin();
    const std::uint64_t allocs = allocations();
    const double start = wall_now();
    cell.report = service::run_service(config);
    cell.wall = wall_now() - start;
    cell.allocs = allocations() - allocs;
    out.require(best == nullptr || best->end(),
                "service: segment counts differ between passes");
  }
  if (sink) {
    out.require(sink->dropped() == 0, "service: TraceSink dropped events");
    cell.events = sink->size();
    for (std::size_t i = 0; i < sink->size(); ++i) {
      const obs::EventKind kind = (*sink)[i].kind;
      if (kind == obs::EventKind::kRead || kind == obs::EventKind::kWrite)
        ++cell.accesses;
      if (kind == obs::EventKind::kDelay) ++cell.delays;
    }
  }
  return cell;
}

void check_cell(const Cell& cell, bool overload, Report& out) {
  const service::ServiceReport& r = cell.report;
  const std::string what = overload ? "service overload: " : "service steady: ";
  out.require(r.all_elected, what + "not every shard elected a leader");
  out.require(r.complete(), what + "sessions neither served nor shed");
  out.require(r.linearizable, what + "a shard history is not linearizable");
  out.require(r.safety_violations == 0, what + "safety violations");
  out.require(r.readback_mismatches == 0, what + "read-back mismatches");
  if (overload) {
    out.require(r.rejected > 0 && r.shed > 0,
                what + "overload never pushed back");
  } else {
    out.require(r.shed == 0 && r.rejected == 0,
                what + "the steady rate was pushed back");
  }
  out.attempted += r.sessions;
  // Overload sheds are the designed backpressure response, not failures;
  // they are reported as fail_frac.  A failure is a session lost outright,
  // or any shed at the steady rate.
  const std::uint64_t resolved = r.served + r.shed;
  out.failed += (r.sessions > resolved ? r.sessions - resolved : 0) +
                (overload ? 0 : r.shed);
}

}  // namespace

Report run_service_workload(const Options& opts, Tracer& tracer) {
  Report out;
  service::ServiceConfig steady;
  service::ServiceConfig overload;
  const auto setup = [&] {
    steady = make_config(opts.seed, 0.40, kSteadySessions, 4096);
    overload = make_config(opts.seed, 1.0, kOverloadSessions, 1024);
    const service::ServiceReport warm = service::run_service(
        make_config(opts.seed, 0.40, kWarmupSessions, 4096));
    out.require(warm.complete() && warm.linearizable,
                "service warm-up failed");
  };

  double p50 = -1, p999 = -1, capacity = -1;
  std::uint64_t p999_samples = 0, shed = 0, sessions = 0;
  Cell last_steady, last_overload;
  std::vector<double> untraced_wall, traced_wall;
  Cell traced_steady, traced_overload;
  SegmentBest steady_best, overload_best;
  Samples cpu_per_wall;

  measure(opts, tracer, out, 3, kSetupEvery, setup, [&](Tracer::Lane* lane) {
    Scoped span(lane, "service.pass");
    const double cpu = cpu_now();
    const bool untraced = lane == nullptr;
    Cell st = run_cell(steady, lane, untraced ? &steady_best : nullptr, out);
    Cell ov =
        run_cell(overload, lane, untraced ? &overload_best : nullptr, out);
    const double cpu_s = cpu_now() - cpu;
    check_cell(st, false, out);
    check_cell(ov, true, out);
    const double wall = st.wall + ov.wall;
    if (lane != nullptr) {
      traced_wall.push_back(wall);
      traced_steady = st;
      traced_overload = ov;
      return;
    }
    untraced_wall.push_back(wall);
    out.pass_wall_s.add(wall);
    out.pass_cpu_s.add(cpu_s);
    out.pass_ops_per_s.add(
        static_cast<double>(st.report.served + ov.report.served) / wall);
    cpu_per_wall.add(cpu_s / wall);

    // The virtual-time figures are deterministic for a seed: every pass
    // must reproduce them exactly.
    const double pass_p50 = st.report.latency.percentile(50) / kStep;
    const double pass_p999 = st.report.latency.percentile(99.9) / kStep;
    const double pass_capacity = ov.report.throughput_per_delta(kStep);
    if (p50 < 0) {
      p50 = pass_p50;
      p999 = pass_p999;
      capacity = pass_capacity;
      p999_samples = st.report.latency.count();
    }
    out.require(pass_p50 == p50 && pass_p999 == p999 &&
                    pass_capacity == capacity,
                "service: virtual-time metrics differ between passes");
    if (untraced_wall.size() > 1) {
      out.require(st.allocs == last_steady.allocs &&
                      ov.allocs == last_overload.allocs,
                  "service: allocation counts differ between passes");
    }
    shed += st.report.shed + ov.report.shed;
    sessions += st.report.sessions + ov.report.sessions;
    last_steady = std::move(st);
    last_overload = std::move(ov);
  });

  // CPU time is the wall time scaled by the passes' CPU/wall ratio: one
  // thread, so about 1.
  out.figures.wall_s = steady_best.total_s() + overload_best.total_s();
  out.figures.cpu_s = out.figures.wall_s * cpu_per_wall.median();
  out.figures.ops_per_s =
      static_cast<double>(last_steady.report.served +
                          last_overload.report.served) /
      out.figures.wall_s;

  out.headline = {
      {"sessions_per_s", out.figures.ops_per_s, "1/s"},
      {"session_p50_delta", p50, "delta"},
      {"session_p999_delta", p999, "delta"},
      {"session_p999_samples", static_cast<double>(p999_samples), "count"},
      {"capacity_per_delta", capacity, "1/delta"},
      {"fail_frac", static_cast<double>(shed) / static_cast<double>(sessions),
       "ratio"},
  };

  if (opts.trace) {
    const service::ServiceReport& st = last_steady.report;
    const service::ServiceReport& ov = last_overload.report;
    const double all_sessions = static_cast<double>(st.sessions + ov.sessions);
    const double traced_sessions = static_cast<double>(
        traced_steady.report.sessions + traced_overload.report.sessions);
    Samples overhead;
    for (std::size_t i = 0; i < traced_wall.size(); ++i)
      overhead.add(traced_wall[i] / untraced_wall[i]);
    out.layer = {
        {"sim.accesses_per_session",
         static_cast<double>(traced_steady.accesses + traced_overload.accesses) /
             traced_sessions,
         "count"},
        {"sim.delays_per_session",
         static_cast<double>(traced_steady.delays + traced_overload.delays) /
             traced_sessions,
         "count"},
        {"sim.allocs_per_session",
         static_cast<double>(last_steady.allocs + last_overload.allocs) /
             all_sessions,
         "count"},
        {"service.abd_ops_per_session",
         static_cast<double>(st.abd_operations + ov.abd_operations) /
             all_sessions,
         "count"},
        {"service.sessions_per_batch",
         static_cast<double>(st.served) / static_cast<double>(st.batches),
         "count"},
        {"service.rejected_per_session",
         static_cast<double>(ov.rejected) / static_cast<double>(ov.sessions),
         "count"},
        {"service.amplification", ov.amplification, "ratio"},
        {"service.max_queue_depth", static_cast<double>(ov.max_queue_depth),
         "count"},
        {"service.shed_frac_overload",
         static_cast<double>(ov.shed) / static_cast<double>(ov.sessions),
         "ratio"},
        {"obs.events_per_session",
         static_cast<double>(traced_steady.events + traced_overload.events) /
             traced_sessions,
         "count"},
        {"obs.trace_overhead.service", overhead.median(), "ratio"},
    };
  }
  return out;
}

}  // namespace perfbench
