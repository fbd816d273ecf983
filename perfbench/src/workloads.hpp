// The four perfbench workloads and the layer microcells (README.md has the
// why of each).  Every entry point fills a Report; main() turns it into
// the result line.

#pragma once

#include "harness.hpp"
#include "tfr/adapt/controller.hpp"

namespace perfbench {

/// service::run_service on the E20 shape at a steady and an overload rate.
Report run_service_workload(const Options& opts, Tracer& tracer);

/// n=3 ABD cluster (fast read, per-peer windows) under a slow and a lossy
/// replica, built from the public msg pieces.
Report run_abd_faulty_workload(const Options& opts, Tracer& tracer);

/// Serial mcheck::check over the shipped sim and shim check set.
Report run_mcheck_workload(const Options& opts, Tracer& tracer);

/// Real threads: contended Algorithm 3, AtomicMutex and std::mutex, and a
/// solo RtConsensus propose on a fresh object per decision.
Report run_rt_locks_workload(const Options& opts, Tracer& tracer);

/// E22's estimator config, shared by abd-faulty and the adapt microcells.
tfr::adapt::TimelinessEstimator::Config abd_estimator_config();

/// Per-layer ns/op cells that time single public calls (traced runs only):
/// a simulator event, a network message, an estimator update, a queue and
/// batch step, uncontended locks, and an Algorithm 1 solo propose.
void run_microcells(const Options& opts, Report& report);

}  // namespace perfbench
