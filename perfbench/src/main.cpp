// perfbench — the repository's real-clock benchmark binary.
//
//   perfbench --workload <service|abd-faulty|mcheck|rt-locks> --seed N
//             --seconds S --trace <0|1> [--build-id ID] [--out-dir DIR]
//
// Runs one workload in this process and prints, as its last stdout line,
// one JSON object: the seed, a host and build fingerprint, the
// correctness verdict, the generic end-to-end metrics, the workload's own
// named end-to-end metrics and (with --trace 1) the per-layer metrics.
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result line.  Exit status: 0 iff every correctness check
// passed; 1 on a mismatch; 2 on bad arguments.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const Samples& samples) {
  const std::vector<double>& values = samples.values();
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  return out + "]";
}

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string fingerprint(const std::string& build_id) {
  return std::string("{\"cores_online\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cores_allowed\": " + std::to_string(allowed_cpus()) +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + json_string(build_id) + "}";
}

/// Chrome trace_event JSON (opens in Perfetto); each span carries its id
/// and parent id in args.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::string& header) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [\n", header.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<service|abd-faulty|mcheck|rt-locks> --seed N --seconds S\n"
               "                 --trace <0|1> [--build-id ID] "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::string build_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--build-id") {
      build_id = value;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opts.seconds <= 0) return usage();
  opts.threads = std::min(4, allowed_cpus());

  Report (*run)(const Options&, Tracer&) = nullptr;
  if (opts.workload == "service") run = run_service_workload;
  if (opts.workload == "abd-faulty") run = run_abd_faulty_workload;
  if (opts.workload == "mcheck") run = run_mcheck_workload;
  if (opts.workload == "rt-locks") run = run_rt_locks_workload;
  if (run == nullptr) return usage();

  const std::string stamp = fingerprint(build_id);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::printf("perfbench: fingerprint %s\n", stamp.c_str());
  std::fflush(stdout);

  Tracer tracer(opts.trace);
  Report report = run(opts, tracer);
  if (opts.trace) run_microcells(opts, report);

  if (report.pass_wall_s.empty()) report.fail("no measured pass completed");
  // Set-up times, sampled several times a run, are summarised by their
  // median; the workload summarised its passes itself.
  const Metrics end_to_end = {
      {"setup_s", report.setup_s.empty() ? 0.0 : report.setup_s.median(),
       "s"},
      {"wall_s", report.figures.wall_s, "s"},
      {"cpu_s", report.figures.cpu_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ops_per_s", report.figures.ops_per_s, "1/s"},
  };

  std::string trace_file;
  if (opts.trace && !opts.out_dir.empty()) {
    trace_file = opts.out_dir + "/" + opts.workload + "-seed" +
                 std::to_string(opts.seed) + ".trace.json";
    const std::string header = std::string("{\"workload\": ") +
                               json_string(opts.workload) +
                               ", \"seed\": " + std::to_string(opts.seed) +
                               ", \"fingerprint\": " + stamp + "}";
    if (!write_spans(trace_file, tracer.spans(), header))
      report.fail("could not write spans to " + trace_file);
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < report.errors.size(); ++i)
    errors += (i > 0 ? ", " : "") + json_string(report.errors[i]);
  errors += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"fingerprint\": %s, "
      "\"correct\": %s, \"errors\": %s, \"attempted\": %llu, \"failed\": "
      "%llu, \"passes\": %zu, \"setup_samples_s\": %s, \"pass_wall_s\": %s, "
      "\"pass_cpu_s\": %s, \"pass_ops_per_s\": %s, \"end_to_end\": %s, "
      "\"named\": %s, "
      "\"per_layer\": %s, \"trace_file\": %s}\n",
      json_string(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
      stamp.c_str(), report.correct ? "true" : "false", errors.c_str(),
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      report.pass_wall_s.count(), json_list(report.setup_s).c_str(),
      json_list(report.pass_wall_s).c_str(),
      json_list(report.pass_cpu_s).c_str(),
      json_list(report.pass_ops_per_s).c_str(),
      json_metrics(end_to_end).c_str(),
      json_metrics(report.headline).c_str(),
      json_metrics(report.layer).c_str(), json_string(trace_file).c_str());
  return report.correct ? 0 : 1;
}
