#include "tfr/obs/replay.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

#include "tfr/common/contracts.hpp"
#include "tfr/obs/export.hpp"

namespace tfr::obs {

namespace {

constexpr char kRunMagic[8] = {'T', 'F', 'R', 'R', 'U', 'N', '0', '1'};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool u32(std::uint32_t& v) {
    if (bytes_.size() - pos_ < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (bytes_.size() - pos_ < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return true;
  }

  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }

  bool str(std::string& s, std::size_t len) {
    if (bytes_.size() - pos_ < len) return false;
    s.assign(bytes_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool byte(unsigned char& v) {
    if (pos_ >= bytes_.size()) return false;
    v = static_cast<unsigned char>(bytes_[pos_++]);
    return true;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::size_t ReplaySchedule::pick(sim::Time now,
                                 const std::vector<sim::EnabledEvent>& options) {
  (void)now;
  TFR_REQUIRE(!options.empty());
  if (position_ >= picks_.size()) return 0;
  const sim::Pid want = picks_[position_++];
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (options[i].pid == want) return i;
  }
  // The schedule no longer matches the scenario — a divergence the trace
  // comparison will surface; degrade to the lowest pid.
  return 0;
}

std::unique_ptr<sim::TimingModel> make_timing(const TimingSpec& spec,
                                              TraceSink* sink) {
  std::unique_ptr<sim::TimingModel> base;
  switch (spec.kind) {
    case TimingSpec::Kind::kFixed:
      base = sim::make_fixed_timing(spec.lo);
      break;
    case TimingSpec::Kind::kUniform:
      base = sim::make_uniform_timing(spec.lo, spec.hi);
      break;
    case TimingSpec::Kind::kScripted: {
      auto scripted =
          std::make_unique<sim::ScriptedTiming>(sim::make_fixed_timing(spec.lo));
      for (const auto& [pid, cost] : spec.script) scripted->push(pid, cost);
      base = std::move(scripted);
      break;
    }
    case TimingSpec::Kind::kPhased:
      base = sim::make_phased_timing(spec.phases);
      break;
  }
  TFR_REQUIRE(base != nullptr);
  if (!spec.has_injector()) return base;

  auto injector =
      std::make_unique<sim::FailureInjector>(std::move(base), spec.delta);
  for (const sim::FailureWindow& w : spec.windows) injector->add_window(w);
  if (spec.random_p > 0.0)
    injector->set_random_failures(spec.random_p, spec.random_stretch_max);
  injector->set_trace_sink(sink);
  return injector;
}

std::string RecordedRun::to_bytes() const {
  std::string out;
  out.append(kRunMagic, sizeof kRunMagic);
  put_u64(out, seed);
  out += static_cast<char>(timing.kind);
  put_i64(out, timing.lo);
  put_i64(out, timing.hi);
  put_i64(out, timing.delta);
  put_u32(out, static_cast<std::uint32_t>(timing.windows.size()));
  for (const sim::FailureWindow& w : timing.windows) {
    put_i64(out, w.begin);
    put_i64(out, w.end);
    put_i64(out, w.stretched);
    put_u32(out, static_cast<std::uint32_t>(w.victims.size()));
    for (sim::Pid pid : w.victims)
      put_u32(out, static_cast<std::uint32_t>(pid));
  }
  put_u64(out, std::bit_cast<std::uint64_t>(timing.random_p));
  put_i64(out, timing.random_stretch_max);
  if (timing.kind == TimingSpec::Kind::kScripted) {
    // Scripted executions (mcheck counterexamples) carry their cost script
    // and tie-break schedule; older kinds keep the original layout.
    put_u32(out, static_cast<std::uint32_t>(timing.script.size()));
    for (const auto& [pid, cost] : timing.script) {
      put_u32(out, static_cast<std::uint32_t>(pid));
      put_i64(out, cost);
    }
    put_u32(out, static_cast<std::uint32_t>(timing.schedule.size()));
    for (sim::Pid pid : timing.schedule)
      put_u32(out, static_cast<std::uint32_t>(pid));
  }
  if (timing.kind == TimingSpec::Kind::kPhased) {
    // Drifting distributions carry their regime list; like the scripted
    // extension, the section is conditional so older layouts parse as-is.
    put_u32(out, static_cast<std::uint32_t>(timing.phases.size()));
    for (const sim::TimingPhase& phase : timing.phases) {
      put_i64(out, phase.start);
      put_i64(out, phase.lo);
      put_i64(out, phase.hi);
      out += static_cast<char>(phase.ramp ? 1 : 0);
    }
  }
  put_u64(out, trace.size());
  out += trace;
  return out;
}

std::optional<RecordedRun> RecordedRun::from_bytes(std::string_view bytes) {
  if (bytes.size() < sizeof kRunMagic ||
      std::memcmp(bytes.data(), kRunMagic, sizeof kRunMagic) != 0) {
    return std::nullopt;
  }
  Reader reader(bytes.substr(sizeof kRunMagic));
  RecordedRun run;
  unsigned char kind_byte = 0;
  std::uint32_t window_count = 0;
  if (!reader.u64(run.seed) || !reader.byte(kind_byte) ||
      !reader.i64(run.timing.lo) || !reader.i64(run.timing.hi) ||
      !reader.i64(run.timing.delta) || !reader.u32(window_count)) {
    return std::nullopt;
  }
  run.timing.kind = static_cast<TimingSpec::Kind>(kind_byte);
  for (std::uint32_t i = 0; i < window_count; ++i) {
    sim::FailureWindow w;
    std::uint32_t victim_count = 0;
    if (!reader.i64(w.begin) || !reader.i64(w.end) ||
        !reader.i64(w.stretched) || !reader.u32(victim_count)) {
      return std::nullopt;
    }
    for (std::uint32_t v = 0; v < victim_count; ++v) {
      std::uint32_t pid = 0;
      if (!reader.u32(pid)) return std::nullopt;
      w.victims.push_back(static_cast<sim::Pid>(pid));
    }
    run.timing.windows.push_back(std::move(w));
  }
  std::uint64_t p_bits = 0;
  if (!reader.u64(p_bits) || !reader.i64(run.timing.random_stretch_max)) {
    return std::nullopt;
  }
  run.timing.random_p = std::bit_cast<double>(p_bits);
  if (run.timing.kind == TimingSpec::Kind::kScripted) {
    std::uint32_t script_count = 0;
    if (!reader.u32(script_count)) return std::nullopt;
    for (std::uint32_t i = 0; i < script_count; ++i) {
      std::uint32_t pid = 0;
      std::int64_t cost = 0;
      if (!reader.u32(pid) || !reader.i64(cost)) return std::nullopt;
      run.timing.script.emplace_back(static_cast<sim::Pid>(pid), cost);
    }
    std::uint32_t schedule_count = 0;
    if (!reader.u32(schedule_count)) return std::nullopt;
    for (std::uint32_t i = 0; i < schedule_count; ++i) {
      std::uint32_t pid = 0;
      if (!reader.u32(pid)) return std::nullopt;
      run.timing.schedule.push_back(static_cast<sim::Pid>(pid));
    }
  }
  if (run.timing.kind == TimingSpec::Kind::kPhased) {
    std::uint32_t phase_count = 0;
    if (!reader.u32(phase_count)) return std::nullopt;
    for (std::uint32_t i = 0; i < phase_count; ++i) {
      sim::TimingPhase phase;
      unsigned char ramp_byte = 0;
      if (!reader.i64(phase.start) || !reader.i64(phase.lo) ||
          !reader.i64(phase.hi) || !reader.byte(ramp_byte)) {
        return std::nullopt;
      }
      phase.ramp = ramp_byte != 0;
      run.timing.phases.push_back(phase);
    }
  }
  std::uint64_t trace_len = 0;
  if (!reader.u64(trace_len) || !reader.str(run.trace, trace_len)) {
    return std::nullopt;
  }
  return run;
}

bool RecordedRun::save(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  const std::string bytes = to_bytes();
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(file);
}

std::optional<RecordedRun> RecordedRun::load(const std::string& path) {
  std::optional<std::string> bytes = read_file(path);
  if (!bytes) return std::nullopt;
  return from_bytes(*bytes);
}

namespace {

/// One traced execution of `scenario` under (spec, seed); the returned
/// string is the binary trace.
std::string run_traced(std::uint64_t seed, const TimingSpec& spec,
                       const Scenario& scenario) {
  TraceSink sink;
  std::unique_ptr<sim::TimingModel> timing = make_timing(spec, &sink);
  std::optional<ReplaySchedule> replayer;
  sim::SimulationOptions options{.seed = seed, .sink = &sink};
  if (!spec.schedule.empty()) {
    replayer.emplace(spec.schedule);
    options.strategy = &*replayer;
  }
  sim::Simulation simulation(std::move(timing), options);
  scenario(simulation);
  TFR_REQUIRE(sink.dropped() == 0);  // a lossy trace cannot be golden
  return encode_binary(sink);
}

}  // namespace

RecordedRun record(std::uint64_t seed, const TimingSpec& spec,
                   const Scenario& scenario) {
  RecordedRun run;
  run.seed = seed;
  run.timing = spec;
  run.trace = run_traced(seed, spec, scenario);
  return run;
}

ReplayResult replay(const RecordedRun& run, const Scenario& scenario) {
  ReplayResult result;
  result.trace = run_traced(run.seed, run.timing, scenario);
  result.identical = result.trace == run.trace;
  if (!result.identical) {
    // Locate the first diverging *event* for diagnosis.
    TraceSink golden, replayed;
    if (decode_binary(run.trace, golden) &&
        decode_binary(result.trace, replayed)) {
      const std::size_t n = std::min(golden.size(), replayed.size());
      std::size_t i = 0;
      while (i < n && golden[i] == replayed[i]) ++i;
      result.first_divergence = i;
    }
  }
  return result;
}

}  // namespace tfr::obs
