// E11 — §1.4: consensus as a universal building block.  Cost of the
// derived wait-free objects (leader election, test-and-set, n-renaming,
// universal-construction operations) built from Algorithm 1, with and
// without timing failures.
//
// The objects measured are the shipped ones (derived/derived_rt.hpp),
// instantiated with ShimAtomics: each thread body is a fiber whose every
// shared access is scheduled and timed by the sim::Simulation below
// (rt/shim/rt_exec.hpp), so E11 costs the code that ships, not a
// transcription of it.
//
// Series: per-operation shared-memory steps and completion time (Delta
// units), plus the shim cells constructed, as n grows.  Expected shape:
// costs scale with the bit-width of the agreement (elections/TAS
// ~constant in n), renaming ~n slots worst case, and timing failures slow
// things down without ever breaking agreement/uniqueness (safety columns
// implicit: the audits throw on violation, so completing the table is the
// check).

#include <algorithm>
#include <iostream>
#include <memory>
#include <set>
#include <vector>

#include "bench_util.hpp"
#include "tfr/common/contracts.hpp"
#include "tfr/derived/derived_rt.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

using namespace tfr;

namespace {

using Shim = rtshim::ShimAtomics;

constexpr sim::Duration kDelta = 100;
constexpr std::uint64_t kSeeds = 8;

std::unique_ptr<sim::TimingModel> timing(bool failures) {
  if (!failures) return sim::make_uniform_timing(1, kDelta);
  auto injector = std::make_unique<sim::FailureInjector>(
      sim::make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(0.1, 8 * kDelta);
  return injector;
}

struct Measured {
  Samples steps;   ///< per process
  Samples time;    ///< completion time
  std::uint64_t registers = 0;
};

Measured measure(const std::string& object, int n, bool failures) {
  Measured m;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    sim::Simulation s(timing(failures), {.seed = seed});
    std::vector<int> out(static_cast<std::size_t>(n), -1);
    std::vector<std::int64_t> out64(static_cast<std::size_t>(n), -1);

    // The objects outlive the execution, whose teardown unwinds any
    // thread still inside them; shim cells are built while it is live.
    std::unique_ptr<rt::BasicRtElection<Shim>> election;
    std::unique_ptr<rt::BasicRtTestAndSet<Shim>> tas;
    std::unique_ptr<rt::BasicRtRenaming<Shim>> renaming;
    std::unique_ptr<rt::BasicRtUniversal<Shim>> universal;
    std::unique_ptr<rt::BasicRtSetConsensus<Shim>> setcons;
    std::unique_ptr<rt::BasicRtLongLivedTestAndSet<Shim>> lltas;
    rtshim::RtExecution exec(s);

    if (object == "election") {
      election = std::make_unique<rt::BasicRtElection<Shim>>(kDelta);
      for (int i = 0; i < n; ++i)
        exec.spawn_thread([&election, &out, i] {
          out[static_cast<std::size_t>(i)] = election->elect(i);
        });
    } else if (object == "test-and-set") {
      tas = std::make_unique<rt::BasicRtTestAndSet<Shim>>(kDelta);
      for (int i = 0; i < n; ++i)
        exec.spawn_thread([&tas, &out, i] {
          out[static_cast<std::size_t>(i)] = tas->test_and_set(i);
        });
    } else if (object == "renaming") {
      renaming = std::make_unique<rt::BasicRtRenaming<Shim>>(kDelta, n);
      for (int i = 0; i < n; ++i)
        exec.spawn_thread([&renaming, &out, i] {
          out[static_cast<std::size_t>(i)] = renaming->acquire(i);
        });
    } else if (object == "set-consensus(k=2)") {
      setcons = std::make_unique<rt::BasicRtSetConsensus<Shim>>(kDelta, 2);
      for (int i = 0; i < n; ++i)
        exec.spawn_thread([&setcons, &out64, i] {
          out64[static_cast<std::size_t>(i)] = setcons->propose(i, 100 + i);
        });
    } else if (object == "long-lived-tas") {
      lltas =
          std::make_unique<rt::BasicRtLongLivedTestAndSet<Shim>>(kDelta, n);
      for (int i = 0; i < n; ++i)
        exec.spawn_thread([&lltas, i] {
          for (int session = 0; session < 2; ++session) {
            while (lltas->test_and_set(i) != 0) Shim::delay(10);
            lltas->reset(i);
          }
        });
    } else {
      universal = std::make_unique<rt::BasicRtUniversal<Shim>>(
          kDelta, n,
          [] { return std::make_unique<derived::CounterReplica>(); });
      for (int i = 0; i < n; ++i)
        exec.spawn_thread([&universal, i] {
          for (int k = 0; k < 2; ++k)
            universal->invoke(i, derived::CounterReplica::kAdd, 1);
        });
    }

    s.run(failures ? 5'000'000'000 : 500'000'000);

    // Safety audits per object.
    if (object == "election" || object == "test-and-set" ||
        object == "renaming") {
      std::set<int> values(out.begin(), out.end());
      if (object == "election") TFR_ENSURE(values.size() == 1);
      if (object == "test-and-set")
        TFR_ENSURE(std::count(out.begin(), out.end(), 0) == 1);
      if (object == "renaming")
        TFR_ENSURE(values.size() == static_cast<std::size_t>(n));
    }
    if (object == "set-consensus(k=2)") {
      std::set<std::int64_t> values(out64.begin(), out64.end());
      TFR_ENSURE(values.size() <= 2);
    }
    if (object == "long-lived-tas")
      TFR_ENSURE(lltas->generations() >= static_cast<std::size_t>(2 * n));

    for (int i = 0; i < n; ++i)
      m.steps.add(static_cast<double>(s.stats(i).accesses()));
    m.time.add(static_cast<double>(s.now()));
    m.registers = std::max(m.registers, s.space().allocated());
  }
  return m;
}

}  // namespace

TFR_BENCH_EXPERIMENT(E11, "section 1.4", bench::Tier::kSmoke,
                     "derived wait-free objects built from consensus "
                     "(§1.4)") {
  for (const bool failures : {false, true}) {
    Table table(failures ? "with 10% timing failures" : "without failures");
    table.header({"object", "n", "steps / process (mean)",
                  "completion / Delta (mean)", "registers"});
    for (const auto* object :
         {"election", "test-and-set", "set-consensus(k=2)", "renaming",
          "long-lived-tas", "universal-counter"}) {
      for (const int n : {2, 4, 8}) {
        const auto m = measure(object, n, failures);
        table.row({object, Table::fmt(static_cast<long long>(n)),
                   Table::fmt(m.steps.mean(), 0),
                   Table::fmt(m.time.mean() / kDelta, 1),
                   Table::fmt(static_cast<unsigned long long>(m.registers))});
      }
    }
    table.print(rec.out());
  }

  // Shape checks: election cost ~independent of n; renaming grows with n.
  const auto e2 = measure("election", 2, false);
  const auto e8 = measure("election", 8, false);
  const auto r2 = measure("renaming", 2, false);
  const auto r8 = measure("renaming", 8, false);
  rec.metric("election.steps.n2", e2.steps.mean());
  rec.metric("election.steps.n8", e8.steps.mean());
  rec.metric("renaming.steps.n2", r2.steps.mean());
  rec.metric("renaming.steps.n8", r8.steps.mean());
  rec.expect(e8.steps.mean() < 3 * e2.steps.mean(),
             "election cost roughly independent of n "
             "(bit-width bound, not participant bound)");
  rec.expect(r8.steps.mean() > 2 * r2.steps.mean(),
             "renaming cost grows with n (up to n slots contested)");
  rec.expect(true, "all safety audits passed (monitors/ENSUREs held)");
}
