#include "tfr/mcheck/rt_scenarios.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "tfr/core/consensus_rt.hpp"
#include "tfr/mutex/lock_adapters.hpp"
#include "tfr/mutex/mutex_rt.hpp"
#include "tfr/registers/atomic_register.hpp"
#include "tfr/rt/atomic_mutex.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"

namespace tfr::mcheck {

namespace {

using ShimAtomics = rtshim::ShimAtomics;
using Consensus = rt::BasicRtConsensus<ShimAtomics>;

constexpr int kConsensusInputs[] = {0, 1};

// Ownership (see RtExecution's ownership contract): each verdict closure
// owns the run's RtExecution, so it is torn down exactly when the
// explorer drops the harness.  Thread bodies share-own the algorithm
// state (plus a raw RtExecution pointer for the occupancy probe), so the
// state outlives the teardown that unwinds them.

/// A run that goes idle with unfinished threads means every one of them
/// is parked in atomic::wait with no wakeup in flight: a lost wakeup (or
/// outright deadlock).  Replay-stable — the recorded schedule reaches the
/// same idle state.
CheckOutcome check_parked_at_idle(const sim::Simulation& sim) {
  if (sim.pending_events().empty() && !sim.all_done())
    return {false, "lost wakeup: threads parked with the simulation idle"};
  return {};
}

}  // namespace

CheckScenario make_rt_consensus_scenario() {
  return [](sim::Simulation& simulation) -> RunHarness {
    struct Algo {
      Consensus consensus{{.delta = 2}};
      Consensus::Result results[std::size(kConsensusInputs)];
    };
    auto exec = std::make_shared<rtshim::RtExecution>(simulation);
    auto algo = std::make_shared<Algo>();
    for (std::size_t id = 0; id < std::size(kConsensusInputs); ++id) {
      exec->spawn_thread([algo, id] {
        algo->results[id] = algo->consensus.propose(kConsensusInputs[id]);
      });
    }

    RunHarness harness;
    harness.verdict = [exec, algo](const RunInfo& info) -> CheckOutcome {
      int agreed = Consensus::kBot;
      for (const Consensus::Result& result : algo->results) {
        if (result.value == Consensus::kBot) continue;  // did not finish
        if (agreed != Consensus::kBot && result.value != agreed)
          return {false, "consensus agreement violated"};
        if (std::find(std::begin(kConsensusInputs), std::end(kConsensusInputs),
                      result.value) == std::end(kConsensusInputs))
          return {false, "consensus validity violated"};
        // Rounds 0 and 1 resolve any failure-free instance.
        if (info.failures_injected == 0 && result.rounds > 2)
          return {false, "failure-free execution exceeded the round bound"};
        agreed = result.value;
      }
      return {};
    };
    return harness;
  };
}

CheckScenario make_rt_mutex_scenario(RtMutexScenarioConfig config) {
  return [config](sim::Simulation& simulation) -> RunHarness {
    struct Algo {
      std::unique_ptr<rt::BasicRtMutex<ShimAtomics>> lock;
    };
    auto exec = std::make_shared<rtshim::RtExecution>(simulation);
    auto algo = std::make_shared<Algo>();
    switch (config.algorithm) {
      case RtMutexScenarioConfig::Algorithm::kFischer:
        algo->lock =
            std::make_unique<rt::BasicFischerRt<ShimAtomics>>(config.delta);
        break;
      case RtMutexScenarioConfig::Algorithm::kTfrStarvationFree:
        algo->lock =
            rt::make_basic_tfr_mutex<ShimAtomics>(config.threads,
                                                  config.delta);
        break;
      case RtMutexScenarioConfig::Algorithm::kAtomicLock:
        algo->lock =
            std::make_unique<rt::BasicAtomicMutexLock<ShimAtomics>>();
        break;
    }
    for (int id = 0; id < config.threads; ++id) {
      exec->spawn_thread([algo, exec = exec.get(), id, config] {
        for (int s = 0; s < config.sessions; ++s) {
          algo->lock->lock(id);
          exec->mark_enter();
          if (config.cs_time > 0) ShimAtomics::delay(config.cs_time);
          exec->mark_exit();
          algo->lock->unlock(id);
        }
      });
    }

    RunHarness harness;
    harness.verdict = [exec,
                       sim = &simulation](const RunInfo&) -> CheckOutcome {
      if (exec->me_violations() > 0)
        return {false, "mutual exclusion violated (CS occupancy overlap)"};
      return check_parked_at_idle(*sim);
    };
    return harness;
  };
}

CheckScenario make_rt_eventcount_scenario(RtEventCountScenarioConfig config) {
  return [config](sim::Simulation& simulation) -> RunHarness {
    struct Algo {
      std::unique_ptr<rt::BasicAtomicRegister<int, ShimAtomics>> ready;
      std::unique_ptr<rt::BasicEventCount<ShimAtomics>> events;
    };
    auto exec = std::make_shared<rtshim::RtExecution>(simulation);
    auto algo = std::make_shared<Algo>();
    algo->ready = std::make_unique<rt::BasicAtomicRegister<int, ShimAtomics>>();
    algo->events = std::make_unique<rt::BasicEventCount<ShimAtomics>>();

    exec->spawn_thread([algo, torn = config.torn_epoch] {
      if (torn) {
        // The bug under test: publishing the epoch before the state write
        // lets a waiter snapshot the new epoch, read the old state, and
        // park on an epoch that will never move again.
        algo->events->advance();
        algo->ready->write(1);
      } else {
        algo->ready->write(1);
        algo->events->advance();
      }
    });
    exec->spawn_thread([algo] {
      rt::wait_until_changed(*algo->events,
                             [&] { return algo->ready->read() == 1; });
    });

    RunHarness harness;
    harness.verdict = [exec,
                       sim = &simulation](const RunInfo&) -> CheckOutcome {
      return check_parked_at_idle(*sim);
    };
    return harness;
  };
}

}  // namespace tfr::mcheck
