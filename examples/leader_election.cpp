// Leader election under timing failures (simulator).
//
//   $ ./leader_election
//
// Six replicas of a coordination service elect a coordinator using the
// wait-free election built on time-resilient consensus (§1.4 of the
// paper).  The run begins inside a storm of timing failures — every
// shared-memory step of every process is stretched far beyond the assumed
// Δ — and two replicas crash outright.  The election nevertheless
// completes with a single agreed leader as soon as the storm passes,
// illustrating the paper's motto: safety always, liveness as soon as the
// timing constraints are met.
//
// The election is the shipped one (tfr/derived/derived_rt.hpp), run on
// simulated time: each replica is a fiber whose every shared access the
// simulator schedules and stretches (tfr/rt/shim/rt_exec.hpp).

#include <cstdio>
#include <memory>
#include <vector>

#include "tfr/derived/derived_rt.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

namespace {

constexpr tfr::sim::Duration kDelta = 100;

using Election = tfr::rt::BasicRtElection<tfr::rtshim::ShimAtomics>;

}  // namespace

int main() {
  // Timing model: normally 1..Δ per step, but a failure window stretches
  // every access to 6Δ for the first 40Δ of the run.
  auto injector = std::make_unique<tfr::sim::FailureInjector>(
      tfr::sim::make_uniform_timing(1, kDelta), kDelta);
  injector->add_window(
      {.begin = 0, .end = 40 * kDelta, .stretched = 6 * kDelta});

  tfr::sim::Simulation sim(std::move(injector), {.seed = 2026});
  const int replicas = 6;
  std::vector<int> winners(replicas, -1);
  // The election outlives the execution, whose teardown unwinds the
  // crashed replicas' fibers; its registers are built while it is live.
  std::unique_ptr<Election> election;
  tfr::rtshim::RtExecution exec(sim);
  election = std::make_unique<Election>(kDelta);

  for (int i = 0; i < replicas; ++i) {
    exec.spawn_thread([&sim, &election, &winners, i] {
      std::printf("[t=%6lld] replica %d joins the election\n",
                  static_cast<long long>(sim.now()), i);
      const int leader = election->elect(i);
      winners[static_cast<std::size_t>(i)] = leader;
      std::printf("[t=%6lld] replica %d learns the leader: replica %d\n",
                  static_cast<long long>(sim.now()), i, leader);
    });
  }
  // Two replicas die mid-protocol; the others must not block on them.
  sim.crash_after_accesses(1, 40);
  sim.crash_after_accesses(4, 90);
  std::printf("(replicas 1 and 4 will crash; timing failures until t=%lld)\n",
              static_cast<long long>(40 * kDelta));

  sim.run();

  int leader = -1;
  for (int i = 0; i < replicas; ++i) {
    if (i == 1 || i == 4) continue;  // crashed
    if (winners[static_cast<std::size_t>(i)] < 0) {
      std::printf("replica %d never decided (impossible once timing holds)\n",
                  i);
      return 1;
    }
    if (leader < 0) leader = winners[static_cast<std::size_t>(i)];
    if (winners[static_cast<std::size_t>(i)] != leader) {
      std::printf("SPLIT BRAIN (impossible)\n");
      return 1;
    }
  }
  std::printf("all surviving replicas agree: leader = replica %d\n", leader);
  return 0;
}
