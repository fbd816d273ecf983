// The atomic interposition seam: running real rt thread code on the
// simulator, under mcheck or on a plain sim::Simulation.
//
// Model checkers usually verify a *transcription* of an algorithm into
// their own modeling language, leaving a gap between the checked model and
// the shipped code.  This seam closes that gap: the same templated source
// (core/consensus_rt.hpp, mutex/mutex_rt.hpp, rt/atomic_mutex.hpp,
// derived/derived_rt.hpp) that production compiles against std::atomic is
// instantiated with ShimAtomics (shim_atomic.hpp), whose cells forward
// every load/store/RMW/wait/notify into a sim::Simulation.  The mcheck
// explorer drives that simulation to enumerate interleavings and timings;
// without an explorer, the simulation's own timing model, failure
// injector and crash schedule drive it, which is how experiment E11, the
// derived-object tests and the leader_election example run the shipped
// derived objects.
//
// Mechanics (the CDSChecker/relacy switch-to-master design, adapted to the
// coroutine simulator): each logical thread is a fiber — a ucontext on its
// own stack — running the unmodified algorithm body on the simulation's
// OS thread, paired with a sim::Process "pump" coroutine inside the
// simulation.  Control alternates strictly —
//
//   fiber:  runs until its next shared-memory op, records it, swaps back
//   pump:   co_awaits the op into the simulation; when the explorer
//           linearizes it (choosing its interleaving and duration), the
//           pump applies it to the shared register and swaps into the
//           fiber, which runs on to its next op
//
// so at every simulation suspension point every algorithm fiber is
// suspended: algorithm code is single-threaded by construction (no data
// races, deterministic replay) and the explorer owns every interleaving
// and timing decision, including stretching any access past Δ — the
// paper's timing failures — via its cost menu.
//
// atomic::wait(old) is modeled as a scheduled read that atomically
// check-and-parks at its linearization instant iff the value still equals
// `old`; notify is an immediate (zero-duration) op that reschedules every
// parked waiter for a fresh check — faithfully modeling the futex
// re-check loop, including the lost-wakeup interleavings the EventCount
// torn-epoch scenario hunts.  A run that goes idle with parked waiters is
// exactly a lost wakeup / deadlock.
//
// Soundness caveats are documented in docs/MODEL.md ("Model-checking the
// rt code"): seq_cst-only modeling, notify_one explored as notify_all
// (legal under the spurious-wakeup license of std::atomic::wait, but a
// single-wakeup loss needs the torn-epoch style scenarios to surface).

#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tfr/sim/simulation.hpp"

namespace tfr::rtshim {

/// Thrown through algorithm code when an execution is torn down mid-run
/// (the explorer prunes most runs early); the fiber's entry function
/// catches it and finishes.  Algorithm code instantiated with ShimAtomics
/// must therefore not be noexcept (Atomics::kNoexceptOps), and must not
/// issue shim ops from inside a catch handler: the C++ runtime keeps its
/// caught-exception stack per OS thread, which all fibers share, so a
/// fiber may only switch out with no handler active.
struct AbortExecution {};

class RtExecution;

namespace detail {

/// Pump coroutines parked in atomic::wait on one shim cell.
struct WaitList {
  std::vector<std::coroutine_handle<>> handles;
};

/// One shared-memory operation posted by an algorithm fiber.  Lives on
/// the fiber's stack; the fiber stays suspended until the pump has
/// applied it, so the pump may dereference it freely.
struct Op {
  enum class Kind { kLoad, kStore, kRmw, kWait, kDelay, kNotify, kMark };

  Kind kind;
  std::uint64_t reg_uid = 0;  ///< scheduled accesses: the conflict key
  bool is_write = false;      ///< scheduled accesses: dependence class
  sim::Duration delay = 0;    ///< kDelay only

  explicit Op(Kind k) : kind(k) {}
  virtual ~Op() = default;

  /// Immediate ops take no simulated time: they run at the instant the
  /// posting thread's previous scheduled op linearized (sound for notify,
  /// which follows its store program-order; and for the occupancy marks).
  bool scheduled() const {
    return kind != Kind::kNotify && kind != Kind::kMark;
  }

  /// Scheduled ops: runs in the pump at the linearization instant.
  /// Returns true iff the posting thread must park (a kWait whose value
  /// still equals the expected one — atomic check-and-park).
  virtual bool apply(sim::Simulation&, sim::Pid, sim::Time /*issued*/) {
    return false;
  }

  /// Immediate ops: runs synchronously inside the pump.
  virtual void immediate(RtExecution&, sim::Simulation&) {}

  /// kWait: the cell's park list.
  virtual WaitList* wait_list() { return nullptr; }
};

/// One logical thread: its fiber, its stack and the op it last posted
/// (defined in rt_exec.cpp).
struct Slot;

/// The slot of the fiber now running, or nullptr outside the seam
/// (scenario construction, verdict closures) — shim cells then fall back
/// to untimed peek/poke, which is exactly right for initialization and
/// post-run inspection.
Slot* current_slot();

/// Posts `op` to the running fiber's pump and suspends until it is
/// applied.  Throws AbortExecution when the execution is being torn down.
void post_op(Op& op);

}  // namespace detail

/// One simulated execution of a set of real-thread bodies.  Construct
/// with the run's Simulation (inside a CheckScenario under mcheck),
/// spawn_thread() each algorithm body, and run the simulation; destroy (or
/// let the harness closure drop it) to unwind any still-suspended fibers
/// and return their stacks to the process-wide free list.  Exactly one
/// instance may be live per process at a time (current() is how shim
/// cells find their simulation).
///
/// Ownership contract: the RtExecution must be owned by the harness
/// (verdict closure), never by the thread-body closures, which it owns
/// and destroys in ~RtExecution after unwinding any still suspended
/// mid-op.  The algorithm state the bodies touch must outlive that
/// unwind: bodies share-own it (mcheck/rt_scenarios.cpp), or it is owned
/// by an object declared before the RtExecution (bench E11).
class RtExecution {
 public:
  explicit RtExecution(sim::Simulation& sim);
  ~RtExecution();
  RtExecution(const RtExecution&) = delete;
  RtExecution& operator=(const RtExecution&) = delete;

  /// The live execution, if any (bound for this object's whole lifetime).
  static RtExecution* current();

  sim::Simulation& sim() { return *sim_; }

  /// Spawns one logical thread running `body` under the seam.  Call during
  /// scenario setup, before the simulation runs; the thread's first step
  /// is a kStart event the explorer schedules like any other.
  void spawn_thread(std::function<void()> body);

  // Critical-section occupancy probe: immediate ops posted by algorithm
  // threads; occupancy changes at the linearization instant of the
  // thread's latest shared access, so an overlap in simulated time is
  // exactly two threads inside the CS simultaneously.
  void mark_enter();
  void mark_exit();
  std::uint64_t me_violations() const { return violations_; }

  /// Pump-side bookkeeping for the occupancy marks.
  void note_mark(int delta);

 private:
  sim::Simulation* sim_;
  std::vector<std::unique_ptr<detail::Slot>> slots_;
  int occupancy_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace tfr::rtshim
