// The Atomics policy: the single seam through which rt algorithm code
// touches shared memory.
//
// Every blocking primitive and mutex algorithm in src/rt and src/mutex is
// a template over one `Atomics` policy type.  Two policies exist:
//
//   * StdAtomics (this header) — the production policy.  Its member
//     aliases ARE the std:: types (`atomic<T>` is literally
//     std::atomic<T>), its pause/delay are the real PAUSE loop and
//     busy-wait, and every operation is noexcept.  Instantiating an
//     algorithm with StdAtomics therefore compiles to exactly the code
//     the untemplated originals produced — there is no wrapper object,
//     no indirection, and rt_codegen_test pins the layout and noexcept
//     guarantees that make this "zero-cost by construction".
//
//   * ShimAtomics (rt/shim/shim_atomic.hpp) — the model-checking policy.
//     Its `atomic<T>` routes every load/store/RMW/wait/notify through an
//     mcheck-controlled simulation so the explorer can interleave and
//     time-stretch the algorithm's real source code.  Production targets
//     must never link it (it drags in tfr_sim).
//
// Policy surface (duck-typed; both policies provide):
//   atomic<T>    — std::atomic-compatible cell (load/store/exchange/CAS/
//                  fetch_add/wait/notify)
//   counter<T>   — relaxed statistics counter (fetch_add/load); plain
//                  under the shim, where the seam already serializes
//   duration     — the delay(Δ) argument type (Nanos / sim ticks)
//   thread       — companion thread facade (std::thread / shim::thread)
//   kSpinBudget  — spin iterations before blocking (0 under the shim:
//                  spinning is useless when the checker owns time)
//   kNoexceptOps — whether lock/unlock may be declared noexcept (the
//                  shim aborts executions by throwing through them)
//   kMaxSegmentCells — most cells an rt::RegisterArray segment builds at
//                  once (no cap in production; 8 under the shim, where
//                  every cell is a simulator register)
//   pause()      — one polite spin iteration
//   delay(d)     — the paper's delay statement (precise busy-wait /
//                  simulated-time delay)
//   count(d)     — duration as a raw tick count (validation only)

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>

#include "tfr/registers/fault_injector.hpp"

namespace tfr::rt {

/// One polite spin iteration: de-pipelines the loop without yielding the
/// core (PAUSE/YIELD are ~dozens of cycles; a scheduler yield is ~µs).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Default spin-then-wait budget, in cpu_relax() iterations.  Sized so an
/// uncontended-to-lightly-contended handoff (a few hundred ns of critical
/// section) resolves without a futex round trip, while a preempted or
/// long-CS owner parks waiters well under a scheduler quantum.
inline constexpr unsigned kDefaultSpinBudget = 256;

/// Production policy: real hardware atomics, real time.  See the header
/// comment — instantiations with this policy must be bit-for-bit the code
/// the pre-seam untemplated classes generated.
struct StdAtomics {
  template <class T>
  using atomic = std::atomic<T>;

  template <class T>
  using counter = std::atomic<T>;

  using duration = Nanos;
  using thread = std::thread;

  static constexpr unsigned kSpinBudget = kDefaultSpinBudget;
  static constexpr bool kNoexceptOps = true;
  static constexpr std::size_t kMaxSegmentCells =
      std::numeric_limits<std::size_t>::max();

  static void pause() noexcept { cpu_relax(); }

  /// delay(Δ) stays a precise busy-wait — delay must not itself suffer a
  /// scheduler-induced timing failure whenever avoidable (docs/MODEL.md).
  static void delay(duration d) { spin_for(d); }

  static std::int64_t count(duration d) noexcept { return d.count(); }

  static void yield() { std::this_thread::yield(); }
};

}  // namespace tfr::rt
