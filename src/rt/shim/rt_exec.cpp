#include "tfr/rt/shim/rt_exec.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstddef>
#include <exception>
#include <new>
#include <utility>

#include "tfr/common/contracts.hpp"

// Fiber switches must be announced to the sanitizers: ASan tracks which
// stack is live (or it misreads frames on the fiber stacks), TSan keeps
// one shadow context per fiber (or it reports the strictly alternating
// fibers as racing).
#if defined(__SANITIZE_ADDRESS__)
#define TFR_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TFR_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define TFR_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TFR_FIBER_TSAN 1
#endif
#endif

#ifdef TFR_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef TFR_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace tfr::rtshim {

namespace detail {

namespace {

/// Every fiber stack: one fixed size (algorithm bodies are shallow; the
/// simulation work of each op runs on the pump's stack), with a PROT_NONE
/// guard page below it so an overflow faults instead of corrupting memory.
constexpr std::size_t kStackBytes = std::size_t{256} << 10;
const std::size_t kGuardBytes =
    static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));

/// Freed stacks are kept for the process's lifetime and reused: the
/// explorer runs one scenario hundreds of thousands of times, and a
/// forked parallel worker inherits the list as plain memory.
std::vector<char*>& free_stacks() {
  static std::vector<char*> stacks;
  return stacks;
}

char* acquire_stack() {
  std::vector<char*>& stacks = free_stacks();
  if (!stacks.empty()) {
    char* stack = stacks.back();
    stacks.pop_back();
    return stack;
  }
  void* base = ::mmap(nullptr, kGuardBytes + kStackBytes,
                      PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  TFR_INVARIANT(::mprotect(base, kGuardBytes, PROT_NONE) == 0);
  return static_cast<char*>(base) + kGuardBytes;
}

void fiber_main();

}  // namespace

/// One logical thread.  `op` is non-null exactly while the fiber is
/// suspended in post_op: before its first resume and after its body has
/// returned it is null.
struct Slot {
  std::function<void()> body;
  char* stack = acquire_stack();
  ucontext_t fiber{};
  ucontext_t pump{};  // whoever last resumed the fiber
  Op* op = nullptr;
  bool abort = false;  // resume means: unwind via AbortExecution
  std::exception_ptr error;
#ifdef TFR_FIBER_ASAN
  void* pump_fake_stack = nullptr;
  void* fiber_fake_stack = nullptr;
  const void* pump_stack = nullptr;
  std::size_t pump_stack_bytes = 0;
#endif
#ifdef TFR_FIBER_TSAN
  void* tsan_fiber = __tsan_create_fiber(0);
  void* tsan_pump = nullptr;
#endif

  explicit Slot(std::function<void()> fn) : body(std::move(fn)) {
    TFR_INVARIANT_FATAL(::getcontext(&fiber) == 0);
    fiber.uc_stack.ss_sp = stack;
    fiber.uc_stack.ss_size = kStackBytes;
    fiber.uc_link = nullptr;
    ::makecontext(&fiber, fiber_main, 0);
  }

  ~Slot() {
#ifdef TFR_FIBER_TSAN
    __tsan_destroy_fiber(tsan_fiber);
#endif
    free_stacks().push_back(stack);
  }

  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;

  /// Pump side: runs the fiber until it posts its next op (returned) or
  /// its body returns (nullptr).
  Op* resume();

  /// Fiber side: switches back to whoever resumed it.  A finished fiber
  /// switches out for good.
  void suspend(bool finished);
};

namespace {

Slot* g_running = nullptr;

void fiber_main() {
  Slot* slot = g_running;
#ifdef TFR_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &slot->pump_stack,
                                  &slot->pump_stack_bytes);
#endif
  // Every handler exits before the final switch: the caught-exception
  // stack belongs to the OS thread, not to this fiber.
  try {
    slot->body();
  } catch (const AbortExecution&) {
    // Teardown unwind: not an error.
  } catch (...) {
    slot->error = std::current_exception();
  }
  slot->suspend(/*finished=*/true);
  TFR_INVARIANT_FATAL(false);  // a finished fiber is never resumed
}

/// Schedules the posted op into the simulation and applies it at its
/// linearization instant.  The awaited value is "must the thread park".
struct OpAwaiter {
  sim::Simulation* sim;
  sim::Pid pid;
  Op* op;
  sim::Time issued = 0;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    issued = sim->now();
    if (op->kind == Op::Kind::kDelay)
      sim->schedule_delay(pid, op->delay, h);
    else
      sim->schedule_access(pid, h, op->reg_uid, op->is_write);
  }
  bool await_resume() { return op->apply(*sim, pid, issued); }
};

/// Parks the pump on the cell's wait list; resumed by a notify's wake
/// callback (zero-duration, so the wake itself is not a scheduling
/// decision — the re-check read it triggers is).
struct ParkAwaiter {
  WaitList* list;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { list->handles.push_back(h); }
  void await_resume() const noexcept {}
};

/// The pump: the simulation-side half of one logical thread.
sim::Process pump(sim::Env env, RtExecution* exec, Slot* slot) {
  for (Op* op = slot->resume(); op != nullptr; op = slot->resume()) {
    if (!op->scheduled()) {
      op->immediate(*exec, env.sim());
      continue;
    }
    bool park = co_await OpAwaiter{&env.sim(), env.pid(), op};
    while (park) {
      co_await ParkAwaiter{op->wait_list()};
      park = co_await OpAwaiter{&env.sim(), env.pid(), op};
    }
  }
  // Propagate real algorithm failures (contract violations, logic bugs in
  // the code under test) into the simulation's exception channel.
  if (slot->error) std::rethrow_exception(std::exchange(slot->error, nullptr));
}

}  // namespace

Op* Slot::resume() {
  op = nullptr;
  g_running = this;
#ifdef TFR_FIBER_ASAN
  __sanitizer_start_switch_fiber(&pump_fake_stack, stack, kStackBytes);
#endif
#ifdef TFR_FIBER_TSAN
  tsan_pump = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
  TFR_INVARIANT_FATAL(::swapcontext(&pump, &fiber) == 0);
#ifdef TFR_FIBER_ASAN
  __sanitizer_finish_switch_fiber(pump_fake_stack, nullptr, nullptr);
#endif
  g_running = nullptr;
  return op;
}

void Slot::suspend([[maybe_unused]] bool finished) {
#ifdef TFR_FIBER_ASAN
  __sanitizer_start_switch_fiber(finished ? nullptr : &fiber_fake_stack,
                                 pump_stack, pump_stack_bytes);
#endif
#ifdef TFR_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_pump, 0);
#endif
  TFR_INVARIANT_FATAL(::swapcontext(&fiber, &pump) == 0);
#ifdef TFR_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fiber_fake_stack, &pump_stack,
                                  &pump_stack_bytes);
#endif
}

Slot* current_slot() { return g_running; }

void post_op(Op& op) {
  Slot* slot = g_running;
  TFR_REQUIRE(slot != nullptr);
  slot->op = &op;
  slot->suspend(/*finished=*/false);
  if (slot->abort) throw AbortExecution{};
}

}  // namespace detail

namespace {

RtExecution* g_current = nullptr;

struct MarkOp final : detail::Op {
  int delta;
  explicit MarkOp(int d) : Op(Kind::kMark), delta(d) {}
  void immediate(RtExecution& exec, sim::Simulation&) override {
    exec.note_mark(delta);
  }
};

}  // namespace

RtExecution::RtExecution(sim::Simulation& sim) : sim_(&sim) {
  TFR_REQUIRE(g_current == nullptr);
  g_current = this;
}

RtExecution::~RtExecution() {
  // Strict alternation: at a simulation suspension point every started
  // fiber is suspended in post_op or finished.  Unwind the suspended ones.
  for (const std::unique_ptr<detail::Slot>& slot : slots_) {
    if (slot->op == nullptr) continue;
    slot->abort = true;
    TFR_INVARIANT_FATAL(slot->resume() == nullptr);
  }
  slots_.clear();
  g_current = nullptr;
}

RtExecution* RtExecution::current() { return g_current; }

void RtExecution::spawn_thread(std::function<void()> body) {
  TFR_REQUIRE(body != nullptr);
  detail::Slot* slot =
      slots_.emplace_back(std::make_unique<detail::Slot>(std::move(body)))
          .get();
  sim_->spawn([this, slot](sim::Env env) {
    return detail::pump(env, this, slot);
  });
}

void RtExecution::mark_enter() {
  MarkOp op(+1);
  detail::post_op(op);
}

void RtExecution::mark_exit() {
  MarkOp op(-1);
  detail::post_op(op);
}

void RtExecution::note_mark(int delta) {
  occupancy_ += delta;
  TFR_INVARIANT(occupancy_ >= 0);
  if (occupancy_ > 1) ++violations_;
}

}  // namespace tfr::rtshim
