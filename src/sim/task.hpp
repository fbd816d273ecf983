// Task<T>: a lazy, move-only coroutine used to compose simulated process
// logic (e.g. a mutex algorithm's entry section awaited from a workload
// loop).  Awaiting a Task starts it via symmetric transfer and resumes the
// awaiter when the task completes; the whole chain suspends to the
// simulator whenever the innermost coroutine awaits a shared-memory access
// or a delay.
//
// Tasks are single-consumer and must be awaited at most once.
//
// PORTABILITY NOTE (GCC 12): co_await expressions must appear as full
// statements or as the initializer of a declaration, e.g.
//     const int v = co_await env.read(reg);
// Embedding them in larger expressions — `while (co_await ... != 0)`,
// `if (co_await ... == x)`, `f(co_await ...)` — is miscompiled by GCC 12's
// coroutine frame layout (silently corrupts the awaiting frame).  All
// algorithm code in this repository follows the hoisted style; keep new
// code that way.

#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "tfr/common/contracts.hpp"
#include "tfr/sim/simulation.hpp"

namespace tfr::sim {

template <class T>
class Task;

namespace detail {

struct TaskFinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <class Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    // Resume whoever co_awaited us; if nobody did (detached task, which we
    // do not use) park on a no-op coroutine.
    auto continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct TaskPromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  /// Frames come from the pool of the simulation whose Env the task takes.
  template <class... Args>
  static void* operator new(std::size_t size, const Args&... args) {
    return FramePool::allocate(frame_pool_of(args...), size);
  }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FramePool::deallocate(frame, size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  TaskFinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <class T>
struct TaskPromise : TaskPromiseBase {
  std::optional<T> result;

  Task<T> get_return_object();
  void return_value(T value) { result.emplace(std::move(value)); }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  Task<void> get_return_object();
  void return_void() noexcept {}
};

}  // namespace detail

template <class T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  /// Awaiter: starts the task on suspend, yields its result on resume.
  struct Awaiter {
    Handle handle;

    bool await_ready() const noexcept { return !handle || handle.done(); }

    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> continuation) noexcept {
      handle.promise().continuation = continuation;
      return handle;  // symmetric transfer: start running the task
    }

    T await_resume() {
      TFR_INVARIANT(handle && handle.done());
      auto& promise = handle.promise();
      if (promise.exception) std::rethrow_exception(promise.exception);
      if constexpr (!std::is_void_v<T>) {
        TFR_INVARIANT(promise.result.has_value());
        return std::move(*promise.result);
      }
    }
  };

  Awaiter operator co_await() const noexcept { return Awaiter{handle_}; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

namespace detail {

template <class T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace tfr::sim
