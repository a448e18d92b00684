// Minimal coroutine task type for the sans-IO protocol engine.
//
// `Task<T>` is a lazily-started, single-awaiter coroutine: creating one
// allocates the frame but runs nothing; `co_await`ing it starts the body via
// symmetric transfer and resumes the awaiter when the body co_returns.
// Exceptions thrown inside the body are captured and rethrown at the await
// site, so they cross suspension points exactly like they cross ordinary
// calls.
//
// The protocol sessions are written once as coroutines that suspend only at
// their receive points; the session's driver resumes them.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace gendpr::common {

template <typename T>
class Task;

namespace coro_detail {

/// Resumes the parent coroutine (if any) when a task body finishes.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> handle) noexcept {
    std::coroutine_handle<> continuation = handle.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct TaskPromise {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;
  std::optional<T> value;

  Task<T> get_return_object() noexcept;
  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
  void return_value(T v) { value.emplace(std::move(v)); }
  T take_value() {
    if (error) std::rethrow_exception(error);
    return std::move(*value);
  }
};

}  // namespace coro_detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = coro_detail::TaskPromise<T>;

  Task() noexcept = default;
  explicit Task(std::coroutine_handle<promise_type> handle) noexcept
      : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // start the child body
      }
      T await_resume() { return handle.promise().take_value(); }
    };
    return Awaiter{handle_};
  }

 private:
  std::coroutine_handle<promise_type> handle_;
};

namespace coro_detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

}  // namespace coro_detail

}  // namespace gendpr::common
