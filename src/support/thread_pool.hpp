// Minimal work-stealing-free thread pool with a blocking parallel_for and a
// future-returning submit.
//
// Used for embarrassingly parallel loops: Monte-Carlo channel draws and the
// benchmark parameter sweeps. The pool is deliberately simple — static
// chunking over an index range — because every task in this library is
// CPU-bound and uniform enough that dynamic scheduling buys nothing.
//
// Failure semantics: an exception thrown inside a pooled task always
// reaches the waiting caller — parallel_for rethrows the first body
// exception after the whole range ran, submit delivers it through the
// returned future — and never terminates or wedges a worker.
//
// Shutdown semantics: `shutdown()` (also run by the destructor) stops
// intake first, then drains already-queued tasks and joins the workers.
// A submit that races with shutdown either wins — its task runs and the
// future resolves — or loses and throws std::runtime_error synchronously;
// a future returned by submit never silently wedges. parallel_for on a
// stopped pool degrades to running the whole range inline on the caller.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/cancel.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace tveg::support {

/// Fixed-size thread pool; `submit` enqueues one task, `parallel_for`
/// blocks until an index range has been fully processed.
class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count chosen at construction (stable across shutdown).
  std::size_t thread_count() const { return thread_count_; }

  /// Runs body(i) for every i in [begin, end), split into contiguous chunks
  /// across the pool plus the calling thread; returns when all complete.
  /// Exceptions from body are rethrown; when several chunks throw
  /// concurrently, the lowest-index chunk's exception wins deterministically
  /// and the others are swallowed. The remaining indices of a throwing
  /// chunk are skipped, other chunks run to completion.
  ///
  /// Every chunk observes `cancel` before each index (one relaxed load; a
  /// default token is never cancelled) and drains — skips its remaining
  /// indices — as soon as cancellation is requested, so an expired solve
  /// stops occupying the pool. Still blocks until every chunk has returned
  /// (no task is left running), then throws CancelledError when the range
  /// was cut short — unless a body exception is pending, which wins. The
  /// checks never reorder, split, or skip work on the uncancelled path.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    const CancelToken& cancel = {});

  /// Stops intake, drains the queue, joins the workers. Idempotent and
  /// safe to call concurrently with submit (racing submits throw).
  void shutdown();

  /// Enqueues one callable; the returned future yields its result, or
  /// rethrows whatever it threw. The pool itself survives throwing tasks.
  /// Throws std::runtime_error if the pool is shut down (see above).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Process-wide pool (lazily constructed).
  static ThreadPool& global();

 private:
  /// Queued task; `enqueued` is only meaningful when `timed` (obs enabled at
  /// enqueue time) so the disabled path never reads the clock.
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    bool timed = false;
  };

  void enqueue(std::function<void()> fn);
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::size_t thread_count_ = 0;
  Mutex mutex_;
  std::queue<Task> tasks_ TVEG_GUARDED_BY(mutex_);
  CondVar cv_;
  bool stopping_ TVEG_GUARDED_BY(mutex_) = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  const CancelToken& cancel = {});

}  // namespace tveg::support
