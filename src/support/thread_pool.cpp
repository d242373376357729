#include "support/thread_pool.hpp"

#include <exception>
#include <stdexcept>
#include <string>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace tveg::support {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? hw : 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  thread_count_ = workers_.size();
  obs::MetricsRegistry::global()
      .gauge(obs::keys::kPoolWorkers)
      .set(static_cast<double>(workers_.size()));
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;  // idempotent; workers already joined or joining
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& tasks_metric = registry.counter(obs::keys::kPoolTasks);
  static obs::Histogram& wait_metric =
      registry.histogram(obs::keys::kPoolQueueWaitUs);
  obs::Counter& busy_metric = registry.counter(
      obs::keys::kPoolWorkerPrefix + std::to_string(worker_index) + ".busy_us");
  obs::set_current_thread_name("pool-worker-" +
                               std::to_string(worker_index));
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      // The predicate runs with mutex_ held (the condition-variable
      // contract) but is a separate function to the thread-safety analysis.
      cv_.wait(lock, mutex_, [this]() TVEG_NO_THREAD_SAFETY_ANALYSIS {
        return stopping_ || !tasks_.empty();
      });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    tasks_metric.add(1);
    // A task must never unwind into the worker loop: parallel_for chunks
    // catch internally and submit goes through packaged_task, but a stray
    // throw here would std::terminate the process. Swallow-and-count is the
    // worst case, not the contract.
    static obs::Counter& dropped_metric =
        registry.counter(obs::keys::kPoolUncaughtExceptions);
    if (task.timed) {
      const auto start = Clock::now();
      wait_metric.observe(us_between(task.enqueued, start));
      // The enqueue→dequeue gap lands on this worker's queue track; the
      // task body itself is a pool_task span on the worker's own track
      // (spans inside the body nest under it), and its slot is the busy
      // time.
      obs::span_queue_wait(task.enqueued, start);
      double task_ms = 0;
      {
        obs::Span task_span("pool_task", &task_ms);
        try {
          task.fn();
        } catch (...) {
          dropped_metric.add(1);
        }
      }
      busy_metric.add(static_cast<std::uint64_t>(task_ms * 1e3));
    } else {
      try {
        task.fn();
      } catch (...) {
        dropped_metric.add(1);
      }
    }
  }
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    MutexLock lock(mutex_);
    if (stopping_)
      throw std::runtime_error("ThreadPool: submit after shutdown");
    const bool timed = obs::enabled();
    const auto now = timed ? Clock::now() : Clock::time_point{};
    tasks_.push({std::move(fn), now, timed});
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              const CancelToken& cancel) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, thread_count_ + 1);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) {
      if (cancel.cancelled()) throw CancelledError("parallel_for cancelled");
      body(i);
    }
    return;
  }

  std::size_t remaining = chunks;  // guarded by done_mutex (a local — the
                                   // analysis cannot annotate it, TSan can)
  // One exception slot per chunk: "first exception wins" must mean the
  // lowest *chunk index*, not whichever thread reached the error mutex
  // first — a race that made multi-chunk failures nondeterministic. Writes
  // are per-slot (no lock needed); the completion barrier below sequences
  // them before the rethrow scan.
  std::vector<std::exception_ptr> chunk_error(chunks);
  Mutex done_mutex;
  CondVar done_cv;

  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t lo = begin + chunk * n / chunks;
    const std::size_t hi = begin + (chunk + 1) * n / chunks;
    try {
      for (std::size_t i = lo; i < hi; ++i) {
        // Drain on cancellation: skip the remaining indices so the pool
        // frees up immediately. The caller-facing CancelledError is thrown
        // once, after the barrier, by the waiting thread.
        if (cancel.cancelled()) break;
        body(i);
      }
    } catch (...) {
      chunk_error[chunk] = std::current_exception();
    }
    // The decrement must happen under done_mutex: if it were done outside
    // (say with an atomic), the waiter could observe zero, return, and
    // destroy done_mutex/done_cv while this worker was still about to lock
    // them — a use-after-free of the caller's stack frame (caught by the
    // TSan tier). Holding the mutex delays the waiter's predicate read
    // until this worker is done touching the locals.
    MutexLock lock(done_mutex);
    if (--remaining == 0) done_cv.notify_one();
  };

  {
    MutexLock lock(mutex_);
    if (stopping_) {
      // Stopped pool: degrade to inline serial execution (outside the
      // intake lock so body may itself touch the pool without deadlock).
      lock.unlock();
      for (std::size_t i = begin; i < end; ++i) {
        if (cancel.cancelled()) throw CancelledError("parallel_for cancelled");
        body(i);
      }
      return;
    }
    const bool timed = obs::enabled();
    const auto now = timed ? Clock::now() : Clock::time_point{};
    for (std::size_t chunk = 1; chunk < chunks; ++chunk)
      tasks_.push({[run_chunk, chunk] { run_chunk(chunk); }, now, timed});
  }
  cv_.notify_all();
  run_chunk(0);  // calling thread takes the first chunk

  {
    MutexLock lock(done_mutex);
    done_cv.wait(lock, done_mutex, [&] { return remaining == 0; });
  }
  for (std::size_t chunk = 0; chunk < chunks; ++chunk)
    if (chunk_error[chunk]) std::rethrow_exception(chunk_error[chunk]);
  if (cancel.cancelled()) throw CancelledError("parallel_for cancelled");
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  const CancelToken& cancel) {
  ThreadPool::global().parallel_for(begin, end, body, cancel);
}

}  // namespace tveg::support
