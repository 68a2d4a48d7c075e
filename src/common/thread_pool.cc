#include "common/thread_pool.h"

#include <atomic>
#include <exception>

#include "common/check.h"
#include "common/log.h"
#include "common/telemetry.h"

namespace ssin {

namespace {

// Set while a thread is executing pool work; nested ParallelFor calls on
// any pool detect it and degrade to an inline serial loop instead of
// waiting on a queue their own worker is blocking.
thread_local bool t_inside_pool_task = false;

// RAII setter for t_inside_pool_task: restores the previous value even
// when the task throws, so an exception can never leave a worker
// permanently flagged as "inside a task" (which would silently degrade
// every later ParallelFor it executes to an inline serial loop).
class ScopedInsidePoolTask {
 public:
  ScopedInsidePoolTask() : saved_(t_inside_pool_task) {
    t_inside_pool_task = true;
  }
  ~ScopedInsidePoolTask() { t_inside_pool_task = saved_; }
  ScopedInsidePoolTask(const ScopedInsidePoolTask&) = delete;
  ScopedInsidePoolTask& operator=(const ScopedInsidePoolTask&) = delete;

 private:
  bool saved_;
};

// Pool telemetry, aggregated across every pool in the process. The
// queue-wait and busy probes only fire for tasks whose enqueue stamped a
// timestamp (telemetry enabled), so a disabled run never reads the clock.
telemetry::Counter* TasksRunCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("thread_pool.tasks_run");
  return counter;
}

telemetry::Counter* BusyNsCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("thread_pool.busy_ns");
  return counter;
}

telemetry::Counter* WorkerNsCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("thread_pool.worker_ns");
  return counter;
}

telemetry::Histogram* QueueWaitHistogram() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("thread_pool.queue_wait_us");
  return histogram;
}

}  // namespace

/// Shared state of one ParallelFor call. Lives on the caller's stack; the
/// caller blocks until `pending` drains, so pointers into it stay valid.
struct ThreadPool::ForState {
  int64_t n = 0;
  int chunks = 0;
  const std::function<void(int64_t, int)>* fn = nullptr;

  std::mutex mu;
  std::condition_variable done_cv;
  int pending = 0;           // Chunks not yet finished (guarded by mu).
  // Set on the first exception, under mu next to `error`. A chunk reads it
  // at start without mu: locking there would order every chunk after each
  // chunk that finished before it, hiding from TSan the races between
  // chunks that do not overlap in time.
  std::atomic<bool> cancelled{false};
  std::exception_ptr error;  // First exception thrown (guarded by mu).
};

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreadCount(num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  // Same -1 sentinel convention as Task::enqueue_ns: a worker started with
  // telemetry off never reads the clock — here or at exit — keeping the
  // "disabled run never reads the clock" contract above. A worker born
  // before telemetry was enabled simply contributes no lifetime sample.
  const int64_t worker_start_ns =
      telemetry::Enabled() ? telemetry::NowNs() : -1;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const bool instrumented = task.enqueue_ns >= 0;
    int64_t run_start_ns = 0;
    if (instrumented) {
      run_start_ns = telemetry::NowNs();
      QueueWaitHistogram()->Observe(
          static_cast<double>(run_start_ns - task.enqueue_ns) / 1e3);
    }
    {
      ScopedInsidePoolTask inside;
      // RunChunk catches and forwards its own exceptions; a future task
      // type that lets one escape must not take down this worker (and with
      // it the pool's InterpolateBatch or Train call, the scope every pool
      // lives in), so contain it here.
      try {
        task.fn();
      } catch (const std::exception& e) {
        SSIN_LOG(Error) << "thread pool task threw: " << e.what();
      } catch (...) {
        SSIN_LOG(Error) << "thread pool task threw a non-std exception";
      }
    }
    if (instrumented) {
      TasksRunCounter()->Add(1);
      BusyNsCounter()->Add(telemetry::NowNs() - run_start_ns);
    }
  }
  if (worker_start_ns >= 0 && telemetry::Enabled()) {
    // Per-worker busy fraction = busy_ns / worker_ns, aggregated over all
    // workers of all pools (each worker contributes its lifetime here).
    WorkerNsCounter()->Add(telemetry::NowNs() - worker_start_ns);
  }
}

void ThreadPool::RunChunk(ForState* state, int chunk) {
  if (!state->cancelled.load(std::memory_order_relaxed)) {
    const int64_t lo = state->n * chunk / state->chunks;
    const int64_t hi = state->n * (chunk + 1) / state->chunks;
    try {
      for (int64_t i = lo; i < hi; ++i) (*state->fn)(i, chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->error) state->error = std::current_exception();
      state->cancelled.store(true, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (--state->pending == 0) state->done_cv.notify_all();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t, int)>& fn) {
  SSIN_CHECK_GE(n, 0);
  if (n == 0) return;

  ForState state;
  state.n = n;
  state.chunks = num_threads_;
  state.fn = &fn;

  if (num_threads_ == 1 || t_inside_pool_task) {
    // Serial (or nested) execution, same index->slot assignment as the
    // parallel path. Exceptions propagate directly.
    for (int chunk = 0; chunk < state.chunks; ++chunk) {
      const int64_t lo = n * chunk / state.chunks;
      const int64_t hi = n * (chunk + 1) / state.chunks;
      for (int64_t i = lo; i < hi; ++i) fn(i, chunk);
    }
    return;
  }

  state.pending = state.chunks;
  const int64_t enqueue_ns =
      telemetry::Enabled() ? telemetry::NowNs() : -1;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (int chunk = 1; chunk < state.chunks; ++chunk) {
      queue_.push_back(
          Task{[&state, chunk] { RunChunk(&state, chunk); }, enqueue_ns});
    }
  }
  queue_cv_.notify_all();

  RunChunk(&state, 0);  // The caller contributes slot 0.

  std::unique_lock<std::mutex> lock(state.mu);
  state.done_cv.wait(lock, [&state] { return state.pending == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace ssin
