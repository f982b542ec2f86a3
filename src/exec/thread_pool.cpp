#include "exec/thread_pool.h"

#include <exception>

namespace landau::exec {

ThreadPool::ThreadPool(unsigned n_workers) {
  workers_.reserve(n_workers);
  for (unsigned i = 0; i < n_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (workers_.empty() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Static chunking: one contiguous chunk per worker keeps block->SM
  // assignment deterministic, matching the grid-strided dispatch on a GPU.
  const std::size_t w = workers_.size();
  const std::size_t chunk = (n + w - 1) / w;
  // A throwing task must not unwind a worker thread (that terminates the
  // process): keep the first exception and rethrow it here once every chunk
  // has finished.
  std::exception_ptr error;
  std::mutex error_mutex;
  for (std::size_t c = 0; c * chunk < n; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    submit([begin, end, &fn, &error, &error_mutex] {
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  wait_idle();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

} // namespace landau::exec
