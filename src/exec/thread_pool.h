#pragma once
// Fixed-size worker pool. In the CUDA-model emulation one worker plays the
// role of one streaming multiprocessor (SM): blocks are dispatched to workers
// and each block runs to completion on its worker, exactly like CUDA's
// block-to-SM residency model (§III-E: "Each SM processes one element").

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/annotations.h"

namespace landau::exec {

class LANDAU_HOST_ONLY ThreadPool {
public:
  /// n_workers == 0 means "run everything inline on the caller" (serial mode).
  explicit ThreadPool(unsigned n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned n_workers() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed.
  void wait_idle();

  /// Run fn(i) for i in [0, n), distributing across workers; blocks until done.
  /// If fn throws, the first exception is rethrown on the calling thread
  /// after all tasks have finished (the rest of the throwing task's chunk is
  /// skipped).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

} // namespace landau::exec
