#pragma once
// Kernel work: the flops and DRAM bytes of one kernel launch. The roofline
// bench (paper Table IV) derives arithmetic intensity from these instead of
// NSight Compute hardware metrics: AI is a property of the algorithm and
// reproduces exactly in emulation.
//
// A kernel's work is a function of its launch shape (cells, points, basis
// size, species, band shape), so each entry point computes it once per
// launch in closed form, beside the kernel it counts, and adds it to its own
// profiler event with Profiler::add_work, in every run. The kernel bodies
// count nothing.
//
// KernelCounters is an optional caller-side sink for the same values
// (CollisionOperatorBase::add_collision fills it). Its adds are relaxed
// atomics: read it after the call returns.

#include <atomic>
#include <cstdint>

namespace landau::exec {

/// The flops and global-memory traffic of one launch.
struct KernelWork {
  std::int64_t flops = 0;
  std::int64_t dram_bytes = 0;
};

/// Accumulated work of the launches a caller asked to be told about.
struct KernelCounters {
  std::atomic<std::int64_t> flops{0};
  std::atomic<std::int64_t> dram_bytes{0};

  void add(KernelWork w) {
    flops.fetch_add(w.flops, std::memory_order_relaxed);
    dram_bytes.fetch_add(w.dram_bytes, std::memory_order_relaxed);
  }
};

} // namespace landau::exec
