#pragma once
// Roofline reporter: a one-shot machine-peak calibrator (FMA-throughput and
// streaming-bandwidth microbenchmarks on the host) combined with the exact
// flop/byte counts each kernel launch adds to its profiler event, to emit
// Table-IV-style roofline utilization tables — no NSight Compute required,
// because arithmetic intensity is a property of the algorithm (it reproduces
// exactly in emulation) and the achieved-fraction column only needs the
// host's own measured peaks.
//
// Two placements are reported per kernel: against the *host* peaks (what this
// build actually attains) and against a modeled device (DeviceSpec — V100 by
// default), which is the paper's Table IV view.

#include <cstdint>
#include <string>
#include <vector>

#include "exec/device.h"

namespace landau::obs {

/// Host peaks measured by calibrate_peaks().
struct MachinePeaks {
  const char* simd_variant = ""; // simd_variant_name() the FMA peak ran at
  double fma_gflops = 0.0;  // sustained FP64 multiply-add throughput, one core
  double stream_gbs = 0.0;  // sustained streaming read bandwidth, one core
  double calibration_seconds = 0.0;

  /// Roofline turning point (flops/byte) of the measured machine.
  double knee() const { return stream_gbs > 0 ? fma_gflops / stream_gbs : 0.0; }
};

/// Measure host FP64 multiply-add throughput, at the SIMD width the Landau
/// inner integral runs at (util/simd.h), and streaming bandwidth. `budget_seconds`
/// bounds the total calibration time (split between the two loops); the
/// result is cached after the first call (pass `recalibrate` to force).
MachinePeaks calibrate_peaks(double budget_seconds = 0.1, bool recalibrate = false);

/// One kernel's measured work and time (a profiler event's EventStats).
struct RooflineEntry {
  std::string kernel;
  std::int64_t flops = 0;
  std::int64_t dram_bytes = 0;
  double seconds = 0.0;
};

/// Derived roofline placement of one entry against one (peak flops, peak BW).
struct RooflinePlacement {
  double ai = 0.0;                  // flops / DRAM byte
  double attainable_fraction = 0.0; // min(1, ai / knee): ceiling at this AI
  double achieved_gflops = 0.0;     // flops / seconds (0 if no time given)
  double pct_of_attainable = 0.0;   // achieved / (attainable * peak)
  bool compute_bound = false;       // ai >= knee
};

RooflinePlacement place(const RooflineEntry& e, double peak_gflops, double peak_gbs);

/// Table-IV-style report: every entry placed against the host peaks and a
/// modeled device. Returns the rendered ASCII table.
std::string roofline_report(const std::vector<RooflineEntry>& entries, const MachinePeaks& host,
                            const exec::DeviceSpec& device);

} // namespace landau::obs
