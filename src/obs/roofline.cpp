#include "obs/roofline.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "util/simd.h"
#include "util/table_writer.h"

namespace landau::obs {

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// FP64 multiply-add throughput at lane type V: eight independent chains of
/// W doubles, so the loop is throughput-limited (not latency-limited),
/// repeated until the budget is spent. The compiler cannot fold the chains —
/// the multiplier is read from a volatile. The chain loop is unrolled so the
/// eight accumulators live in registers: a loop over the array would keep
/// them in memory, and a load and store per step would time the memory
/// pipeline (and the loop's code placement), not the FP units.
template <class V>
[[gnu::always_inline]] inline double multiply_add_gflops(double budget_seconds) {
  constexpr int W = lanes::kWidth<V>;
  volatile double vm = 1.0000001, vb = 1e-9;
  const double m = vm, b = vb;
  V acc[8];
  for (int c = 0; c < 8; ++c)
    for (int l = 0; l < W; ++l) acc[c][l] = 0.1 * (c + 1) + 0.01 * l;
  constexpr int kInner = 4096;
  std::int64_t flops = 0;
  const auto t0 = clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < kInner; ++i)
#pragma GCC unroll 8
      for (V& a : acc) a = a * m + b;
    flops += 2ll * kInner * 8 * W; // one mul + one add per lane and chain step
    elapsed = seconds_since(t0);
  } while (elapsed < budget_seconds);
  // Fold the accumulators into a volatile sink so the chains are observable.
  double s = 0.0;
  for (const V& a : acc)
    for (int l = 0; l < W; ++l) s += a[l];
  volatile double sink = s;
  (void)sink;
  return 1e-9 * static_cast<double>(flops) / elapsed;
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) double multiply_add_gflops_avx2(double budget_seconds) {
  return multiply_add_gflops<lanes::f64x4>(budget_seconds);
}
#endif

/// The multiply-add peak at the width the inner integral runs at.
double measure_fma_gflops(double budget_seconds) {
#if defined(__x86_64__)
  if (simd_variant() == SimdVariant::Avx2) return multiply_add_gflops_avx2(budget_seconds);
#endif
  return multiply_add_gflops<lanes::f64x2>(budget_seconds);
}

/// Streaming read bandwidth: sum a working set far beyond L2, unrolled by 8
/// to keep address generation off the critical path. Each pass is timed on
/// its own and the fastest one counts, STREAM's best-of-N rule: on a shared
/// host the slower passes time the neighbours' load, not the memory system.
/// At least five passes run, then more until the budget is spent.
double measure_stream_gbs(double budget_seconds) {
  constexpr std::size_t kWords = 1u << 22; // 32 MiB of doubles
  constexpr int kMinPasses = 5;
  std::vector<double> data(kWords, 1.5);
  double s = 0.0, best = std::numeric_limits<double>::infinity();
  const auto t0 = clock::now();
  for (int pass = 0; pass < kMinPasses || seconds_since(t0) < budget_seconds; ++pass) {
    const auto tp = clock::now();
    double a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0, a6 = 0, a7 = 0;
    for (std::size_t i = 0; i + 8 <= kWords; i += 8) {
      a0 += data[i];
      a1 += data[i + 1];
      a2 += data[i + 2];
      a3 += data[i + 3];
      a4 += data[i + 4];
      a5 += data[i + 5];
      a6 += data[i + 6];
      a7 += data[i + 7];
    }
    s += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
    best = std::min(best, seconds_since(tp));
  }
  volatile double sink = s;
  (void)sink;
  return 1e-9 * static_cast<double>(kWords * 8) / best;
}

} // namespace

MachinePeaks calibrate_peaks(double budget_seconds, bool recalibrate) {
  static MachinePeaks cached;
  static bool have = false;
  if (have && !recalibrate) return cached;
  const auto t0 = clock::now();
  MachinePeaks p;
  p.simd_variant = simd_variant_name();
  p.fma_gflops = measure_fma_gflops(budget_seconds * 0.5);
  p.stream_gbs = measure_stream_gbs(budget_seconds * 0.5);
  p.calibration_seconds = seconds_since(t0);
  cached = p;
  have = true;
  return p;
}

RooflinePlacement place(const RooflineEntry& e, double peak_gflops, double peak_gbs) {
  RooflinePlacement r;
  const double knee = peak_gbs > 0 ? peak_gflops / peak_gbs : 0.0;
  r.ai = e.dram_bytes > 0
             ? static_cast<double>(e.flops) / static_cast<double>(e.dram_bytes)
             : 0.0;
  r.compute_bound = knee > 0 && r.ai >= knee;
  r.attainable_fraction = knee > 0 ? std::min(1.0, r.ai / knee) : 0.0;
  r.achieved_gflops = e.seconds > 0 ? 1e-9 * static_cast<double>(e.flops) / e.seconds : 0.0;
  const double attainable_gflops = r.attainable_fraction * peak_gflops;
  r.pct_of_attainable =
      attainable_gflops > 0 ? 100.0 * r.achieved_gflops / attainable_gflops : 0.0;
  return r;
}

std::string roofline_report(const std::vector<RooflineEntry>& entries, const MachinePeaks& host,
                            const exec::DeviceSpec& device) {
  std::ostringstream caption;
  caption << "roofline placement — host peaks " << std::fixed << std::setprecision(2)
          << host.fma_gflops << " Gflop/s FMA (" << host.simd_variant << "), "
          << host.stream_gbs << " GB/s stream (knee "
          << host.knee() << "), device model " << device.name;
  TableWriter table(caption.str());
  table.header({"kernel", "AI (f/B)", "bound", "Gflop", "host %attainable", "host Gflop/s",
                std::string(device.name) + " %peak"});
  for (const auto& e : entries) {
    const auto h = place(e, host.fma_gflops, host.stream_gbs);
    const auto d =
        place(e, device.peak_fp64_tflops * 1e3, device.peak_dram_gbs); // device peaks in G units
    table.add_row()
        .cell(e.kernel)
        .cell(h.ai, 1)
        .cell(h.compute_bound ? "compute" : "memory")
        .cell(1e-9 * static_cast<double>(e.flops), 2)
        .cell(h.pct_of_attainable, 0)
        .cell(h.achieved_gflops, 2)
        .cell(100.0 * d.attainable_fraction, 0);
  }
  return table.str();
}

} // namespace landau::obs
