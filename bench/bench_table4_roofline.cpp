// Table IV: roofline placement of the Jacobian and mass kernels.
//
// NSight Compute is replaced by the exact FLOP/byte instrumentation threaded
// through the emulated kernels (DESIGN.md): arithmetic intensity is a
// property of the algorithm and reproduces directly. The obs roofline
// reporter places each kernel twice — against *this host's* measured peaks
// (FMA + streaming-bandwidth microbenchmarks, obs::calibrate_peaks) for a
// real achieved-fraction column, and against the V100 model (7.8 TF/s DFMA,
// 890 GB/s) for the paper's Table IV view.
//
// The operator computes the pair tensor once per mesh, so the paper's one
// Jacobian kernel is placed as two: the table build (the first
// add_collision's `landau:tensor` event) and the per-iteration kernel that
// reads the table (a second, counted add_collision). The paper's kernel,
// recomputing the tensor at every call, is placed beside them.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "obs/roofline.h"

using namespace landau;
using namespace landau::bench;

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  // A larger problem (the paper uses 320 cells) so the counters integrate a
  // representative mix of elements.
  opts.set("cells_per_thermal", opts.get<double>("cells_per_thermal", 0.6, ""));
  const double budget = opts.get<double>("calibration_budget", 0.2, "peak-calibration seconds");
  auto lopts = perf_mesh_options(opts, Backend::CudaSim);
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  LandauOperator op(perf_species(true), lopts);
  std::printf("problem: %zu cells, %zu dofs/species, %d species\n", op.forest().n_leaves(),
              op.n_dofs_per_species(), op.n_species());

  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();

  // The first call builds the table, under its own profiler event.
  Profiler::instance().reset();
  op.add_collision(j);
  obs::RooflineEntry build{"Tensor table build"};
  for (const EventStats& e : Profiler::instance().snapshot())
    if (e.name == "landau:tensor") build = {build.kernel, e.flops, e.dram_bytes, 0, e.seconds};

  exec::KernelCounters jac, recompute, mass;
  Stopwatch w1;
  op.add_collision(j, &jac);
  const double t_jac = w1.seconds();
  JacobianContext paper = op.make_context(0);
  paper.tensor = {};
  Stopwatch w0;
  assemble_landau_jacobian(Backend::CudaSim, op.worker_pool(), paper, j, &recompute);
  const double t_recompute = w0.seconds();
  Stopwatch w2;
  op.add_mass_kernel(j, 1.0, &mass);
  const double t_mass = w2.seconds();

  const auto host = obs::calibrate_peaks(budget);
  std::printf("host peaks (measured in %.2f s): %.2f Gflop/s FMA (%s), %.2f GB/s stream\n",
              host.calibration_seconds, host.fma_gflops, host.simd_variant, host.stream_gbs);

  const std::vector<obs::RooflineEntry> entries = {
      build,
      obs::RooflineEntry::from_counters("Jacobian, table read", jac, t_jac),
      obs::RooflineEntry::from_counters("Jacobian, recompute (paper)", recompute, t_recompute),
      obs::RooflineEntry::from_counters("Mass", mass, t_mass),
  };
  const auto v100 = exec::v100();
  std::printf("%s", obs::roofline_report(entries, host, v100).c_str());
  std::printf("\nV100 roofline knee: %.1f flops/byte. Paper: Jacobian AI 15.8 (53%% of peak,\n"
              "FP64-pipe bound), mass AI 1.8 (17%%, L1-latency bound). The contrast — the\n"
              "recomputing Jacobian far above the knee, the mass kernel far below — is the\n"
              "reproduced result; absolute AI differs with the traffic model. The table\n"
              "build counts the tensor's flops once per mesh against the table it writes;\n"
              "the per-iteration kernel streams 40 table bytes a pair for 14 flops and sits\n"
              "with the mass kernel below the knee (see EXPERIMENTS.md).\n",
              v100.roofline_knee());
  // Shared-memory traffic ratio: the inner integral reads shared, not DRAM.
  std::printf("Jacobian (recompute) shared/DRAM traffic ratio: %.1f (inner integral served "
              "from shared)\n",
              static_cast<double>(recompute.shared_bytes.load(std::memory_order_relaxed)) /
                  std::max<std::int64_t>(1, recompute.dram_bytes.load(std::memory_order_relaxed)));

  const auto build_host = obs::place(entries[0], host.fma_gflops, host.stream_gbs);
  const auto jac_host = obs::place(entries[1], host.fma_gflops, host.stream_gbs);
  const auto recompute_host = obs::place(entries[2], host.fma_gflops, host.stream_gbs);
  const auto mass_host = obs::place(entries[3], host.fma_gflops, host.stream_gbs);
  BenchReport report("table4_roofline");
  report.metric("tensor_build.ai", build_host.ai, "flops/byte", "none");
  report.metric("jacobian.ai", jac_host.ai, "flops/byte", "none");
  report.metric("jacobian_recompute.ai", recompute_host.ai, "flops/byte", "none");
  report.metric("mass.ai", mass_host.ai, "flops/byte", "none");
  report.metric("tensor_build.seconds", build.seconds, "s", "lower");
  report.metric("jacobian.host_gflops", jac_host.achieved_gflops, "Gflop/s", "higher");
  report.metric("jacobian.seconds", t_jac, "s", "lower");
  report.metric("jacobian_recompute.seconds", t_recompute, "s", "lower");
  report.metric("mass.seconds", t_mass, "s", "lower");
  report.metric("host.fma_gflops", host.fma_gflops, "Gflop/s", "none");
  report.metric("host.stream_gbs", host.stream_gbs, "GB/s", "none");
  return 0;
}
