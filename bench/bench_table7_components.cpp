// Table VII: component times of the collision advance — total, Landau matrix
// construction (with the kernel share), LU factorization and solve — for
// each back-end, measured for real on this host from the profiler, next to
// the paper's device numbers.

#include <cstdio>

#include "common.h"

using namespace landau;
using namespace landau::bench;

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int steps = opts.get<int>("steps", 2, "measured steps per back-end");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  auto species = perf_species(true);
  TableWriter table(
      "Table VII: per-Newton-iteration component times (ms) on this host, by back-end");
  table.header({"back-end", "total", "Landau", "(kernel)", "factor", "solve", "iters",
                "factors/step", "max |G_k|/|G_k-1|"});

  BenchReport report("table7_components");
  for (Backend be : {Backend::Cpu, Backend::CudaSim, Backend::KokkosSim}) {
    auto lopts = perf_mesh_options(opts, be);
    LandauOperator op(species, lopts);
    const auto ct = measure_components(op, steps);
    table.add_row().cell(backend_name(be)).cell(ct.total * 1e3, 2).cell(ct.landau * 1e3, 2)
        .cell(ct.kernel * 1e3, 2).cell(ct.factor * 1e3, 2).cell(ct.solve * 1e3, 2)
        .cell(ct.iterations).cell(ct.factorizations, 2).cell(ct.max_contraction, 3);
    const std::string prefix = backend_name(be);
    report.metric(prefix + ".total_ms", ct.total * 1e3, "ms", "lower");
    report.metric(prefix + ".kernel_ms", ct.kernel * 1e3, "ms", "lower");
    report.metric(prefix + ".factor_ms", ct.factor * 1e3, "ms", "lower");
    report.metric(prefix + ".solve_ms", ct.solve * 1e3, "ms", "lower");
  }
  std::printf("%s", table.str().c_str());
  std::printf("\npaper (Table VII, seconds per 100-step run):\n"
              "  CUDA         total 14.3, Landau 3.3 (kernel 2.9), factor 8.4, solve 0.8\n"
              "  Kokkos-CUDA  total 15.4, Landau 4.1 (kernel 3.2), factor 8.7, solve 0.8\n"
              "  Kokkos-HIP   total 23.1, Landau 10.9 (kernel 10.2), factor 5.9, solve 0.5\n"
              "  Fugaku       total 250.7, Landau 215.1 (kernel 209.5), factor 16.1, solve 1.5\n"
              "Shapes to reproduce: the kernel dominates the Landau time (>=80%%); the CUDA\n"
              "formulation is modestly faster than Kokkos; factor+solve are the other major\n"
              "cost (on this host the emulated kernel is CPU-bound, so its share is larger).\n");
  return 0;
}
