// Ablations of the design choices the paper motivates:
//
//  * SoA vs AoS integration-point layout (§III-E: data is transposed into
//    structure-of-arrays for GPUs, from the arrays-of-structures used on
//    vector architectures),
//  * atomic vs plain global assembly (§III-F),
//  * the custom band LU vs dense LU vs GMRES for the multi-species Jacobian
//    (§III-G: general sparse direct solvers target larger problems).

#include <cstdio>
#include <vector>

#include "common.h"
#include "core/kernel_math.h"
#include "la/band.h"
#include "la/band_device.h"
#include "la/dense.h"
#include "la/gmres.h"

using namespace landau;
using namespace landau::bench;

namespace {

/// AoS mirror of the kernels' source-point stream: one interleaved record
/// per integration point.
struct AosPacked {
  std::size_t n = 0;
  std::vector<double> data; // [n][6]: r, z, w, sum_dfr, sum_dfz, sum_f
  void build(const IPData& ip) {
    n = ip.n;
    data.resize(n * detail::kInnerPointDoubles);
    for (std::size_t j = 0; j < n; ++j) {
      double* rec = data.data() + j * detail::kInnerPointDoubles;
      rec[0] = ip.r[j];
      rec[1] = ip.z[j];
      rec[2] = ip.w[j];
      rec[3] = ip.sum_dfr[j];
      rec[4] = ip.sum_dfz[j];
      rec[5] = ip.sum_f[j];
    }
  }
};

double run_inner_soa(const IPData& ip, int reps) {
  detail::InnerAccum acc;
  Stopwatch w;
  for (int r = 0; r < reps; ++r)
    for (std::size_t i = 0; i < ip.n; i += 16)
      for (std::size_t j = 0; j < ip.n; ++j)
        detail::inner_point(ip.r[i], ip.z[i], ip.r[j], ip.z[j], ip.w[j], ip.sum_dfr[j],
                            ip.sum_dfz[j], ip.sum_f[j], &acc);
  volatile double sink = acc.gd00;
  (void)sink;
  return w.seconds();
}

double run_inner_aos(const AosPacked& aos, const IPData& ip, int reps) {
  detail::InnerAccum acc;
  Stopwatch w;
  for (int r = 0; r < reps; ++r)
    for (std::size_t i = 0; i < aos.n; i += 16)
      for (std::size_t j = 0; j < aos.n; ++j) {
        const double* rec = aos.data.data() + j * detail::kInnerPointDoubles;
        detail::inner_point(ip.r[i], ip.z[i], rec[0], rec[1], rec[2], rec[3], rec[4], rec[5],
                            &acc);
      }
  volatile double sink = acc.gd00;
  (void)sink;
  return w.seconds();
}

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int reps = opts.get<int>("reps", 2, "inner-loop repetitions");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  auto species = perf_species(true);
  auto lopts = perf_mesh_options(opts, Backend::CudaSim);
  LandauOperator op(species, lopts);
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());

  TableWriter table("design-choice ablations (this host)");
  table.header({"ablation", "variant", "seconds", "relative"});

  // --- SoA vs AoS ----------------------------------------------------------
  {
    AosPacked aos;
    aos.build(op.ip_data());
    const double t_soa = run_inner_soa(op.ip_data(), reps);
    const double t_aos = run_inner_aos(aos, op.ip_data(), reps);
    table.add_row().cell("IP layout").cell("SoA (GPU)").cell(t_soa, 3).cell(1.0, 2);
    table.add_row().cell("IP layout").cell("AoS, 6 doubles/pt").cell(t_aos, 3).cell(t_aos / t_soa, 2);
  }

  // --- atomic vs plain assembly --------------------------------------------
  {
    la::CsrMatrix j = op.new_matrix();
    JacobianContext c2 = ctx;
    exec::ThreadPool pool(1);
    c2.atomic_assembly = true;
    Stopwatch w1;
    assemble_landau_jacobian(Backend::CudaSim, pool, c2, j);
    const double t_atomic = w1.seconds();
    j.zero_entries();
    c2.atomic_assembly = false;
    Stopwatch w2;
    assemble_landau_jacobian(Backend::CudaSim, pool, c2, j);
    const double t_plain = w2.seconds();
    table.add_row().cell("assembly").cell("atomicAdd").cell(t_atomic, 3).cell(1.0, 2);
    table.add_row().cell("assembly").cell("plain add").cell(t_plain, 3).cell(
        t_plain / t_atomic, 2);
  }

  // --- linear solvers -------------------------------------------------------
  // Dense LU is O(n^3): compare on a two-species subset problem so the
  // reference stays tractable; the band solvers handle the full system.
  {
    auto two = SpeciesSet::electron_deuterium();
    two[1].mass = 100.0;
    auto l2 = perf_mesh_options(opts, Backend::CudaSim);
    LandauOperator op2(two, l2);
    op2.pack(op2.maxwellian_state());
    la::CsrMatrix j = op2.new_matrix();
    op2.add_collision(j);
    // Newton-like system: M - dt C.
    la::CsrMatrix sys = op2.new_matrix();
    sys.axpy(1.0, op2.mass());
    sys.axpy(-0.1, j);
    la::Vec b(op2.n_total(), 1.0), x(op2.n_total());

    la::BlockBandSolver band;
    Stopwatch w1;
    band.analyze(sys);
    band.factor(sys);
    band.solve(b, x);
    const double t_band = w1.seconds();
    table.add_row().cell("solver").cell("block band LU").cell(t_band, 3).cell(1.0, 2);

    exec::ThreadPool dev_pool(1);
    la::DeviceBlockBandSolver dev(dev_pool);
    Stopwatch w1b;
    dev.analyze(sys);
    dev.factor(sys);
    dev.solve(b, x);
    const double t_dev = w1b.seconds();
    table.add_row().cell("solver").cell("device band LU").cell(t_dev, 3).cell(t_dev / t_band, 2);

    Stopwatch w2;
    la::DenseLU dense(sys.to_dense());
    dense.solve(b, x);
    const double t_dense = w2.seconds();
    table.add_row().cell("solver").cell("dense LU").cell(t_dense, 3).cell(t_dense / t_band, 2);

    Stopwatch w3;
    x.zero();
    la::GmresOptions gopts;
    gopts.rtol = 1e-10;
    la::gmres_solve(sys, b, x, gopts);
    const double t_gmres = w3.seconds();
    table.add_row().cell("solver").cell("GMRES(Jacobi)").cell(t_gmres, 3).cell(
        t_gmres / t_band, 2);
  }

  std::printf("%s", table.str().c_str());
  std::printf("\nNotes: on a GPU the SoA layout additionally enables coalescing (the paper's\n"
              "motivation); on this scalar host the layouts are near parity. The band LU's\n"
              "advantage over dense grows with problem size (O(n b^2) vs O(n^3)).\n");
  return 0;
}
