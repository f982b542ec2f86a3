// Overhead of the device memory-model checker (src/exec/check.h): wall time
// of the emulated-CUDA Jacobian assembly and of the batched device band
// factor+solve, with the checker disabled, enabled, and enabled with the
// schedule shuffler (which re-runs every launch in a random block order).
//
// The disabled configuration is the shipped clean path — every checker hook
// degenerates to a null-pointer test, so its time is the baseline the
// checked runs are normalized against. Results go in EXPERIMENTS.md.

#include <chrono>
#include <cstdio>

#include "common.h"
#include "exec/check.h"
#include "la/band_device.h"

using namespace landau;
using namespace landau::bench;
namespace check = landau::exec::check;

namespace {

double seconds_per(int reps, const std::function<void()>& f) {
  f(); // warm up (allocations, page faults)
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / reps;
}

struct Config {
  const char* name;
  bool enabled, shuffle;
};

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int reps = opts.get<int>("reps", 5, "repetitions per configuration");
  const int workers = opts.get<int>("workers", 2, "emulated SMs");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }
  LANDAU_ASSERT(workers >= 0, "-workers " << workers << ": must be >= 0");

  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOptions lopts;
  lopts.order = 2;
  lopts.radius = 4.0;
  lopts.base_levels = 1;
  lopts.cells_per_thermal = 0.8;
  lopts.max_levels = 4;
  lopts.backend = Backend::CudaSim;
  lopts.n_workers = static_cast<unsigned>(workers);
  LandauOperator op(species, lopts);
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  exec::ThreadPool pool(static_cast<unsigned>(workers));
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());

  la::DeviceBlockBandSolver solver(pool);
  op.add_mass_kernel(j, 1.0);
  solver.analyze(j);
  la::Vec b(j.rows(), 1.0), x(j.rows());

  std::printf("device-check overhead: %zu cells, %zu dofs, %d workers, %d reps\n",
              op.space().n_cells(), j.rows(), workers, reps);
  std::printf("%-14s %14s %14s %14s %14s\n", "config", "jacobian [s]", "overhead",
              "factor+solve [s]", "overhead");

  const Config configs[] = {
      {"off", false, false}, {"checked", true, false}, {"checked+shuffle", true, true}};
  const check::CheckOptions saved = check::options();
  double base_jac = 0.0, base_band = 0.0;
  for (const Config& c : configs) {
    check::options() = saved;
    check::options().enabled = c.enabled;
    check::options().shuffle = c.shuffle;
    const double t_jac =
        seconds_per(reps, [&] { assemble_landau_jacobian(Backend::CudaSim, pool, ctx, j); });
    const double t_band = seconds_per(reps, [&] {
      solver.factor(j);
      solver.solve(b, x);
    });
    if (!c.enabled) {
      base_jac = t_jac;
      base_band = t_band;
    }
    std::printf("%-14s %14.4f %13.2fx %14.4f %13.2fx\n", c.name, t_jac, t_jac / base_jac,
                t_band, t_band / base_band);
  }
  check::options() = saved;
  const long reports = check::DeviceChecker::instance().total();
  std::printf("checker reports on the shipped kernels: %ld (expected 0)\n", reports);
  return reports == 0 ? 0 : 1;
}
