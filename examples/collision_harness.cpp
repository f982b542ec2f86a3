// The throughput harness of §V (the paper's PETSc ex2 analog): many
// independent instances of the collision problem — one per configuration-
// space vertex in a real application — advance concurrently, each on its own
// asynchronous stream over the shared worker pool (the flat-MPI + MPS
// dispatch analog). Reports aggregate throughput in Newton iterations per
// second, the paper's figure of merit.
//
//   ./collision_harness [-processes 4] [-steps 3] [-workers 2] [-species 2]

#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/operator.h"
#include "exec/stream.h"
#include "solver/implicit.h"
#include "util/options.h"
#include "util/profiler.h"

using namespace landau;

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int processes = opts.get<int>("processes", 4, "independent problem instances");
  const int steps = opts.get<int>("steps", 3, "implicit steps per instance");
  const double dt = opts.get<double>("dt", 0.5, "time step");
  const int workers = opts.get<int>("workers", 2, "shared pool workers (the 'GPU')");
  const int n_species = opts.get<int>("species", 2, "2 = e/D, 10 = e/D/8W");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }
  LANDAU_ASSERT(workers >= 0, "-workers " << workers << ": must be >= 0");

  SpeciesSet species =
      n_species >= 10 ? SpeciesSet::tungsten_plasma() : SpeciesSet::electron_deuterium();
  species[1].mass = 100.0;
  if (n_species >= 10)
    for (int s = 2; s < species.size(); ++s) species[s].mass = 1600.0;

  LandauOptions lopts = LandauOptions::from_options(opts);
  lopts.cells_per_thermal = opts.get<double>("landau_cells_per_thermal", 0.5, "");
  lopts.max_levels = opts.get<int>("landau_max_levels", 5, "");
  lopts.n_workers = 0; // instances share the harness pool below instead

  // One shared pool plays the device; each "process" is a stream of steps.
  exec::ThreadPool pool(static_cast<unsigned>(workers));

  struct Instance {
    std::unique_ptr<LandauOperator> op;
    std::unique_ptr<ImplicitIntegrator> integrator;
    la::Vec f;
  };
  std::vector<Instance> instances(static_cast<std::size_t>(processes));
  NewtonOptions newton;
  newton.rtol = 1e-6;
  newton.max_iterations = 10;
  for (auto& inst : instances) {
    inst.op = std::make_unique<LandauOperator>(species, lopts);
    inst.integrator = std::make_unique<ImplicitIntegrator>(*inst.op, newton);
    inst.f = inst.op->maxwellian_state({});
    // Amortized setup (first CPU assembly + RCM analysis, §III-F).
    inst.integrator->step(inst.f, dt);
  }
  std::printf("harness: %d instances x %d steps, %zu cells each, %d species, %d workers\n",
              processes, steps, instances[0].op->forest().n_leaves(), species.size(), workers);

  std::atomic<long> iterations{0};
  Stopwatch watch;
  {
    std::vector<std::unique_ptr<exec::Stream>> streams;
    for (int p = 0; p < processes; ++p) streams.push_back(std::make_unique<exec::Stream>(pool));
    for (int p = 0; p < processes; ++p) {
      auto& inst = instances[static_cast<std::size_t>(p)];
      for (int s = 0; s < steps; ++s)
        streams[static_cast<std::size_t>(p)]->enqueue([&inst, &iterations, dt] {
          const auto stats = inst.integrator->step(inst.f, dt);
          iterations.fetch_add(stats.newton_iterations);
        });
    }
    for (auto& s : streams) s->synchronize();
  }
  const double wall = watch.seconds();
  std::printf("total Newton iterations: %ld in %.3f s -> throughput %.1f it/s\n",
              iterations.load(), wall, static_cast<double>(iterations.load()) / wall);
  std::printf("(the paper's Table II measures this quantity across a Summit node;\n"
              " on a multi-core host, raise -workers and -processes to see scaling)\n");
  return 0;
}
