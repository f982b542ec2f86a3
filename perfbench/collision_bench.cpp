// collision_bench: the collision-advance benchmark.
//
// One sample is one backward-Euler step of the Landau collision operator,
// solved by the paper's quasi-Newton iteration with the block band LU, from a
// seeded initial state. Every sample restarts from that state, so each does
// identical work and a run's median is steady.
//
//   collision_bench --workload species10|quench_ed|grids3 --seed N
//                   --seconds S --trace 0|1
//
// Both modes time ImplicitIntegrator::step exactly as an application calls
// it. --trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
// metrics (pack, Landau kernel + assembly, advection, host algebra, factor,
// solve) read from the library's always-on Profiler, which times those layers
// inside the step. Both modes check every step's result. The last line of
// stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/multigrid.h"
#include "core/operator.h"
#include "exec/counters.h"
#include "quench/source.h"
#include "quench/spitzer.h"
#include "solver/implicit.h"
#include "util/logging.h"
#include "util/profiler.h"

using namespace landau;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// splitmix64, so the inputs depend only on the seed, on every platform.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  double uniform(double lo, double hi) {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return lo + (hi - lo) * static_cast<double>(z >> 11) * 0x1.0p-53;
  }

private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One benchmark problem: the operator, the seeded initial state and the
/// step's inputs (field, source, dt, quasi-Newton settings).
struct Problem {
  std::unique_ptr<CollisionOperatorBase> op;
  std::function<double(const la::Vec&, int)> density; // of species s
  int n_species = 0;
  la::Vec f0;
  la::Vec source; // df/dt; empty when the workload injects nothing
  double e_z = 0.0;
  double dt = 0.0;
  NewtonOptions newton;
  /// The step runs exactly newton.max_iterations iterations instead of
  /// converging to newton.rtol (the paper's §V throughput convention).
  bool fixed_budget = false;

  const la::Vec* source_ptr() const { return source.empty() ? nullptr : &source; }
};

constexpr double kTeEv = 3000.0; // reference electron temperature for E_c

/// `workers` is the number of emulated SMs: kernel blocks (mesh cells) and
/// the band solver's per-species blocks are spread over them.
LandauOptions mesh_options(double radius, double cells_per_thermal, int max_levels,
                           unsigned workers) {
  LandauOptions lo;
  lo.order = 3;
  lo.radius = radius;
  lo.base_levels = 1;
  lo.cells_per_thermal = cells_per_thermal;
  lo.max_levels = max_levels;
  lo.backend = Backend::CudaSim;
  lo.n_workers = workers;
  return lo;
}

template <class Op>
void adopt(Problem& p, std::unique_ptr<Op> op) {
  p.n_species = op->n_species();
  Op* raw = op.get();
  p.density = [raw](const la::Vec& f, int s) { return raw->moments(f, s).density; };
  p.op = std::move(op);
}

/// §V performance plasma: electrons, deuterium and eight tungsten charge
/// states on one shared grid (the masses of bench/common.h perf_species, so
/// one grid resolves every species), electrons drifting in a Spitzer-phase
/// field. The W-W coupling is so stiff that the quasi-Newton iteration stalls
/// short of any tight tolerance, so each step runs a fixed iteration budget.
/// Two workers, as in examples/collision_harness: the kernel's cells and the
/// ten band blocks are dispatched in parallel.
Problem make_species10(Rng& rng) {
  auto species = SpeciesSet::tungsten_plasma();
  species[1].mass = 100.0;
  for (int s = 2; s < species.size(); ++s) species[s].mass = 1600.0;
  auto op = std::make_unique<LandauOperator>(species, mesh_options(5.0, 0.45, 6, 2));
  std::vector<double> drifts(static_cast<std::size_t>(species.size()), 0.0);
  drifts[0] = rng.uniform(0.20, 0.25);
  Problem p;
  p.f0 = op->maxwellian_state(drifts);
  p.e_z = 0.5 * quench::critical_field(kTeEv);
  p.dt = 0.02;
  p.newton.rtol = 0.0;
  p.newton.max_iterations = 3;
  p.fixed_budget = true;
  adopt(p, std::move(op));
  return p;
}

/// Thermal-quench phase of the e/D model (§IV-C): E follows the Spitzer
/// resistivity of the current (E <- eta J) while the cold-plasma pulse
/// injects electrons and ions near its peak rate. One worker: a serial
/// baseline.
Problem make_quench_ed(Rng& rng) {
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  auto op = std::make_unique<LandauOperator>(species, mesh_options(5.0, 0.8, 4, 1));
  const double drifts[2] = {rng.uniform(0.10, 0.15), 0.0};
  Problem p;
  p.f0 = op->maxwellian_state(drifts);
  p.e_z = quench::spitzer_eta(species.z_eff(), op->electron_temperature(p.f0)) *
          op->current_z(p.f0);
  quench::SourceSpec spec;
  spec.total_injected = 5.0;
  spec.t_start = 0.0;
  spec.duration = 10.0;
  spec.cold_temperature = 0.05;
  p.source = la::Vec(op->n_total());
  quench::ColdPulseSource(*op, spec).evaluate(rng.uniform(4.0, 6.0), &p.source);
  p.dt = 0.1;
  p.newton.rtol = 3e-5;
  adopt(p, std::move(op));
  return p;
}

/// Table I's three-grid configuration (§III-H): the 10-species plasma with
/// physical masses, clustered e | D | 8 W onto three scaled grids whose
/// inner integral spans all grids, electrons drifting in a Spitzer-phase
/// field. One worker: a serial baseline.
Problem make_grids3(Rng& rng) {
  const auto species = SpeciesSet::tungsten_plasma();
  auto op = std::make_unique<MultiGridLandauOperator>(
      species, mesh_options(5.0 * std::sqrt(kPi / 4.0), 0.45, 14, 1), 2.0);
  LANDAU_ASSERT(op->n_grids() == 3, "grids3 expects three thermal-speed clusters");
  Problem p;
  p.f0 = op->maxwellian_state();
  const double drift = rng.uniform(0.20, 0.25);
  const la::Vec drifting = op->grid(op->grid_of_species(0)).fes->interpolate(
      [&](double r, double z) { return species[0].maxwellian(r, z, drift); });
  std::copy(drifting.begin(), drifting.end(), op->block(p.f0, 0).begin());
  p.e_z = 0.5 * quench::critical_field(kTeEv);
  p.dt = 0.5;
  p.newton.rtol = 1e-4;
  adopt(p, std::move(op));
  return p;
}

Problem make_problem(const std::string& workload, std::uint64_t seed) {
  Rng rng(seed);
  if (workload == "species10") return make_species10(rng);
  if (workload == "quench_ed") return make_quench_ed(rng);
  if (workload == "grids3") return make_grids3(rng);
  LANDAU_THROW("unknown workload '" << workload << "'");
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// |G(f)| of the backward-Euler system of one step from p.f0,
/// G(f) = M (f - f0) - dt [(C(f) - A) f + M s], evaluated from outside the
/// integrator.
double residual_norm(Problem& p, const la::Vec& f) {
  CollisionOperatorBase& op = *p.op;
  la::CsrMatrix cmat = op.new_matrix();
  op.pack(f);
  op.add_collision(cmat);
  if (p.e_z != 0.0) op.add_advection(cmat, -p.e_z);
  la::Vec r(op.n_total()), tmp = f;
  tmp.axpy(-1.0, p.f0);
  op.mass().mult(tmp, r);
  cmat.mult(f, tmp);
  r.axpy(-p.dt, tmp);
  if (p.source_ptr()) {
    op.mass().mult(p.source, tmp);
    r.axpy(-p.dt, tmp);
  }
  return r.norm2();
}

/// Full check of the reference step f0 -> f1: the returned state solves the
/// step's system to the stated tolerance (or, on a fixed budget, cut its
/// residual tenfold), and each species' density moved by exactly the injected
/// amount (collisions conserve it to roundoff; the field's advection through
/// the truncated domain may move at most a 1e-5 share of the impulse dt |E|).
bool reference_ok(Problem& p, const StepStats& st, const la::Vec& f1, std::string* why) {
  char buf[160];
  if (st.non_finite || !f1.all_finite() || (!p.fixed_budget && !st.converged)) {
    *why = "quasi-Newton iteration did not converge";
    return false;
  }
  const double g0 = residual_norm(p, p.f0), g1 = residual_norm(p, f1);
  const double want_g = p.fixed_budget ? 0.1 * g0 : p.newton.rtol * g0 * (1.0 + 1e-9);
  if (!(g1 <= want_g)) {
    std::snprintf(buf, sizeof buf, "residual |G(f1)| = %.6g exceeds %.6g", g1, want_g);
    *why = buf;
    return false;
  }
  const double tol = 1e-10 + 1e-5 * p.dt * std::abs(p.e_z);
  for (int s = 0; s < p.n_species; ++s) {
    const double injected = p.source_ptr() ? p.dt * p.density(p.source, s) : 0.0;
    const double want = p.density(p.f0, s) + injected, got = p.density(f1, s);
    if (!(std::abs(got - want) <= tol * std::max(1.0, std::abs(want)))) {
      std::snprintf(buf, sizeof buf, "density of species %d is %.15g, expected %.15g", s, got,
                    want);
      *why = buf;
      return false;
    }
  }
  return true;
}

/// A measured step must reproduce the checked reference step.
bool repeat_ok(const StepStats& ref, const la::Vec& ref_f1, const StepStats& st,
               const la::Vec& f1, std::string* why) {
  if (st.non_finite || st.converged != ref.converged ||
      st.newton_iterations != ref.newton_iterations) {
    *why = "quasi-Newton iteration differs from the reference step";
    return false;
  }
  la::Vec d = f1;
  d.axpy(-1.0, ref_f1);
  if (!(d.norm2() <= 1e-10 * ref_f1.norm2())) {
    *why = "result differs from the reference step";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Everything built before the first step: the operator (mesh, FE space,
/// mass matrix, worker pool), the seeded inputs and the integrator. The band
/// solver's symbolic analysis runs inside the integrator's first step.
struct Setup {
  Problem problem;
  std::unique_ptr<ImplicitIntegrator> integrator;
};

std::unique_ptr<Setup> set_up(const std::string& workload, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->problem = make_problem(workload, seed);
  s->integrator = std::make_unique<ImplicitIntegrator>(*s->problem.op, s->problem.newton);
  return s;
}

// ---------------------------------------------------------------------------
// Per-layer figures from the library's own instrumentation
// ---------------------------------------------------------------------------

/// Layer times of one ImplicitIntegrator::step, read from the always-on
/// Profiler after a reset just before the step: seconds per call of each
/// layer, and the host algebra (the step's own time outside its child events:
/// residual, Newton matrix, update) per Newton iteration.
struct StepLayers {
  double pack = 0, landau = 0, advection = 0, factor = 0, solve = 0, host = 0;
};

StepLayers read_layers(int newton_iterations) {
  const Profiler& prof = Profiler::instance();
  double children = 0.0;
  auto per_call = [&](const char* event) {
    const double sec = prof.seconds(event);
    children += sec;
    const auto n = prof.count(event);
    return n > 0 ? sec / static_cast<double>(n) : 0.0;
  };
  StepLayers l;
  l.pack = per_call("landau:pack");
  l.landau = per_call("landau:matrix"); // Landau kernel + assembly
  l.advection = per_call("landau:advection");
  l.factor = per_call("landau:factor");
  l.solve = per_call("landau:solve");
  l.host = (prof.seconds("landau:step") - children) / std::max(1, newton_iterations);
  return l;
}

/// Work of one Landau kernel call on the initial state, as the kernel's
/// counters report it.
double landau_flops(Problem& p) {
  la::CsrMatrix cmat = p.op->new_matrix();
  exec::KernelCounters counters;
  p.op->pack(p.f0);
  p.op->add_collision(cmat, &counters);
  return static_cast<double>(counters.flops.load());
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", ms[i].name,
                ms[i].value, ms[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload")
      a.workload = val;
    else if (key == "--seed")
      a.seed = std::stoull(val);
    else if (key == "--seconds")
      a.seconds = std::stod(val);
    else if (key == "--trace")
      a.trace = std::stoi(val) != 0;
    else
      LANDAU_THROW("unknown argument " << key);
  }
  LANDAU_ASSERT(argc % 2 == 1, "every option takes one value");
  LANDAU_ASSERT(!a.workload.empty() && a.seconds > 0, "need --workload and --seconds > 0");
  return a;
}

int run(const Args& args) {
  // Set-up is timed once before measuring and again after every measured
  // step, so its repetitions see the same host conditions as the steps (shared
  // hosts alternate between fast and slow phases lasting seconds); the median
  // is the reported set-up time.
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    auto su = set_up(args.workload, args.seed);
    setup_s.push_back(since(t0));
    return su;
  };
  const std::unique_ptr<Setup> s = timed_set_up();
  Problem& p = s->problem;

  // Warm-up: one step through the integrator (first-touch allocations, its
  // own symbolic analysis). Its result is checked in full and is the
  // reference every measured step must reproduce.
  la::Vec ref_f1 = p.f0;
  const StepStats ref = s->integrator->step(ref_f1, p.dt, p.e_z, p.source_ptr());
  std::string why;
  if (!reference_ok(p, ref, ref_f1, &why)) {
    std::fprintf(stderr, "collision_bench: reference step failed: %s\n", why.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "collision_bench: %s seed %llu: %zu equations, %u workers, %d Newton "
               "iterations/step\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               p.op->n_total(), p.op->worker_pool().n_workers(), ref.newton_iterations);
  const double landau_flop = args.trace ? landau_flops(p) : 0.0;

  long attempted = 0, failed = 0;
  std::vector<double> step_s, its_per_s;
  std::vector<double> pack_s, landau_s, advection_s, factor_s, solve_s, host_s;
  la::Vec f;
  const auto start = Clock::now();
  while (attempted == 0 || since(start) < args.seconds) {
    f = p.f0;
    StepStats st;
    bool threw = false;
    Profiler::instance().reset();
    const auto t0 = Clock::now();
    try {
      st = s->integrator->step(f, p.dt, p.e_z, p.source_ptr());
    } catch (const std::exception& ex) {
      threw = true;
      why = ex.what();
    }
    const double wall = since(t0);
    const StepLayers layers = read_layers(st.newton_iterations);
    timed_set_up();
    ++attempted;
    if (threw || !repeat_ok(ref, ref_f1, st, f, &why)) {
      ++failed;
      std::fprintf(stderr, "collision_bench: step %ld failed: %s\n", attempted, why.c_str());
      continue;
    }
    step_s.push_back(wall);
    its_per_s.push_back(st.newton_iterations / wall);
    pack_s.push_back(layers.pack);
    landau_s.push_back(layers.landau);
    advection_s.push_back(layers.advection);
    factor_s.push_back(layers.factor);
    solve_s.push_back(layers.solve);
    host_s.push_back(layers.host);
  }

  std::vector<Metric> ms;
  if (!args.trace) {
    ms = {{"newton_it_per_s", "1/s", median(its_per_s)},
          {"time_to_solution_s", "s", median(step_s)},
          {"setup_s", "s", median(setup_s)}};
  } else {
    // Per call, except host_ms (per iteration). The Landau kernel dominates
    // every workload, so landau_ms moves newton_it_per_s everywhere; the band
    // factor is the second layer only on species10 (ten blocks of bandwidth
    // ~150), so factor_ms moves it there and barely on grids3.
    const double landau = median(landau_s);
    ms = {{"construct_ms", "ms", 1e3 * median(setup_s)},
          {"pack_ms", "ms", 1e3 * median(pack_s)},
          {"landau_ms", "ms", 1e3 * landau},
          {"landau_mflop", "MFLOP", 1e-6 * landau_flop},
          {"landau_gflop_per_s", "GFLOP/s", 1e-9 * landau_flop / landau},
          {"advection_ms", "ms", 1e3 * median(advection_s)},
          {"host_ms", "ms", 1e3 * median(host_s)},
          {"factor_ms", "ms", 1e3 * median(factor_s)},
          {"solve_ms", "ms", 1e3 * median(solve_s)},
          {"newton_its_per_step", "count", static_cast<double>(ref.newton_iterations)},
          {"band_bandwidth", "count", static_cast<double>(s->integrator->band_bandwidth())}};
  }
  print_result(failed == 0, attempted, failed, ms);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  Logger::instance().set_level(LogLevel::Error);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "collision_bench: %s\n", ex.what());
    return 2;
  }
}
