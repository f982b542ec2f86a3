// Google-benchmark microbenchmarks of the hot kernels: elliptic integrals,
// the 2D Landau tensor, the inner-integral pair kernel (scalar and SIMD),
// banded LU, RCM, sparse matvec, and the full element kernel on each
// back-end.

#include <benchmark/benchmark.h>

#include <chrono>
#include <random>

#include "core/inner_tile.h"
#include "core/kernel_math.h"
#include "core/landau_tensor.h"
#include "core/operator.h"
#include "la/band.h"
#include "la/rcm.h"
#include "util/simd.h"

using namespace landau;

// The kernels' K and E over a sweep of the parameter m in (0, 1).
static void BM_EllipticKE(benchmark::State& state) {
  double m = 0.005, K, E;
  for (auto _ : state) {
    elliptic_ke_poly(1.0 - m, &K, &E);
    benchmark::DoNotOptimize(K + E);
    m = m < 0.99 ? m + 0.00997 : 0.005;
  }
}
BENCHMARK(BM_EllipticKE);

static void BM_LandauTensor2D(benchmark::State& state) {
  Tensor2 uk, ud;
  double r = 1.0;
  for (auto _ : state) {
    landau_tensor_2d(r, 0.5, 0.7, -0.3, &uk, &ud);
    benchmark::DoNotOptimize(uk.m[0][0] + ud.m[1][1]);
    r = r < 3.0 ? r + 1e-3 : 0.5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LandauTensor2D);

static void BM_InnerPoint(benchmark::State& state) {
  detail::InnerAccum acc;
  double rj = 0.7;
  for (auto _ : state) {
    detail::inner_point(1.0, 0.5, rj, -0.3, 0.01, 0.4, -0.2, 0.5, &acc);
    benchmark::DoNotOptimize(acc.gd00);
    rj = rj < 3.0 ? rj + 1e-3 : 0.5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InnerPoint);

// The SIMD inner integral at the variant this CPU runs, over one cuda-sim
// tile of 128 seeded source points (16 calls of one chunk) per iteration;
// time_per_pair is the time of one pair.
static void BM_InnerTile(benchmark::State& state) {
  constexpr std::size_t n = 128;
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> ur(0.05, 4.0), uz(-4.0, 4.0), u01(0.0, 1.0);
  std::vector<double> r(n), z(n), w(n), sdfr(n), sdfz(n), sf(n);
  for (std::size_t j = 0; j < n; ++j) {
    r[j] = ur(rng);
    z[j] = uz(rng);
    w[j] = u01(rng);
    sdfr[j] = u01(rng) - 0.5;
    sdfz[j] = u01(rng) - 0.5;
    sf[j] = u01(rng);
  }
  detail::InnerSlots slots;
  double ri = 1.0;
  for (auto _ : state) {
    for (std::size_t k = 0; k < n; k += kIpChunk)
      detail::inner_tile(ri, 0.5,
                         {r.data() + k, z.data() + k, w.data() + k, sdfr.data() + k,
                          sdfz.data() + k, sf.data() + k},
                         &slots);
    benchmark::DoNotOptimize(&slots);
    benchmark::ClobberMemory();
    ri = ri < 3.0 ? ri + 1e-3 : 0.5;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["time_per_pair"] = benchmark::Counter(
      n, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(simd_variant_name());
}
BENCHMARK(BM_InnerTile);

// The band LU factor alone, at the variant this CPU runs: each iteration
// restores the values into a preallocated matrix untimed and times
// factor_lu. Shapes (n, bandwidth): two narrow bands, and the species10 and
// quench_ed band blocks of perfbench. "flops" is the factor's own flop count
// per second.
static void BM_BandLUFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bw = static_cast<std::size_t>(state.range(1));
  la::BandMatrix proto(n, bw, bw), b(n, bw, bw);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(n - 1, i + bw); ++j)
      proto.at(i, j) = i == j ? 2.5 * static_cast<double>(bw) : dist(rng);
  std::int64_t flops = 0;
  for (auto _ : state) {
    std::copy(proto.data().begin(), proto.data().end(), b.data().begin());
    const auto t0 = std::chrono::steady_clock::now();
    flops = b.factor_lu();
    benchmark::DoNotOptimize(flops);
    benchmark::ClobberMemory();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  state.counters["flops"] =
      benchmark::Counter(static_cast<double>(flops), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(simd_variant_name());
}
BENCHMARK(BM_BandLUFactor)
    ->Args({200, 12})
    ->Args({800, 12})
    ->Args({1006, 153})
    ->Args({691, 159})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

static void BM_RcmOrdering(benchmark::State& state) {
  const std::size_t n = 500;
  la::SparsityPattern p(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > 4 ? i - 4 : 0); j <= std::min(n - 1, i + 4); ++j) p.add(i, j);
  p.compress();
  la::CsrMatrix a(p);
  for (auto _ : state) {
    auto perm = la::rcm_ordering(a);
    benchmark::DoNotOptimize(perm.data());
  }
}
BENCHMARK(BM_RcmOrdering);

static void BM_JacobianKernel(benchmark::State& state) {
  const auto backend = static_cast<Backend>(state.range(0));
  SpeciesSet electron(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOptions lopts;
  lopts.order = 3;
  lopts.radius = 4.0;
  lopts.cells_per_thermal = 0.6;
  lopts.max_levels = 3;
  lopts.backend = backend;
  lopts.n_workers = 1;
  LandauOperator op(electron, lopts);
  op.pack(op.maxwellian_state());
  la::CsrMatrix j = op.new_matrix();
  op.add_collision(j); // untimed: builds the pair-tensor table once per mesh
  for (auto _ : state) {
    j.zero_entries();
    op.add_collision(j);
    benchmark::DoNotOptimize(j.values().data());
  }
  state.SetLabel(backend_name(backend));
  state.counters["cells"] = static_cast<double>(op.forest().n_leaves());
}
BENCHMARK(BM_JacobianKernel)
    ->Arg(static_cast<int>(Backend::Cpu))
    ->Arg(static_cast<int>(Backend::CudaSim))
    ->Arg(static_cast<int>(Backend::KokkosSim))
    ->Unit(benchmark::kMillisecond);

static void BM_MassKernel(benchmark::State& state) {
  SpeciesSet electron(
      {{.name = "e", .mass = 1.0, .charge = -1.0, .density = 1.0, .temperature = 1.0}});
  LandauOptions lopts;
  lopts.order = 3;
  lopts.radius = 4.0;
  lopts.cells_per_thermal = 0.6;
  lopts.max_levels = 3;
  lopts.n_workers = 1;
  LandauOperator op(electron, lopts);
  op.pack(op.maxwellian_state());
  la::CsrMatrix j = op.new_matrix();
  for (auto _ : state) {
    j.zero_entries();
    op.add_mass_kernel(j, 1.0);
    benchmark::DoNotOptimize(j.values().data());
  }
}
BENCHMARK(BM_MassKernel)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
