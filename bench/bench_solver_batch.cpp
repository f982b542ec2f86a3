// The batched, zero-reallocation linear-solve path (§III-G + the batched
// direct solvers of Adams/Wang/Knepley, arXiv:2209.03228):
//
//  1. allocation audit: after analyze(), repeated factor()+solve() calls on
//     the host solver must hit the heap zero times — the symbolic phase
//     (band widths, scatter maps, workspaces) is fully amortized,
//  2. legacy vs cached numeric phase: the old path re-ran band-width
//     discovery + reallocation + CSR scatter (BandMatrix::from_csr) every
//     Newton iteration; the cached path is a value copy + in-place LU,
//  3. serial vs batched: the species blocks factor/solve independently, so
//     the host solver batches them over exec::ThreadPool workers exactly
//     like the device path batches them over emulated SMs,
//  4. end to end: Newton iterations/second of the implicit integrator on the
//     Table-I 10-species e/D/W problem.
//
// Results are recorded in EXPERIMENTS.md.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common.h"
#include "exec/thread_pool.h"
#include "la/band.h"
#include "la/band_device.h"
#include "la/rcm.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new/delete in this binary is
// counted so the zero-allocation claim is audited, not asserted.
namespace {
std::atomic<long> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace landau;
using namespace landau::bench;

namespace {

/// Species-style block-diagonal test system: `blocks` independent banded
/// subsystems of size `block_n` and half-bandwidth `bw`.
la::CsrMatrix block_system(std::size_t blocks, std::size_t block_n, std::size_t bw) {
  la::SparsityPattern p(blocks * block_n, blocks * block_n);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < block_n; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(block_n - 1, i + bw); ++j)
        p.add(b * block_n + i, b * block_n + j);
  p.compress();
  la::CsrMatrix a(p);
  unsigned state = 12345;
  auto rnd = [&state]() {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state) / 4294967296.0 - 0.5;
  };
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t i = 0; i < block_n; ++i)
      for (std::size_t j = (i > bw ? i - bw : 0); j <= std::min(block_n - 1, i + bw); ++j)
        a.add(b * block_n + i, b * block_n + j,
              i == j ? 4.0 * static_cast<double>(bw) + 1.0 : rnd());
  return a;
}

/// The pre-refactor numeric phase: re-run from_csr (band-width discovery +
/// allocation + CSR scatter) and factor serially, every call.
double legacy_factor_solve(const la::CsrMatrix& a, const std::vector<std::int32_t>& perm,
                           const std::vector<la::BlockRange>& ranges, const la::Vec& b,
                           la::Vec& x, int repeats) {
  Stopwatch w;
  for (int r = 0; r < repeats; ++r) {
    la::Vec pb, px;
    for (const auto& blk : ranges) {
      auto lu = la::BandMatrix::from_csr(a, perm, blk.begin, blk.end);
      lu.factor_lu();
      const std::size_t n = blk.end - blk.begin;
      pb.resize(n);
      px.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        pb[i] = b[static_cast<std::size_t>(perm[blk.begin + i])];
      lu.solve(pb, px);
      for (std::size_t i = 0; i < n; ++i)
        x[static_cast<std::size_t>(perm[blk.begin + i])] = px[i];
    }
  }
  return w.seconds();
}

double cached_factor_solve(la::BlockBandSolver& solver, const la::CsrMatrix& a, const la::Vec& b,
                           la::Vec& x, int repeats) {
  Stopwatch w;
  for (int r = 0; r < repeats; ++r) {
    solver.factor(a);
    solver.solve(b, x);
  }
  return w.seconds();
}

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int workers = opts.get<int>("workers", 4, "pool workers for the batched paths");
  const int repeats = opts.get<int>("repeats", 50, "factor+solve repetitions per row");
  const int steps = opts.get<int>("steps", 3, "implicit steps for the end-to-end row");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }
  LANDAU_ASSERT(workers >= 0, "-workers " << workers << ": must be >= 0");

  // --- 1. allocation audit ---------------------------------------------------
  // 10 species-style blocks (the §V problem's structure), serial solver: the
  // numeric phase must not touch the heap.
  {
    auto a = block_system(10, 400, 12);
    la::Vec b(a.rows(), 1.0), x(a.rows());
    la::BlockBandSolver solver;
    solver.analyze(a);
    solver.factor(a); // warm: first factor after analyze
    solver.solve(b, x);
    const long before = g_allocs.load();
    for (int r = 0; r < repeats; ++r) {
      solver.factor(a);
      solver.solve(b, x);
    }
    const long after = g_allocs.load();
    std::printf("allocation audit: %d x (factor+solve) on 10 blocks of n=400 -> %ld heap "
                "allocations (%s)\n\n",
                repeats, after - before, after == before ? "OK, zero" : "FAIL");
  }

  // --- 2./3. legacy vs cached vs batched ------------------------------------
  TableWriter table("Batched band solver: factor+solve wall time, " +
                    std::to_string(repeats) + " repeats");
  table.header({"blocks", "n/block", "bw", "legacy serial (s)", "cached serial (s)",
                "cached batched (s)", "speedup cached", "speedup batched"});
  exec::ThreadPool pool(static_cast<unsigned>(workers));
  for (const auto& [blocks, block_n, bw] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{4, 800, 12},
        std::tuple<std::size_t, std::size_t, std::size_t>{10, 400, 12},
        std::tuple<std::size_t, std::size_t, std::size_t>{10, 800, 24}}) {
    auto a = block_system(blocks, block_n, bw);
    la::Vec b(a.rows(), 1.0), x(a.rows());

    la::BlockBandSolver serial;
    serial.analyze(a);
    const auto perm = la::rcm_ordering(a);
    const auto ranges = la::discover_blocks(a, perm);
    const double t_legacy = legacy_factor_solve(a, perm, ranges, b, x, repeats);
    serial.factor(a); // warm
    const double t_cached = cached_factor_solve(serial, a, b, x, repeats);

    la::BlockBandSolver batched(&pool);
    batched.analyze(a);
    batched.factor(a); // warm
    const double t_batched = cached_factor_solve(batched, a, b, x, repeats);

    table.add_row()
        .cell(static_cast<long long>(blocks))
        .cell(static_cast<long long>(block_n))
        .cell(static_cast<long long>(bw))
        .cell(t_legacy, 4)
        .cell(t_cached, 4)
        .cell(t_batched, 4)
        .cell(t_legacy / t_cached, 2)
        .cell(t_legacy / t_batched, 2);
  }
  std::printf("%s\n", table.str().c_str());

  // --- 4. end to end: Newton iterations/second ------------------------------
  // The Table-I 10-species e/D/W problem (reduced masses keep the host-side
  // inner integral tractable); the §V throughput metric.
  {
    TableWriter t2("Implicit step throughput, 10-species Table-I problem (band LU)");
    t2.header({"solver pool", "Newton its", "factor (ms/it)", "solve (ms/it)", "its/s"});
    for (const unsigned w : {1u, static_cast<unsigned>(workers)}) {
      auto species = perf_species();
      auto lopts = perf_mesh_options(opts, Backend::CudaSim);
      lopts.n_workers = w;
      LandauOperator op(species, lopts);
      auto ct = measure_components(op, steps);
      const double its_per_s = ct.iterations / ct.seconds;
      t2.add_row()
          .cell(static_cast<long long>(w))
          .cell(static_cast<long long>(ct.iterations))
          .cell(1e3 * ct.factor, 3)
          .cell(1e3 * ct.solve, 3)
          .cell(its_per_s, 1);
    }
    std::printf("%s\n", t2.str().c_str());
  }

  std::printf("Notes: 'legacy serial' re-runs BandMatrix::from_csr (band-width discovery +\n"
              "reallocation + CSR scatter) every factor, the pre-refactor behavior. 'cached'\n"
              "reuses the symbolic phase: factor is a value scatter + in-place LU, solve\n"
              "reuses persistent permuted-RHS workspaces. 'batched' additionally spreads the\n"
              "independent species blocks over %d pool workers, the host mirror of the\n"
              "device batch. Batched dispatch enqueues O(workers) task objects per call\n"
              "(the thread-pool handoff), independent of matrix size; the solver data path\n"
              "itself is allocation-free as the audit shows.\n",
              workers);
  return 0;
}
