#include "landau3d/operator3d.h"

#include <algorithm>
#include <cmath>

#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "exec/cuda_sim.h"
#include "util/logging.h"
#include "util/profiler.h"
#include "util/special_math.h"

namespace landau::v3 {
namespace {

/// Reducible accumulator of the 3D inner integral: G_K (vector) and the
/// symmetric G_D stored as (xx, yy, zz, xy, xz, yz).
struct Accum3 {
  double gk[3] = {0, 0, 0};
  double gd[6] = {0, 0, 0, 0, 0, 0};
  Accum3& operator+=(const Accum3& o) {
    for (int i = 0; i < 3; ++i) gk[i] += o.gk[i];
    for (int i = 0; i < 6; ++i) gd[i] += o.gd[i];
    return *this;
  }
};

/// Source points of the inner integral, from one point on: IPData3's
/// coordinates, weights and species sums.
struct Source3 {
  const double *x, *y, *z, *w, *sum_dfx, *sum_dfy, *sum_dfz, *sum_f;
};

/// Point vi's inner integral over the first m source points: the plain
/// Landau tensor of eq. (3) against each point's species sums.
LANDAU_DEVICE inline Accum3 inner_integral3(const double vi[3], const Source3& src,
                                            std::size_t m) {
  Accum3 acc;
  for (std::size_t j = 0; j < m; ++j) {
    const double ux = vi[0] - src.x[j], uy = vi[1] - src.y[j], uz = vi[2] - src.z[j];
    const double n2 = ux * ux + uy * uy + uz * uz;
    if (n2 <= 1e-28) continue; // integrable diagonal, contributes zero
    const double inv3 = 1.0 / (n2 * std::sqrt(n2));
    // U . T_K with U = (n2 I - u u^T) inv3.
    const double tkx = src.sum_dfx[j], tky = src.sum_dfy[j], tkz = src.sum_dfz[j];
    const double udot = ux * tkx + uy * tky + uz * tkz;
    const double wj = src.w[j];
    acc.gk[0] += wj * inv3 * (n2 * tkx - ux * udot);
    acc.gk[1] += wj * inv3 * (n2 * tky - uy * udot);
    acc.gk[2] += wj * inv3 * (n2 * tkz - uz * udot);
    const double c = wj * src.sum_f[j] * inv3;
    acc.gd[0] += c * (n2 - ux * ux);
    acc.gd[1] += c * (n2 - uy * uy);
    acc.gd[2] += c * (n2 - uz * uz);
    acc.gd[3] += c * (-ux * uy);
    acc.gd[4] += c * (-ux * uz);
    acc.gd[5] += c * (-uy * uz);
  }
  return acc;
}

/// Flops per pair (tensor and accumulation); pack counts the species sums.
constexpr int kInnerFlops3 = 60;
/// Doubles streamed per source point: x, y, z, w and the four species sums.
constexpr int kInnerPointDoubles3 = 8;

/// The species-free element matrices of one cell (Algorithm 1 lines 13-23):
/// map the reduced integrals to the global basis and contract them with the
/// tabulation into K_e and D_e, stored one after the other in ce.
LANDAU_DEVICE void element_matrices_3d(const Space3D& space, std::span<const Accum3> g_per_qp,
                                       std::span<const double> wi_per_qp, std::span<double> ce) {
  const auto& tab = space.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const auto nbs = static_cast<std::size_t>(nb);
  const double jinv = 2.0 / space.h();
  LANDAU_ASSERT(ce.size() == 2 * nbs * nbs, "element-matrix buffer size mismatch");
  std::fill(ce.begin(), ce.end(), 0.0);
  for (int i = 0; i < nq; ++i) {
    const Accum3& g = g_per_qp[static_cast<std::size_t>(i)];
    const double wi = wi_per_qp[static_cast<std::size_t>(i)];
    const double kk[3] = {jinv * g.gk[0] * wi, jinv * g.gk[1] * wi, jinv * g.gk[2] * wi};
    const double j2 = jinv * jinv * wi;
    const double dd[6] = {j2 * g.gd[0], j2 * g.gd[1], j2 * g.gd[2],
                          j2 * g.gd[3], j2 * g.gd[4], j2 * g.gd[5]};
    for (int a = 0; a < nb; ++a) {
      const double ex = tab.E(i, a, 0), ey = tab.E(i, a, 1), ez = tab.E(i, a, 2);
      const double dax = ex * dd[0] + ey * dd[3] + ez * dd[4];
      const double day = ex * dd[3] + ey * dd[1] + ez * dd[5];
      const double daz = ex * dd[4] + ey * dd[5] + ez * dd[2];
      const double ka = ex * kk[0] + ey * kk[1] + ez * kk[2];
      double* krow = ce.data() + static_cast<std::size_t>(a) * nbs;
      double* drow = krow + nbs * nbs;
      for (int b = 0; b < nb; ++b) {
        krow[b] += ka * tab.B(i, b);
        drow[b] += dax * tab.E(i, b, 0) + day * tab.E(i, b, 1) + daz * tab.E(i, b, 2);
      }
    }
  }
}

} // namespace

Landau3DOperator::Landau3DOperator(SpeciesSet species, Landau3DOptions opts)
    : species_(std::move(species)), opts_(opts),
      space_(opts.radius, opts.cells_per_dim, opts.order) {
  pool_ = std::make_unique<exec::ThreadPool>(opts_.n_workers);
  const int ns = species_.size();
  LANDAU_INFO("Landau3DOperator: " << space_.n_cells() << " cells, " << space_.n_dofs()
                                   << " dofs/species, " << ns << " species");
  const la::CsrMatrix& pattern = space_.block_pattern();
  for (int s = 0; s < ns; ++s) {
    value_offsets_.push_back(static_cast<std::size_t>(s) * pattern.nnz());
    for (const double c : detail::landau_coeffs(species_[s])) coeff_.push_back(c);
  }
  mass_ = new_matrix();
  la::CsrMatrix m1 = pattern;
  space_.assemble_mass(m1);
  for (const std::size_t off : value_offsets_) std::ranges::copy(m1.values(), &mass_.values()[off]);
}

std::span<double> Landau3DOperator::block(la::Vec& v, int s) const {
  return {v.data() + static_cast<std::size_t>(s) * space_.n_dofs(), space_.n_dofs()};
}
std::span<const double> Landau3DOperator::block(const la::Vec& v, int s) const {
  return {v.data() + static_cast<std::size_t>(s) * space_.n_dofs(), space_.n_dofs()};
}

la::Vec Landau3DOperator::maxwellian_state(std::span<const double> drifts_z) const {
  return project([&](int s, double x, double y, double z) {
    const double drift =
        s < static_cast<int>(drifts_z.size()) ? drifts_z[static_cast<std::size_t>(s)] : 0.0;
    const double th = species_[s].theta();
    const double r2 = x * x + y * y + sqr(z - drift);
    return species_[s].density / std::pow(kPi * th, 1.5) * std::exp(-r2 / th);
  });
}

la::Vec Landau3DOperator::project(
    const std::function<double(int, double, double, double)>& f) const {
  la::Vec state(n_total());
  for (int s = 0; s < n_species(); ++s) {
    la::Vec b =
        space_.interpolate([&](double x, double y, double z) { return f(s, x, y, z); });
    std::copy(b.begin(), b.end(), block(state, s).begin());
  }
  return state;
}

la::CsrMatrix Landau3DOperator::new_matrix() const {
  const std::vector<const la::CsrMatrix*> blocks(static_cast<std::size_t>(n_species()),
                                                 &space_.block_pattern());
  return la::CsrMatrix::block_diagonal(blocks);
}

void Landau3DOperator::pack(const la::Vec& state) {
  const int event = Profiler::instance().event_id("landau3d:pack");
  ScopedEvent ev(event);
  const int ns = n_species();
  const std::size_t n = space_.n_ips();
  ip_.n = n;
  for (auto* v : {&ip_.x, &ip_.y, &ip_.z, &ip_.w, &ip_.sum_dfx, &ip_.sum_dfy, &ip_.sum_dfz,
                  &ip_.sum_f})
    v->assign(n, 0.0);
  space_.ip_coordinates(ip_.x, ip_.y, ip_.z, ip_.w);
  // The inner integral's species sums depend only on the source point, so
  // they are formed here once instead of in every (i, j) pair, in species
  // order.
  std::vector<double> f(n), dfx(n), dfy(n), dfz(n);
  for (int b = 0; b < ns; ++b) {
    space_.eval_at_ips(block(state, b), f, dfx, dfy, dfz);
    const double q2 = species_[b].q2();
    const double q2_over_m = species_[b].q2_over_m();
    for (std::size_t j = 0; j < n; ++j) {
      ip_.sum_dfx[j] += q2_over_m * dfx[j];
      ip_.sum_dfy[j] += q2_over_m * dfy[j];
      ip_.sum_dfz[j] += q2_over_m * dfz[j];
      ip_.sum_f[j] += q2 * f[j];
    }
  }
  Profiler::instance().add_work(event, static_cast<std::int64_t>(n) * 8 * ns,
                                static_cast<std::int64_t>(n) * (4 * ns + 4) * 8);
}

void Landau3DOperator::kernel_cpu(la::CsrMatrix& j, exec::KernelCounters* counters) const {
  namespace check = exec::check;
  const int nq = space_.tabulation().n_quad();
  const auto nb = static_cast<std::size_t>(space_.tabulation().n_basis());
  const std::size_t n = ip_.n;

  // Device-checker scope, as in core/kernel_cpu.cpp: one "block" per cell,
  // run serially (concurrent_blocks = false), so only the bounds and
  // initialization rules apply.
  check::KernelScope chk("landau3d:jacobian-cpu", /*concurrent_blocks=*/false);
  auto ref_x = chk.in(std::span<const double>(ip_.x), "ip.x");
  auto ref_y = chk.in(std::span<const double>(ip_.y), "ip.y");
  auto ref_z = chk.in(std::span<const double>(ip_.z), "ip.z");
  auto ref_w = chk.in(std::span<const double>(ip_.w), "ip.w");
  auto ref_sdfx = chk.in(std::span<const double>(ip_.sum_dfx), "ip.sum_dfx");
  auto ref_sdfy = chk.in(std::span<const double>(ip_.sum_dfy), "ip.sum_dfy");
  auto ref_sdfz = chk.in(std::span<const double>(ip_.sum_dfz), "ip.sum_dfz");
  auto ref_sf = chk.in(std::span<const double>(ip_.sum_f), "ip.sum_f");
  auto ref_out = chk.out(j.values(), "csr.values");
  check::ThreadCtx tc;
  tc.session = chk.session();
  check::checked_span<const double> gx(ref_x, &tc), gy(ref_y, &tc), gz(ref_z, &tc), gw(ref_w, &tc);
  check::checked_span<const double> gsdfx(ref_sdfx, &tc), gsdfy(ref_sdfy, &tc),
      gsdfz(ref_sdfz, &tc), gsf(ref_sf, &tc);
  check::checked_span<double> gout(ref_out, &tc);

  std::vector<Accum3> g(static_cast<std::size_t>(nq));
  std::vector<double> ce(2 * nb * nb);
  for (std::size_t cell = 0; cell < space_.n_cells(); ++cell) {
    exec::CounterScope scope(counters);
    tc.block = static_cast<int>(cell);
    const Source3 all{gx.read_ptr(0, n),    gy.read_ptr(0, n),    gz.read_ptr(0, n),
                      gw.read_ptr(0, n),    gsdfx.read_ptr(0, n), gsdfy.read_ptr(0, n),
                      gsdfz.read_ptr(0, n), gsf.read_ptr(0, n)};
    const std::size_t i0 = cell * static_cast<std::size_t>(nq);
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double vi[3] = {gx[i0 + i], gy[i0 + i], gz[i0 + i]};
      g[i] = inner_integral3(vi, all, n);
    }
    scope.flops(static_cast<std::int64_t>(nq) * static_cast<std::int64_t>(n) * kInnerFlops3);
    scope.dram(static_cast<std::int64_t>(n) * kInnerPointDoubles3 * 8);
    element_matrices_3d(space_, g, {gw.read_ptr(i0, g.size()), g.size()}, ce);
    space_.scatter().add(cell, ce, coeff_, value_offsets_, j.values(), false,
                         gout.active() ? &gout : nullptr);
  }
  chk.finish();
}

void Landau3DOperator::kernel_cuda(la::CsrMatrix& j, exec::KernelCounters* counters) const {
  namespace check = exec::check;
  const int nq = space_.tabulation().n_quad();
  const auto nb = static_cast<std::size_t>(space_.tabulation().n_basis());
  const std::size_t n = ip_.n;
  std::size_t lanes = 1;
  while (2 * lanes * static_cast<std::size_t>(nq) <= 256) lanes *= 2;
  const exec::Dim3 block{static_cast<int>(lanes), nq, 1};

  // Device-checker scope, as in core/kernel_cuda.cpp: the packed IP arrays
  // are inputs and the assembly target is written concurrently by all blocks.
  check::KernelScope chk("landau3d:jacobian-cuda");
  auto ref_x = chk.in(std::span<const double>(ip_.x), "ip.x");
  auto ref_y = chk.in(std::span<const double>(ip_.y), "ip.y");
  auto ref_z = chk.in(std::span<const double>(ip_.z), "ip.z");
  auto ref_w = chk.in(std::span<const double>(ip_.w), "ip.w");
  auto ref_sdfx = chk.in(std::span<const double>(ip_.sum_dfx), "ip.sum_dfx");
  auto ref_sdfy = chk.in(std::span<const double>(ip_.sum_dfy), "ip.sum_dfy");
  auto ref_sdfz = chk.in(std::span<const double>(ip_.sum_dfz), "ip.sum_dfz");
  auto ref_sf = chk.in(std::span<const double>(ip_.sum_f), "ip.sum_f");
  auto ref_out = LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  exec::launch(
      *pool_, static_cast<int>(space_.n_cells()), block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        exec::CounterScope scope(blk.counters());
        const auto cell = static_cast<std::size_t>(blk.block_idx());
        auto gx = blk.view(ref_x);
        auto gy = blk.view(ref_y);
        auto gz = blk.view(ref_z);
        auto gw = blk.view(ref_w);
        auto gsdfx = blk.view(ref_sdfx);
        auto gsdfy = blk.view(ref_sdfy);
        auto gsdfz = blk.view(ref_sdfz);
        auto gsf = blk.view(ref_sf);
        auto gout = blk.view(ref_out);
        auto regs = blk.registers<Accum3>("inner.acc");
        // Each x-lane integrates a contiguous share of the source points,
        // read through one checked range per array.
        blk.threads([&](exec::ThreadIdx t) {
          const std::size_t gi =
              cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(t.y);
          const double vi[3] = {gx[gi], gy[gi], gz[gi]};
          const std::size_t j0 = n * static_cast<std::size_t>(t.x) / lanes;
          const std::size_t m = n * static_cast<std::size_t>(t.x + 1) / lanes - j0;
          const Source3 share{gx.read_ptr(j0, m),    gy.read_ptr(j0, m),    gz.read_ptr(j0, m),
                              gw.read_ptr(j0, m),    gsdfx.read_ptr(j0, m), gsdfy.read_ptr(j0, m),
                              gsdfz.read_ptr(j0, m), gsf.read_ptr(j0, m)};
          *regs.write_ptr(static_cast<std::size_t>(t.flat)) = inner_integral3(vi, share, m);
        });
        blk.shfl_xor_sum_x(regs);
        scope.flops(static_cast<std::int64_t>(nq) * static_cast<std::int64_t>(n) * kInnerFlops3);
        scope.dram(static_cast<std::int64_t>(n) * kInnerPointDoubles3 * 8);

        auto g = blk.shared<Accum3>(static_cast<std::size_t>(nq), "epi.g");
        blk.threads([&](exec::ThreadIdx t) {
          if (t.x == 0) g[static_cast<std::size_t>(t.y)] = regs[static_cast<std::size_t>(t.flat)];
        });
        blk.sync();
        // K_e and D_e once per cell; each species block ck K_e + cd D_e is
        // scattered with atomics (§III-F).
        auto ce = blk.shared<double>(2 * nb * nb, "epi.ce");
        element_matrices_3d(space_, {g.read_all(), g.size()},
                            {gw.read_ptr(cell * g.size(), g.size()), g.size()},
                            {ce.write_ptr(0, ce.size()), ce.size()});
        space_.scatter().add(cell, {ce.read_all(), ce.size()}, coeff_, value_offsets_,
                             j.values(), true, gout.active() ? &gout : nullptr);
      },
      counters, &chk, "landau3d:jacobian-cuda");
  chk.finish();
}

void Landau3DOperator::add_collision(la::CsrMatrix& j, exec::KernelCounters* counters) {
  LANDAU_ASSERT(ip_.n > 0, "pack() a state before assembling the collision operator");
  space_.scatter().check_layout(j, n_total(), mass_.nnz(), value_offsets_);
  ScopedEvent ev("landau3d:matrix");
  if (opts_.backend == Backend::Cpu)
    kernel_cpu(j, counters);
  else
    kernel_cuda(j, counters);
}

void Landau3DOperator::add_advection(la::CsrMatrix& j, double e_z) const {
  space_.scatter().check_layout(j, n_total(), mass_.nnz(), value_offsets_);
  if (fp::exact_eq(e_z, 0.0)) return;
  const auto& tab = space_.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const double jinv = 2.0 / space_.h();
  const double hh = 0.5 * space_.h();
  const double detj = hh * hh * hh;
  // One A_e per cell; the species enter only as (q/m) E_z, at the scatter.
  std::vector<double> qm_ez;
  for (int s = 0; s < n_species(); ++s)
    qm_ez.push_back((species_[s].charge / species_[s].mass) * e_z);
  std::vector<double> ke(static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb));
  for (std::size_t c = 0; c < space_.n_cells(); ++c) {
    std::fill(ke.begin(), ke.end(), 0.0);
    for (int q = 0; q < nq; ++q) {
      const double wq = tab.qw(q) * detj;
      for (int a = 0; a < nb; ++a)
        for (int b = 0; b < nb; ++b)
          ke[static_cast<std::size_t>(a * nb + b)] += wq * tab.B(q, a) * tab.E(q, b, 2) * jinv;
    }
    space_.scatter().add(c, ke, qm_ez, value_offsets_, j.values(), false);
  }
}

Landau3DOperator::Moments Landau3DOperator::moments(const la::Vec& state, int s) const {
  auto b = block(state, s);
  Moments m;
  const double mass = species_[s].mass;
  m.density = space_.moment(b, [](double, double, double) { return 1.0; });
  m.momentum[0] = mass * space_.moment(b, [](double x, double, double) { return x; });
  m.momentum[1] = mass * space_.moment(b, [](double, double y, double) { return y; });
  m.momentum[2] = mass * space_.moment(b, [](double, double, double z) { return z; });
  m.energy = 0.5 * mass *
             space_.moment(b, [](double x, double y, double z) { return x * x + y * y + z * z; });
  return m;
}

} // namespace landau::v3
