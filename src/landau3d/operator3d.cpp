#include "landau3d/operator3d.h"

#include <algorithm>
#include <cmath>

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

/// One (i, j) contribution: the plain Landau tensor of eq. (3).
LANDAU_DEVICE inline void inner_point3(const double vi[3], double xj, double yj, double zj, double wj,
                         const double* f_j, const double* dfx_j, const double* dfy_j,
                         const double* dfz_j, std::size_t stride, int ns, const double* q2,
                         const double* q2m, Accum3* acc) {
  const double ux = vi[0] - xj, uy = vi[1] - yj, uz = vi[2] - zj;
  const double n2 = ux * ux + uy * uy + uz * uz;
  if (n2 <= 1e-28) return; // integrable diagonal, contributes zero
  const double inv3 = 1.0 / (n2 * std::sqrt(n2));

  double tkx = 0, tky = 0, tkz = 0, td = 0;
  for (int b = 0; b < ns; ++b) {
    const std::size_t off = static_cast<std::size_t>(b) * stride;
    tkx += q2m[b] * dfx_j[off];
    tky += q2m[b] * dfy_j[off];
    tkz += q2m[b] * dfz_j[off];
    td += q2[b] * f_j[off];
  }
  // U . T_K with U = (n2 I - u u^T) inv3.
  const double udot = ux * tkx + uy * tky + uz * tkz;
  acc->gk[0] += wj * inv3 * (n2 * tkx - ux * udot);
  acc->gk[1] += wj * inv3 * (n2 * tky - uy * udot);
  acc->gk[2] += wj * inv3 * (n2 * tkz - uz * udot);
  const double c = wj * td * inv3;
  acc->gd[0] += c * (n2 - ux * ux);
  acc->gd[1] += c * (n2 - uy * uy);
  acc->gd[2] += c * (n2 - uz * uz);
  acc->gd[3] += c * (-ux * uy);
  acc->gd[4] += c * (-ux * uz);
  acc->gd[5] += c * (-uy * uz);
}

constexpr int kInnerFlops3 = 60;

} // namespace

void IPData3::resize(int ns, std::size_t npts) {
  n_species = ns;
  n = npts;
  x.assign(n, 0.0);
  y.assign(n, 0.0);
  z.assign(n, 0.0);
  w.assign(n, 0.0);
  const std::size_t total = static_cast<std::size_t>(ns) * n;
  f.assign(total, 0.0);
  dfx.assign(total, 0.0);
  dfy.assign(total, 0.0);
  dfz.assign(total, 0.0);
}

Landau3DOperator::Landau3DOperator(SpeciesSet species, Landau3DOptions opts)
    : species_(std::move(species)), opts_(opts),
      space_(opts.radius, opts.cells_per_dim, opts.order) {
  pool_ = std::make_unique<exec::ThreadPool>(opts_.n_workers);
  const int ns = species_.size();
  q2_.resize(static_cast<std::size_t>(ns));
  q2_over_m_.resize(static_cast<std::size_t>(ns));
  q2_over_m2_.resize(static_cast<std::size_t>(ns));
  for (int s = 0; s < ns; ++s) {
    q2_[static_cast<std::size_t>(s)] = species_[s].q2();
    q2_over_m_[static_cast<std::size_t>(s)] = species_[s].q2_over_m();
    q2_over_m2_[static_cast<std::size_t>(s)] = species_[s].q2_over_m2();
  }
  LANDAU_INFO("Landau3DOperator: " << space_.n_cells() << " cells, " << space_.n_dofs()
                                   << " dofs/species, " << ns << " species");
  mass_ = new_matrix();
  {
    la::CsrMatrix m1(space_.sparsity());
    space_.assemble_mass(m1);
    auto rowptr = m1.row_offsets();
    auto colind = m1.col_indices();
    for (int s = 0; s < ns; ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * space_.n_dofs();
      for (std::size_t i = 0; i < m1.rows(); ++i)
        for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
          mass_.add(off + i, off + static_cast<std::size_t>(colind[k]), m1.values()[k]);
    }
  }
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
  const std::size_t nf = space_.n_dofs();
  la::SparsityPattern pattern(n_total(), n_total());
  for (std::size_t c = 0; c < space_.n_cells(); ++c) {
    const auto cd = space_.cell_dofs(c);
    for (int s = 0; s < n_species(); ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * nf;
      for (auto di : cd)
        for (auto dj : cd)
          pattern.add(off + static_cast<std::size_t>(di), off + static_cast<std::size_t>(dj));
    }
  }
  pattern.compress();
  return la::CsrMatrix(pattern);
}

void Landau3DOperator::pack(const la::Vec& state) {
  ScopedEvent ev("landau3d:pack");
  const int ns = n_species();
  ip_.resize(ns, space_.n_ips());
  space_.ip_coordinates(ip_.x, ip_.y, ip_.z, ip_.w);
  for (int s = 0; s < ns; ++s) {
    const std::size_t off = static_cast<std::size_t>(s) * ip_.n;
    la::Vec b(std::vector<double>(block(state, s).begin(), block(state, s).end()));
    space_.eval_at_ips(b.span(), {ip_.f.data() + off, ip_.n}, {ip_.dfx.data() + off, ip_.n},
                       {ip_.dfy.data() + off, ip_.n}, {ip_.dfz.data() + off, ip_.n});
  }
}

namespace {

/// Shared element epilogue: scale the reduced integrals per species, map to
/// the global basis and contract with the tabulation.
LANDAU_DEVICE void element_matrices_3d(const Space3D& space, std::span<const Accum3> g_per_qp,
                                       std::span<const double> wi_per_qp, int ns,
                                       const double* q2m, const double* q2m2, double nu0,
                                       std::span<double> ce) {
  const auto& tab = space.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const double jinv = 2.0 / space.h();
  LANDAU_ASSERT(ce.size() == static_cast<std::size_t>(ns) * nb * nb,
                "element-matrix buffer size mismatch");
  std::fill(ce.begin(), ce.end(), 0.0);
  for (int a_sp = 0; a_sp < ns; ++a_sp) {
    const double ck = nu0 * q2m[a_sp];
    const double cd = -nu0 * q2m2[a_sp];
    for (int i = 0; i < nq; ++i) {
      const Accum3& g = g_per_qp[static_cast<std::size_t>(i)];
      const double wi = wi_per_qp[static_cast<std::size_t>(i)];
      const double kk[3] = {jinv * ck * g.gk[0] * wi, jinv * ck * g.gk[1] * wi,
                            jinv * ck * g.gk[2] * wi};
      const double j2 = jinv * jinv * cd * wi;
      const double dd[6] = {j2 * g.gd[0], j2 * g.gd[1], j2 * g.gd[2],
                            j2 * g.gd[3], j2 * g.gd[4], j2 * g.gd[5]};
      for (int a = 0; a < nb; ++a) {
        const double ex = tab.E(i, a, 0), ey = tab.E(i, a, 1), ez = tab.E(i, a, 2);
        const double dax = ex * dd[0] + ey * dd[3] + ez * dd[4];
        const double day = ex * dd[3] + ey * dd[1] + ez * dd[5];
        const double daz = ex * dd[4] + ey * dd[5] + ez * dd[2];
        const double ka = ex * kk[0] + ey * kk[1] + ez * kk[2];
        double* row = ce.data() + (static_cast<std::size_t>(a_sp) * nb + a) * nb;
        for (int b = 0; b < nb; ++b)
          row[b] += dax * tab.E(i, b, 0) + day * tab.E(i, b, 1) + daz * tab.E(i, b, 2) +
                    ka * tab.B(i, b);
      }
    }
  }
}

} // namespace

void Landau3DOperator::kernel_cpu(la::CsrMatrix& j, exec::KernelCounters* counters) const {
  const auto& tab = space_.tabulation();
  const int nq = tab.n_quad();
  const int ns = n_species();
  const std::size_t n = ip_.n;
  std::vector<Accum3> g(static_cast<std::size_t>(nq));
  std::vector<double> wi(static_cast<std::size_t>(nq));
  std::vector<double> ce(static_cast<std::size_t>(ns) * tab.n_basis() * tab.n_basis());
  for (std::size_t cell = 0; cell < space_.n_cells(); ++cell) {
    exec::CounterScope scope(counters);
    for (int i = 0; i < nq; ++i) {
      const std::size_t gi = cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(i);
      const double vi[3] = {ip_.x[gi], ip_.y[gi], ip_.z[gi]};
      g[static_cast<std::size_t>(i)] = Accum3{};
      for (std::size_t jj = 0; jj < n; ++jj)
        inner_point3(vi, ip_.x[jj], ip_.y[jj], ip_.z[jj], ip_.w[jj], &ip_.f[jj], &ip_.dfx[jj],
                     &ip_.dfy[jj], &ip_.dfz[jj], n, ns, q2_.data(), q2_over_m_.data(),
                     &g[static_cast<std::size_t>(i)]);
      wi[static_cast<std::size_t>(i)] = ip_.w[gi];
    }
    scope.flops(static_cast<std::int64_t>(nq) * static_cast<std::int64_t>(n) *
                (kInnerFlops3 + 8 * ns));
    scope.dram(static_cast<std::int64_t>(n) * (4 + 4 * ns) * 8);
    element_matrices_3d(space_, g, wi, ns, q2_over_m_.data(), q2_over_m2_.data(), 1.0, ce);
    for (int s = 0; s < ns; ++s)
      space_.add_element_matrix(
          cell,
          {ce.data() + static_cast<std::size_t>(s) * tab.n_basis() * tab.n_basis(),
           static_cast<std::size_t>(tab.n_basis()) * static_cast<std::size_t>(tab.n_basis())},
          j, static_cast<std::size_t>(s) * space_.n_dofs(), false);
  }
}

void Landau3DOperator::kernel_cuda(la::CsrMatrix& j, exec::KernelCounters* counters) const {
  const auto& tab = space_.tabulation();
  const int nq = tab.n_quad();
  const int ns = n_species();
  const std::size_t n = ip_.n;
  int lanes = 1;
  while (2 * lanes * nq <= 256) lanes *= 2;
  const exec::Dim3 block{lanes, nq, 1};

  const int nb = tab.n_basis();
  exec::launch(
      *pool_, static_cast<int>(space_.n_cells()), block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        exec::CounterScope scope(blk.counters());
        const auto cell = static_cast<std::size_t>(blk.block_idx());
        auto regs = blk.registers<Accum3>("inner.acc");
        blk.threads([&](exec::ThreadIdx t) {
          const std::size_t gi =
              cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(t.y);
          const double vi[3] = {ip_.x[gi], ip_.y[gi], ip_.z[gi]};
          for (std::size_t jj = static_cast<std::size_t>(t.x); jj < n;
               jj += static_cast<std::size_t>(blk.block_dim().x))
            inner_point3(vi, ip_.x[jj], ip_.y[jj], ip_.z[jj], ip_.w[jj], &ip_.f[jj],
                         &ip_.dfx[jj], &ip_.dfy[jj], &ip_.dfz[jj], n, ns, q2_.data(),
                         q2_over_m_.data(), regs.rw_ptr(static_cast<std::size_t>(t.flat)));
        });
        blk.shfl_xor_sum_x(regs);
        scope.flops(static_cast<std::int64_t>(nq) * static_cast<std::int64_t>(n) *
                    (kInnerFlops3 + 8 * ns));
        scope.dram(static_cast<std::int64_t>(n) * (4 + 4 * ns) * 8);

        auto g = blk.shared<Accum3>(static_cast<std::size_t>(nq), "epi.g");
        auto wi = blk.shared<double>(static_cast<std::size_t>(nq), "epi.wi");
        blk.threads([&](exec::ThreadIdx t) {
          if (t.x == 0) {
            g[static_cast<std::size_t>(t.y)] = regs[static_cast<std::size_t>(t.flat)];
            wi[static_cast<std::size_t>(t.y)] =
                ip_.w[cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(t.y)];
          }
        });
        blk.sync();
        auto ce = blk.shared<double>(static_cast<std::size_t>(ns * nb * nb), "epi.ce");
        element_matrices_3d(space_, g.raw(), wi.raw(), ns, q2_over_m_.data(),
                            q2_over_m2_.data(), 1.0, ce.raw());
        for (int s = 0; s < ns; ++s)
          space_.add_element_matrix(
              cell,
              {ce.raw().data() + static_cast<std::size_t>(s * nb) * nb,
               static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb)},
              j, static_cast<std::size_t>(s) * space_.n_dofs(), opts_.atomic_assembly);
      },
      counters, nullptr, "landau3d:jacobian-cuda");
}

void Landau3DOperator::add_collision(la::CsrMatrix& j, exec::KernelCounters* counters) {
  LANDAU_ASSERT(ip_.n > 0, "pack() a state before assembling the collision operator");
  ScopedEvent ev("landau3d:matrix");
  if (opts_.backend == Backend::Cpu)
    kernel_cpu(j, counters);
  else
    kernel_cuda(j, counters);
}

void Landau3DOperator::add_advection(la::CsrMatrix& j, double e_z) const {
  if (fp::exact_eq(e_z, 0.0)) return;
  const auto& tab = space_.tabulation();
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const double jinv = 2.0 / space_.h();
  const double hh = 0.5 * space_.h();
  const double detj = hh * hh * hh;
  std::vector<double> ke(static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb));
  for (std::size_t c = 0; c < space_.n_cells(); ++c) {
    std::fill(ke.begin(), ke.end(), 0.0);
    for (int q = 0; q < nq; ++q) {
      const double wq = tab.qw(q) * detj;
      for (int a = 0; a < nb; ++a)
        for (int b = 0; b < nb; ++b)
          ke[static_cast<std::size_t>(a * nb + b)] += wq * tab.B(q, a) * tab.E(q, b, 2) * jinv;
    }
    for (int s = 0; s < n_species(); ++s) {
      const double coef = (species_[s].charge / species_[s].mass) * e_z;
      std::vector<double> scaled(ke.size());
      for (std::size_t k = 0; k < ke.size(); ++k) scaled[k] = coef * ke[k];
      space_.add_element_matrix(c, scaled, j, static_cast<std::size_t>(s) * space_.n_dofs(),
                                false);
    }
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
