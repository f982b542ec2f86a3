#include "core/operator.h"

#include <algorithm>
#include <numeric>

#include "core/advection.h"
#include "core/inner_tile.h"
#include "exec/check.h"
#include "util/logging.h"
#include "util/profiler.h"
#include "util/robustness.h"

namespace landau {
LandauOptions LandauOptions::from_options(Options& opts) {
  LandauOptions o;
  o.order = opts.get<int>("landau_order", o.order, "Qk element order");
  o.radius = opts.get<double>("landau_radius", o.radius, "velocity domain half-size (v0 units)");
  o.base_levels = opts.get<int>("landau_base_levels", o.base_levels, "uniform refinements");
  o.cells_per_thermal = opts.get<double>("landau_cells_per_thermal", o.cells_per_thermal,
                                         "AMR resolution target per thermal speed");
  o.zone_extent =
      opts.get<double>("landau_zone_extent", o.zone_extent, "AMR zone size (thermal radii)");
  o.max_levels = opts.get<int>("landau_max_levels", o.max_levels, "AMR depth cap");
  const std::string be =
      opts.get<std::string>("landau_backend", "cuda", "kernel back-end: cpu|cuda|kokkos");
  if (be == "cpu")
    o.backend = Backend::Cpu;
  else if (be == "kokkos")
    o.backend = Backend::KokkosSim;
  else
    o.backend = Backend::CudaSim;
  o.n_workers = static_cast<unsigned>(opts.get<int>("landau_workers", 0, "emulated SM workers"));
  o.atomic_assembly = opts.get<bool>("landau_atomic_assembly", true, "GPU-style atomic assembly");
  // Device memory-model checker switches (also reachable via the
  // LANDAU_CHECK_DEVICE environment variable; the command line wins).
  auto& chk = exec::check::options();
  chk.enabled =
      opts.get<bool>("landau_check_device", chk.enabled, "device memory-model checker");
  chk.strict = opts.get<bool>("landau_check_strict", chk.strict,
                              "checker strict mode: any report throws");
  chk.shuffle = opts.get<bool>("landau_check_shuffle", chk.shuffle,
                               "double-run launches with shuffled block order and diff");
  if (chk.strict || chk.shuffle) chk.enabled = true;
  return o;
}

LandauOperator::LandauOperator(SpeciesSet species, LandauOptions opts, double cluster_ratio)
    : species_(std::move(species)), opts_(std::move(opts)),
      pool_(std::make_unique<exec::ThreadPool>(opts_.n_workers)) {
  // --- cluster species by thermal speed, fastest first (§III-H) -----------
  const int ns = n_species();
  std::vector<int> order(static_cast<std::size_t>(ns));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return species_[a].thermal_speed() > species_[b].thermal_speed();
  });
  for (int s : order) {
    const double vth = species_[s].thermal_speed();
    auto it = std::find_if(grids_.begin(), grids_.end(), [&](const GridBlock& g) {
      return species_[g.species.front()].thermal_speed() / vth <= cluster_ratio;
    });
    if (it == grids_.end()) it = grids_.emplace(grids_.end());
    it->species.push_back(s);
  }

  // --- one mesh per cluster, scaled to its fastest member ------------------
  // The fastest grid keeps opts.radius exactly (vmax / vfast == 1) and the
  // tail zones; slower grids shrink with their thermal speed. No grid is
  // added from here on: each FE space points at its grid's forest.
  const double vfast = species_[grids_.front().species.front()].thermal_speed();
  species_grid_.assign(static_cast<std::size_t>(ns), 0);
  for (std::size_t g = 0; g < grids_.size(); ++g) {
    GridBlock& gb = grids_[g];
    const double vmax = species_[gb.species.front()].thermal_speed();
    std::sort(gb.species.begin(), gb.species.end());
    gb.radius = opts_.radius * (vmax / vfast);
    mesh::VelocityMeshSpec spec;
    spec.radius = gb.radius;
    spec.base_levels = opts_.base_levels;
    spec.cells_per_thermal = opts_.cells_per_thermal;
    spec.zone_extent = opts_.zone_extent;
    spec.max_levels = opts_.max_levels;
    if (g == 0) spec.tail_zones = opts_.tail_zones;
    for (int s : gb.species) {
      spec.thermal_speeds.push_back(species_[s].thermal_speed());
      species_grid_[static_cast<std::size_t>(s)] = static_cast<int>(g);
    }
    gb.forest = mesh::build_velocity_mesh(spec);
    gb.fes = std::make_unique<fem::FESpace>(gb.forest, opts_.order);
    gb.ip_offset = ip_total_;
    ip_total_ += gb.fes->n_ips();
  }

  // --- state layout: species blocks in species order, in the state vector
  // and in the values of every matrix -----------------------------------------
  std::size_t nnz = 0;
  for (int s = 0; s < ns; ++s) {
    species_offsets_.push_back(n_total_);
    value_offsets_.push_back(nnz);
    n_total_ += n_dofs(s);
    nnz += space_of(s).block_pattern().nnz();
  }
  LANDAU_INFO("LandauOperator: " << grids_.size() << " grid(s), " << ip_total_ << " IPs, "
                                 << n_total_ << " equations, " << ns << " species, backend "
                                 << backend_name(opts_.backend));

  // Host-assembled mass matrix: one per grid, copied into each species block.
  mass_ = new_matrix();
  for (const auto& g : grids_) {
    la::CsrMatrix m1 = g.fes->block_pattern();
    g.fes->assemble_mass(m1);
    for (int s : g.species)
      std::ranges::copy(m1.values(), &mass_.values()[value_offsets_[static_cast<std::size_t>(s)]]);
  }
}

const GridBlock& LandauOperator::only_grid() const {
  LANDAU_ASSERT(grids_.size() == 1,
                "this operator has " << grids_.size() << " grids: use grid(g) and n_dofs(s)");
  return grids_.front();
}

std::span<double> LandauOperator::block(la::Vec& v, int s) const {
  LANDAU_ASSERT(v.size() == n_total_, "state vector size mismatch");
  return {v.data() + species_offsets_[static_cast<std::size_t>(s)], n_dofs(s)};
}

std::span<const double> LandauOperator::block(const la::Vec& v, int s) const {
  LANDAU_ASSERT(v.size() == n_total_, "state vector size mismatch");
  return {v.data() + species_offsets_[static_cast<std::size_t>(s)], n_dofs(s)};
}

la::Vec LandauOperator::maxwellian_state(std::span<const double> drifts_z) const {
  return project([&](int s, double r, double z) {
    const double drift = s < static_cast<int>(drifts_z.size()) ? drifts_z[static_cast<std::size_t>(s)] : 0.0;
    return species_[s].maxwellian(r, z, drift);
  });
}

la::Vec LandauOperator::project(const std::function<double(int, double, double)>& f) const {
  la::Vec state(n_total_);
  for (int s = 0; s < n_species(); ++s) {
    la::Vec b = space_of(s).interpolate([&](double r, double z) { return f(s, r, z); });
    std::copy(b.begin(), b.end(), block(state, s).begin());
  }
  return state;
}

la::CsrMatrix LandauOperator::new_matrix() const {
  std::vector<const la::CsrMatrix*> blocks;
  for (int s = 0; s < n_species(); ++s) blocks.push_back(&space_of(s).block_pattern());
  return la::CsrMatrix::block_diagonal(blocks);
}

void LandauOperator::pack(const la::Vec& state) {
  const int event = Profiler::instance().event_id("landau:pack");
  ScopedEvent ev(event);
  const int ns = n_species();
  ip_.resize(ns, ip_total_);
  for (const auto& g : grids_) {
    const std::size_t n = g.fes->n_ips();
    const std::size_t off = g.ip_offset;
    g.fes->ip_coordinates({ip_.r.data() + off, n}, {ip_.z.data() + off, n},
                          {ip_.w.data() + off, n});
    // Fold the cylindrical factor r into the packed weight (dvbar rbar in
    // eqs. 7-8; the same weight serves the outer integral's dv r).
    for (std::size_t j = off; j < off + n; ++j) ip_.w[j] *= ip_.r[j];
    // Species on this grid evaluate; all others stay zero here, so the
    // flattened inner loop integrates exactly the union of the grids.
    for (int s : g.species) {
      const std::size_t soff = static_cast<std::size_t>(s) * ip_total_ + off;
      g.fes->eval_at_ips(block(state, s), {ip_.f.data() + soff, n}, {ip_.dfr.data() + soff, n},
                         {ip_.dfz.data() + soff, n});
    }
  }
  // The inner integral's species sums depend only on the source point, so
  // they are formed here once instead of in every (i, j) pair, in species
  // order.
  for (int b = 0; b < ns; ++b) {
    const double q2 = species_[b].q2();
    const double q2_over_m = species_[b].q2_over_m();
    const std::size_t soff = static_cast<std::size_t>(b) * ip_total_;
    for (std::size_t j = 0; j < ip_total_; ++j) {
      ip_.sum_dfr[j] += q2_over_m * ip_.dfr[soff + j];
      ip_.sum_dfz[j] += q2_over_m * ip_.dfz[soff + j];
      ip_.sum_f[j] += q2 * ip_.f[soff + j];
    }
  }
  Profiler::instance().add_work(event, static_cast<std::int64_t>(ip_total_) * 6 * ns,
                                static_cast<std::int64_t>(ip_total_) * (3 * ns + 3) * 8);
  if (robustness().paranoid) {
    // Operator-boundary audit: the packed values/gradients are the inputs the
    // Landau coefficients D(f), K(f) are integrated from — a NaN here poisons
    // every entry of the assembled matrix.
    LANDAU_ASSERT(la::all_finite(ip_.f) && la::all_finite(ip_.dfr) && la::all_finite(ip_.dfz),
                  "paranoid: non-finite packed IP data (state values/gradients)");
  }
}

JacobianContext LandauOperator::make_context(int g) const {
  // With these and each block's row offsets (ElementScatter::check_layout),
  // a matrix has the layout of new_matrix().
  const GridBlock& gb = grid(g);
  JacobianContext ctx;
  ctx.init(*gb.fes, species_, ip_);
  ctx.atomic_assembly = opts_.atomic_assembly;
  ctx.ip_offset = gb.ip_offset;
  ctx.grid_species = gb.species;
  ctx.block_offsets.clear();
  for (const int s : gb.species)
    ctx.block_offsets.push_back(value_offsets_[static_cast<std::size_t>(s)]);
  ctx.matrix_rows = n_total_;
  ctx.matrix_nnz = mass_.nnz();
  if (!tables_.empty())
    ctx.tensor = {tables_[static_cast<std::size_t>(g)].get(),
                  gb.fes->n_ips() * (ip_.n_padded() / kIpChunk)};
  return ctx;
}

void LandauOperator::build_pair_tables() {
  // The coordinates are the mesh's, the same in every pack.
  const std::size_t n_chunks = ip_.n_padded() / kIpChunk;
  const std::size_t bytes = ip_total_ * n_chunks * sizeof(TensorChunk);
  if (opts_.backend == Backend::Cpu || !tables_.empty() || bytes > kPairTableBudgetBytes) return;
  const int event = Profiler::instance().event_id("landau:tensor");
  ScopedEvent ev(event, {{"pairs", ip_total_ * ip_.n_padded()}});
  // Every grid's table or none: make_context indexes tables_ by grid.
  std::vector<std::unique_ptr<TensorChunk[]>> tables;
  for (const auto& g : grids_) {
    // Every entry is written below, so the allocation is not zero-filled.
    auto table = std::make_unique_for_overwrite<TensorChunk[]>(g.fes->n_ips() * n_chunks);
    pool_->parallel_for(g.fes->n_ips(), [&](std::size_t i) {
      const std::size_t gi = g.ip_offset + i;
      for (std::size_t c = 0; c < n_chunks; ++c)
        detail::tensor_chunk(ip_.r[gi], ip_.z[gi], &ip_.r[c * kIpChunk], &ip_.z[c * kIpChunk],
                             &table[i * n_chunks + c]);
    });
    tables.push_back(std::move(table));
  }
  tables_ = std::move(tables);
  // The tensor's flops on the real pairs; the traffic is the table written.
  Profiler::instance().add_work(
      event, static_cast<std::int64_t>(ip_total_ * ip_.n) * kLandauTensor2DFlops,
      static_cast<std::int64_t>(bytes));
}

void LandauOperator::add_collision(la::CsrMatrix& j, exec::KernelCounters* counters) {
  LANDAU_ASSERT(ip_.n > 0, "pack() a state before assembling the collision operator");
  ScopedEvent ev("landau:matrix");
  build_pair_tables();
  for (int g = 0; g < n_grids(); ++g)
    assemble_landau_jacobian(opts_.backend, *pool_, make_context(g), j, counters);
  if (robustness().paranoid)
    LANDAU_ASSERT(j.all_finite(),
                  "paranoid: non-finite entries in the assembled collision matrix");
}

void LandauOperator::add_advection(la::CsrMatrix& j, double e_z) const {
  ScopedEvent ev("landau:advection");
  for (int g = 0; g < n_grids(); ++g) assemble_advection(make_context(g), e_z, j);
}

void LandauOperator::add_mass_kernel(la::CsrMatrix& j, double shift,
                                     exec::KernelCounters* counters) {
  LANDAU_ASSERT(ip_.n > 0, "pack() a state before the mass kernel (weights live in IP data)");
  for (int g = 0; g < n_grids(); ++g)
    assemble_mass_kernel(*pool_, make_context(g), shift, j, counters);
}

LandauOperator::Moments LandauOperator::moments(const la::Vec& state, int s) const {
  auto b = block(state, s);
  const auto& fes = space_of(s);
  Moments m;
  m.density = fes.moment(b, [](double, double) { return 1.0; });
  m.momentum_z = species_[s].mass * fes.moment(b, [](double, double z) { return z; });
  m.energy =
      0.5 * species_[s].mass * fes.moment(b, [](double r, double z) { return r * r + z * z; });
  return m;
}

double LandauOperator::current_z(const la::Vec& state) const {
  double j = 0.0;
  for (int s = 0; s < n_species(); ++s)
    j += species_[s].charge * space_of(s).moment(block(state, s), [](double, double z) { return z; });
  return j;
}

double LandauOperator::electron_temperature(const la::Vec& state) const {
  auto b = block(state, 0);
  const auto& fes = space_of(0);
  const double n = fes.moment(b, [](double, double) { return 1.0; });
  if (n <= 0) return 0.0;
  const double uz = fes.moment(b, [](double, double z) { return z; }) / n;
  const double v2 = fes.moment(b, [](double r, double z) { return r * r + z * z; }) / n;
  // T/T_e0 = (4/pi) m (2/3) <(v-u)^2> with m = 1 for electrons.
  return (4.0 / kPi) * species_[0].mass * (2.0 / 3.0) * (v2 - uz * uz);
}

double LandauOperator::electron_density(const la::Vec& state) const {
  return space_of(0).moment(block(state, 0), [](double, double) { return 1.0; });
}

} // namespace landau
