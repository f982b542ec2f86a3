// Table I: cost of the Landau operator for the 10-species e/D/W plasma as a
// function of the number of velocity grids (§III-H).
//
// The three configurations are *real operators* of this library:
//   1 grid  — LandauOperator's default: all species share one wide-range mesh,
//   3 grids — clustering ratio 2, the paper's rule (species within 2x
//             thermal speed share a grid): e | D | 8 W,
//   10 grids — clustering ratio 0.99: one grid per species.
// Counted quantities: total integration points N, Landau tensor evaluations
// N^2, and equations n. Paper: N = 1184/960/3200, n = 8050/1930/1930.

#include <cstdio>

#include "common.h"
#include "core/operator.h"
#include "util/options.h"
#include "util/table_writer.h"

using namespace landau;

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const bool full = opts.get<bool>("full_mass", true, "physical W/D masses");
  LandauOptions lopts;
  lopts.order = 3;
  lopts.radius = 5.0 * std::sqrt(kPi / 4.0); // five thermal radii of the electrons
  lopts.base_levels = 1;
  lopts.cells_per_thermal = opts.get<double>("cells_per_thermal", 0.45, "AMR target");
  lopts.max_levels = opts.get<int>("max_levels", 14, "AMR depth cap");
  lopts.n_workers = 0;
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  auto species = SpeciesSet::tungsten_plasma();
  if (!full) {
    species[1].mass = 100.0;
    for (int s = 2; s < species.size(); ++s) species[s].mass = 1600.0;
  }
  std::printf("thermal speeds (v0): e %.4f, D %.4f, W %.5f\n", species[0].thermal_speed(),
              species[1].thermal_speed(), species[2].thermal_speed());

  TableWriter table("Table I: Landau operator cost for 10 species vs number of grids");
  table.header({"# grids", "N int. points", "# Landau tensors (N^2)", "n equations"});
  auto n2 = [](std::size_t n) {
    return static_cast<long long>(n) * static_cast<long long>(n);
  };

  bench::BenchReport report("table1_grids");
  {
    LandauOperator one(species, lopts);
    table.add_row().cell(1).cell(static_cast<long long>(one.space().n_ips()))
        .cell(n2(one.space().n_ips())).cell(static_cast<long long>(one.n_total()));
    std::printf("1 grid: %zu cells\n", one.forest().n_leaves());
    report.metric("grids1.n_ips", static_cast<double>(one.space().n_ips()), "points", "none");
    report.metric("grids1.n_equations", static_cast<double>(one.n_total()), "equations", "none");
  }
  {
    LandauOperator mg(species, lopts, 2.0); // the paper's clustering
    table.add_row().cell(mg.n_grids()).cell(static_cast<long long>(mg.n_ips_total()))
        .cell(n2(mg.n_ips_total())).cell(static_cast<long long>(mg.n_total()));
    std::printf("%d grids: clusters", mg.n_grids());
    for (int g = 0; g < mg.n_grids(); ++g)
      std::printf(" |g%d: %zu species, %zu cells", g, mg.grid(g).species.size(),
                  mg.grid(g).forest.n_leaves());
    std::printf("\n");
    report.metric("grids3.n_ips", static_cast<double>(mg.n_ips_total()), "points", "none");
    report.metric("grids3.n_equations", static_cast<double>(mg.n_total()), "equations", "none");
  }
  {
    LandauOperator pg(species, lopts, 0.99); // one grid per species
    table.add_row().cell(pg.n_grids()).cell(static_cast<long long>(pg.n_ips_total()))
        .cell(n2(pg.n_ips_total())).cell(static_cast<long long>(pg.n_total()));
    report.metric("grids10.n_ips", static_cast<double>(pg.n_ips_total()), "points", "none");
  }
  std::printf("%s", table.str().c_str());
  std::printf("\npaper (Table I): 1184 -> 1.4M tensors, 8050 eq | 960 -> 0.9M, 1930 |"
              " 3200 -> 10.2M, 1930\nShape: clustered grids minimize both the solve size"
              " and the tensor count.\n");
  return 0;
}
