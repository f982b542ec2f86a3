// The full thermal quench scenario (paper §IV-C / Fig. 5): quasi-equilibrium
// current under E = 0.5 E_c, then cold-plasma injection with Spitzer E = eta J
// feedback. Prints and optionally writes the four Fig. 5 profiles
// (n_e, J, E, T_e) as a time series.
//
//   ./thermal_quench [-dt 0.5] [-max_steps 60] [-injected 3] [-csv quench.csv]
//
// Robustness knobs: the run goes through the failure-recovering step
// controller (-dt_min, -max_retries, -backoff), can checkpoint every N
// accepted steps and resume mid-scenario (-checkpoint quench.ckpt
// -checkpoint_interval 10 -resume), and accepts an injected fault spec for
// drills (-fault "throw@factor@step=5", also via LANDAU_FAULT_SPEC).
//
// Telemetry: -landau_trace trace.json writes a Chrome/Perfetto span trace of
// the whole run (kernel launches, solver phases) and prints the self-time
// tree; -landau_step_log steps.ndjson appends one JSON record per accepted
// step (dt, Newton iterations, rejections, n_e, J, E, T_e). The same
// switches exist as LANDAU_TRACE / LANDAU_STEP_LOG environment variables for
// binaries without option plumbing.

#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "quench/model.h"
#include "util/options.h"
#include "util/robustness.h"
#include "util/table_writer.h"

using namespace landau;
using namespace landau::quench;

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);

  QuenchOptions qopts;
  qopts.dt = opts.get<double>("dt", 0.5, "time step (collision times)");
  qopts.max_steps = opts.get<int>("max_steps", 60, "total steps");
  qopts.e_initial_over_ec = opts.get<double>("e0_over_ec", 0.5, "initial E / E_c");
  qopts.te_ev = opts.get<double>("te_ev", 3000.0, "reference T_e in eV (sets E_c)");
  qopts.source.total_injected = opts.get<double>("injected", 3.0, "injected density / n0");
  qopts.source.t_start = opts.get<double>("pulse_start", 0.5, "pulse start after switchover");
  qopts.source.duration = opts.get<double>("pulse_duration", 8.0, "pulse duration");
  qopts.source.cold_temperature = opts.get<double>("cold_t", 0.05, "injected T / T_e0");
  const std::string csv = opts.get<std::string>("csv", "", "optional CSV output path");
  const double ion_mass = opts.get<double>("ion_mass", 200.0, "ion mass (m_e units)");
  qopts.controller.dt_min = opts.get<double>("dt_min", qopts.controller.dt_min,
                                             "smallest dt the controller may retry at");
  qopts.controller.backoff =
      opts.get<double>("backoff", qopts.controller.backoff, "dt multiplier on a rejected step");
  qopts.controller.max_retries =
      opts.get<int>("max_retries", qopts.controller.max_retries, "retries before giving up");
  qopts.checkpoint_path = opts.get<std::string>("checkpoint", "", "checkpoint file path");
  qopts.checkpoint_interval =
      opts.get<int>("checkpoint_interval", 10, "accepted steps between checkpoints");
  qopts.resume = opts.get<bool>("resume", false, "resume from -checkpoint if it exists");
  robustness().paranoid =
      opts.get<bool>("paranoid", false, "finite-value audits at the operator boundary");
  const std::string fault =
      opts.get<std::string>("fault", "", "fault-injection spec (see util/robustness.h)");
  if (!fault.empty()) FaultInjector::instance().configure(fault);
  const std::string trace_path = opts.get<std::string>(
      "landau_trace", "", "write a Chrome/Perfetto trace of the run to this path");
  const std::string step_log_path = opts.get<std::string>(
      "landau_step_log", "", "append one NDJSON record per accepted step to this path");
  if (!trace_path.empty()) {
    obs::Tracer::instance().set_path(trace_path); // written at exit + self-time report
    obs::Tracer::instance().enable();
  }
  if (!step_log_path.empty()) obs::StepLog::instance().set_path(step_log_path);

  auto species = SpeciesSet::electron_deuterium();
  if (ion_mass > 0) species[1].mass = ion_mass;
  LandauOptions lopts = LandauOptions::from_options(opts);
  lopts.cells_per_thermal = opts.get<double>("landau_cells_per_thermal", 0.8, "");
  lopts.max_levels = opts.get<int>("landau_max_levels", 4, "");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }

  LandauOperator op(species, lopts);
  std::printf("thermal quench: %zu cells, %zu dofs/species\n", op.forest().n_leaves(),
              op.n_dofs_per_species());

  QuenchModel model(op, qopts);
  const auto result = model.run();

  TableWriter table("thermal quench profiles (normalized; cf. paper Fig. 5)");
  table.header({"t", "n_e", "J", "E", "T_e", "tail_frac", "phase", "newton", "dt", "rej"});
  for (const auto& s : result.history)
    table.add_row().cell(s.t, 2).cell(s.n_e, 5).cell(s.j_z, 6).cell(s.e_z, 6).cell(s.t_e, 5)
        .cell(s.runaway_fraction, 6).cell(s.quench_phase ? "quench" : "spitzer")
        .cell(s.newton_iterations).cell(s.dt, 3).cell(s.rejections);
  std::printf("%s", table.str().c_str());
  std::printf("switchover at step %d; injected mass %.4f\n", result.switchover_step,
              result.mass_injected);
  if (result.resumed) std::printf("resumed from checkpoint %s\n", qopts.checkpoint_path.c_str());
  if (result.total_rejections > 0 || result.stagnated_steps > 0)
    std::printf("controller: %ld rejected attempt(s), %ld stagnated step(s)\n",
                result.total_rejections, result.stagnated_steps);
  if (!csv.empty()) {
    table.write_csv(csv);
    std::printf("wrote %s\n", csv.c_str());
  }
  return 0;
}
