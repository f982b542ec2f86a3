// Tracer overhead: the cost of the observability layer measured two ways.
//
//  1. Micro: nanoseconds per ScopedEvent (the one span type) with tracing
//     disabled (two clock reads and the profiler's atomics — the cost every
//     instrumented call site pays in a production run) and enabled (the same
//     plus one ring write when the event ends). Each is the median of seven
//     loops, run in off/on pairs that alternate which goes first, so a slow
//     phase of a shared host moves both alike.
//  2. Macro: an implicit-step loop on a small operator. The step overhead is
//     what tracing adds per span times the spans of one traced loop, over the
//     median untraced loop time (< 2% target — spans are coarse, one per
//     kernel launch / solver phase, so the per-span cost never accumulates).
//     The loops also run with tracing off and on in adjacent pairs, and the
//     median per-pair slowdown is printed; it is reported with no direction,
//     as one loop's run-to-run noise on a shared host is larger than what
//     tracing adds.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "obs/trace.h"

using namespace landau;
using namespace landau::bench;

namespace {

double measure_steps(LandauOperator& op, int steps, double dt) {
  NewtonOptions nopts;
  nopts.max_iterations = 4;
  ImplicitIntegrator integrator(op, nopts);
  la::Vec f = op.maxwellian_state();
  integrator.step(f, dt); // warm-up: metadata fix-up + RCM analysis
  Stopwatch w;
  for (int s = 0; s < steps; ++s) integrator.step(f, dt);
  return w.seconds();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

} // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.parse(argc, argv);
  const int steps = opts.get<int>("steps", 6, "implicit steps per timed run");
  const int reps = opts.get<int>("span_reps", 2000000, "micro-benchmark ScopedEvents");
  const double dt = opts.get<double>("dt", 0.5, "time step");
  if (opts.help_requested()) {
    std::printf("%s", opts.help_text().c_str());
    return 0;
  }
  const LogLevel saved_level = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Error);

  auto& tracer = obs::Tracer::instance();
  tracer.set_path(""); // keep the at-exit writer quiet in this benchmark
  tracer.disable();

  // --- Micro: per-span cost --------------------------------------------------
  const int noop = Profiler::instance().event_id("bench:noop");
  constexpr int kSpanRuns = 7;
  std::vector<double> span_off, span_on;
  for (int p = 0; p < kSpanRuns; ++p)
    for (const bool traced : {p % 2 == 1, p % 2 == 0}) {
      if (traced) tracer.enable();
      Stopwatch w;
      for (int i = 0; i < reps; ++i) ScopedEvent ev(noop);
      (traced ? span_on : span_off).push_back(w.seconds() * 1e9 / reps);
      tracer.disable();
      tracer.clear();
    }
  const double ns_disabled = median(span_off), ns_enabled = median(span_on);

  // --- Macro: implicit-step loop --------------------------------------------
  SpeciesSet species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0;
  LandauOptions lopts;
  lopts.order = 2;
  lopts.radius = 4.5;
  lopts.base_levels = 1;
  lopts.cells_per_thermal = 0.8;
  lopts.max_levels = 5;
  lopts.backend = Backend::CudaSim;
  lopts.n_workers = 2;
  LandauOperator op(species, lopts);

  // Loops run in adjacent off/on pairs, alternating which goes first; the
  // traced loops count the spans.
  constexpr int kPairs = 5;
  std::vector<double> off, on;
  for (int p = 0; p < kPairs; ++p)
    for (const bool traced : {p % 2 == 1, p % 2 == 0}) {
      if (traced) tracer.enable();
      (traced ? on : off).push_back(measure_steps(op, steps, dt));
      tracer.disable();
    }
  const double t_off = median(off), t_on = median(on);
  std::vector<double> pair_pct;
  for (int p = 0; p < kPairs; ++p) pair_pct.push_back(100.0 * (on[p] - off[p]) / off[p]);
  const double pair_slowdown_pct = median(pair_pct);
  const std::int64_t spans = static_cast<std::int64_t>(tracer.snapshot().size()) / kPairs;
  const double overhead_pct =
      100.0 * static_cast<double>(spans) * (ns_enabled - ns_disabled) * 1e-9 / t_off;
  tracer.clear();
  Logger::instance().set_level(saved_level);

  TableWriter table("tracer overhead");
  table.header({"measurement", "value"});
  table.add_row().cell("disabled span (ns)").cell(ns_disabled, 2);
  table.add_row().cell("enabled span (ns)").cell(ns_enabled, 2);
  table.add_row().cell("step loop, tracing off (s, median)").cell(t_off, 4);
  table.add_row().cell("step loop, tracing on (s, median)").cell(t_on, 4);
  table.add_row().cell("spans per traced loop").cell(static_cast<long long>(spans));
  table.add_row().cell("overhead: spans x (enabled - disabled) / off (%)").cell(overhead_pct, 4);
  table.add_row().cell("measured off/on pair slowdown (%, median)").cell(pair_slowdown_pct, 2);
  std::printf("%s", table.str().c_str());
  std::printf("\ntarget: < 2%% overhead with tracing ON (spans are per kernel launch and\n"
              "solver phase, not per element); tracing adds one ring write per event to the\n"
              "profiler's own cost.\n");

  BenchReport report("trace_overhead");
  report.metric("span_disabled_ns", ns_disabled, "ns", "lower");
  report.metric("span_enabled_ns", ns_enabled, "ns", "lower");
  report.metric("step_overhead_pct", overhead_pct, "%", "lower");
  report.metric("pair_slowdown_pct", pair_slowdown_pct, "%", "none");
  report.metric("spans_recorded", static_cast<double>(spans), "spans", "none");
  return 0;
}
