// Observability subsystem: span tracer (nesting, thread merge, Chrome-trace
// export parsed back through the JSON parser), metrics registry (bucket
// edges, stable handles), the NDJSON step-log schema on a short quench run,
// and the bench_compare tool's pass/fail behavior on synthetic regressions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/roofline.h"
#include "obs/trace.h"
#include "quench/model.h"
#include "util/error.h"
#include "util/profiler.h"

using namespace landau;

namespace {

/// Tracing state is global; each tracer test starts from a clean slate and
/// leaves tracing off.
struct TracerGuard {
  TracerGuard() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
  ~TracerGuard() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

/// Per-process scratch file: the Obs cases are registered twice (plain and
/// `analysis.`), and the two copies may run at once under ctest -j.
std::string scratch_path(const std::string& name) {
  return testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

LandauOperator make_small_op() {
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0; // reduced mass ratio for test speed
  LandauOptions opts;
  opts.order = 2;
  opts.radius = 4.5;
  opts.base_levels = 1;
  opts.cells_per_thermal = 0.8;
  opts.max_levels = 5;
  opts.n_workers = 2;
  return LandauOperator(species, opts);
}

} // namespace

// ---------------------------------------------------------------------------
// JSON value model
// ---------------------------------------------------------------------------

TEST(ObsJson, RoundTripPreservesStructureAndOrder) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("name", "landau \"quoted\"\n");
  doc.set("count", 42);
  doc.set("pi", 3.25);
  doc.set("flag", true);
  doc.set("nothing", obs::JsonValue());
  obs::JsonValue arr = obs::JsonValue::array();
  arr.push_back(1);
  arr.push_back(-2.5);
  arr.push_back("x");
  doc.set("seq", std::move(arr));

  const obs::JsonValue back = obs::JsonValue::parse(doc.dump());
  ASSERT_TRUE(back.is_object());
  EXPECT_EQ(back.find("name")->as_string(), "landau \"quoted\"\n");
  EXPECT_EQ(back.find("count")->as_int(), 42);
  EXPECT_DOUBLE_EQ(back.find("pi")->as_double(), 3.25);
  EXPECT_TRUE(back.find("flag")->as_bool());
  EXPECT_TRUE(back.find("nothing")->is_null());
  ASSERT_EQ(back.find("seq")->size(), 3u);
  EXPECT_EQ((*back.find("seq"))[0].as_int(), 1);
  // Insertion order survives serialization (diffable output).
  EXPECT_EQ(back.members()[0].first, "name");
  EXPECT_EQ(back.members()[5].first, "seq");
}

TEST(ObsJson, NonFiniteSerializesAsNull) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bad", std::nan(""));
  const obs::JsonValue back = obs::JsonValue::parse(doc.dump());
  EXPECT_TRUE(back.find("bad")->is_null());
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(obs::JsonValue::parse("{\"a\": }"), Error);
  EXPECT_THROW(obs::JsonValue::parse("[1, 2"), Error);
  EXPECT_THROW(obs::JsonValue::parse("{} trailing"), Error);
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  TracerGuard guard;
  {
    ScopedEvent outer("outer");
    ScopedEvent inner("inner");
  }
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST(ObsTrace, NestingReconstructedInSelfTimeTree) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  {
    ScopedEvent outer("outer");
    { ScopedEvent inner("inner"); }
    { ScopedEvent inner("inner"); }
  }
  tracer.disable();

  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 3u);

  const obs::SpanTreeNode root = tracer.build_tree();
  ASSERT_EQ(root.children.size(), 1u);
  const auto& outer = root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1);
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0].name, "inner");
  EXPECT_EQ(outer.children[0].count, 2);
  // Self time excludes child time.
  EXPECT_LE(outer.self_ns, outer.total_ns);
  EXPECT_GE(outer.total_ns, outer.children[0].total_ns);
}

TEST(ObsTrace, ThreadsMergeByNamePath) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  auto work = [] {
    ScopedEvent outer("worker");
    ScopedEvent inner("phase");
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  tracer.disable();

  const obs::SpanTreeNode root = tracer.build_tree();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "worker");
  EXPECT_EQ(root.children[0].count, 2); // merged across the two threads
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].count, 2);

  // The raw records carry distinct thread ids.
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  std::set<int> tids;
  for (const auto& r : records) tids.insert(r.tid);
  EXPECT_EQ(tids.size(), 2u);
}

TEST(ObsTrace, ChromeTraceParsesBackWithArgs) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  {
    ScopedEvent span("kernel", {{"grid", 80}, {"block_x", 16}, {"ai", 15.75}});
  }
  tracer.disable();

  const obs::JsonValue doc = obs::JsonValue::parse(tracer.chrome_trace().dump());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.size(), 1u);
  const obs::JsonValue& e = doc[0];
  EXPECT_EQ(e.find("name")->as_string(), "kernel");
  EXPECT_EQ(e.find("ph")->as_string(), "X");
  EXPECT_TRUE(e.find("ts")->is_number());
  EXPECT_TRUE(e.find("dur")->is_number());
  EXPECT_GE(e.find("dur")->as_double(), 0.0);
  ASSERT_NE(e.find("args"), nullptr);
  EXPECT_EQ(e.find("args")->find("grid")->as_int(), 80);
  EXPECT_DOUBLE_EQ(e.find("args")->find("ai")->as_double(), 15.75);
}

TEST(ObsTrace, ProfilerEventsBecomeSpansThroughHooks) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  {
    ScopedEvent outer("obs-test:outer");
    ScopedEvent inner("obs-test:inner");
  }
  tracer.disable();

  const obs::SpanTreeNode root = tracer.build_tree();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "obs-test:outer");
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "obs-test:inner");
}

TEST(ObsTrace, SpanWrittenOnlyWhenBegunWhileTracing) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  auto& prof = Profiler::instance();
  prof.reset();
  {
    tracer.enable();
    ScopedEvent ev("obs-test:begun-traced");
    tracer.disable(); // still completes: exactly one span
  }
  {
    ScopedEvent ev("obs-test:begun-untraced");
    tracer.enable(); // no span: tracing was off at begin
  }
  auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "obs-test:begun-traced");
  {
    ScopedEvent ev("obs-test:open-across-clear");
    tracer.clear(); // discards completed records only
  }
  { ScopedEvent ev("obs-test:later"); }
  tracer.disable();

  records = tracer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_STREQ(records[0].name, "obs-test:open-across-clear");
  EXPECT_STREQ(records[1].name, "obs-test:later");
  EXPECT_EQ(records[1].depth, 0);
  for (const char* name : {"obs-test:begun-traced", "obs-test:begun-untraced",
                           "obs-test:open-across-clear", "obs-test:later"})
    EXPECT_EQ(prof.count(name), 1) << name;
}

TEST(ObsTrace, RingWrapKeepsMostRecentAndCountsDrops) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  tracer.set_ring_capacity(16);
  tracer.enable();
  std::thread([&] {
    // Fresh thread => fresh buffer picking up the small capacity.
    for (int i = 0; i < 40; ++i) ScopedEvent span("wrap");
  }).join();
  tracer.disable();
  EXPECT_GE(tracer.dropped(), 24);
  const auto records = tracer.snapshot();
  EXPECT_EQ(records.size(), 16u);
  tracer.set_ring_capacity(1u << 15);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketEdges) {
  obs::Histogram h("test.hist", {1.0, 2.0, 4.0});
  // Bucket i counts x <= edges[i] (first match); the last bucket is overflow.
  h.observe(0.5);  // <= 1         -> bucket 0
  h.observe(1.0);  // <= 1 (edge)  -> bucket 0
  h.observe(1.5);  // <= 2         -> bucket 1
  h.observe(4.0);  // <= 4 (edge)  -> bucket 2
  h.observe(99.0); // > 4          -> overflow
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 99.0);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.bucket(3), 0);
}

TEST(ObsMetrics, RegistryHandlesAreStableAndSerialized) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& c1 = reg.counter("obs-test.counter");
  obs::Counter& c2 = reg.counter("obs-test.counter");
  EXPECT_EQ(&c1, &c2); // get-or-create returns the same handle
  c1.reset();
  c1.inc(3);
  reg.gauge("obs-test.gauge").set(2.5);
  reg.histogram("obs-test.hist", {1.0}).observe(0.5);

  const obs::JsonValue doc = obs::JsonValue::parse(reg.to_json().dump());
  EXPECT_EQ(doc.find("counters")->find("obs-test.counter")->as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("obs-test.gauge")->as_double(), 2.5);
  const obs::JsonValue* h = doc.find("histograms")->find("obs-test.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->find("count")->as_int(), 1);
  EXPECT_EQ(h->find("buckets")->size(), 2u); // one edge + overflow
}

// ---------------------------------------------------------------------------
// Roofline
// ---------------------------------------------------------------------------

TEST(ObsRoofline, PlacementMath) {
  obs::RooflineEntry e;
  e.kernel = "test";
  e.flops = 1600;
  e.dram_bytes = 100; // AI = 16
  e.seconds = 1e-6;   // 1.6 Gflop/s achieved
  // Peaks: 100 Gflop/s, 10 GB/s -> knee at 10 flops/byte; AI 16 is above.
  const auto p = obs::place(e, 100.0, 10.0);
  EXPECT_DOUBLE_EQ(p.ai, 16.0);
  EXPECT_TRUE(p.compute_bound);
  EXPECT_DOUBLE_EQ(p.attainable_fraction, 1.0);
  EXPECT_NEAR(p.achieved_gflops, 1.6, 1e-12);
  EXPECT_NEAR(p.pct_of_attainable, 1.6, 1e-9);

  e.dram_bytes = 1600; // AI = 1: memory bound, ceiling at 10% of peak
  const auto q = obs::place(e, 100.0, 10.0);
  EXPECT_FALSE(q.compute_bound);
  EXPECT_DOUBLE_EQ(q.attainable_fraction, 0.1);
}

// ---------------------------------------------------------------------------
// NDJSON step log on a short quench run
// ---------------------------------------------------------------------------

TEST(ObsStepLog, QuenchRunWritesSchemaCompliantNdjson) {
  const std::string path = scratch_path("test_obs_steplog.ndjson");
  auto& log = obs::StepLog::instance();
  log.set_path(path);
  ASSERT_TRUE(log.active());

  LandauOperator op = make_small_op();
  quench::QuenchOptions q;
  q.dt = 0.5;
  q.max_steps = 5;
  q.e_initial_over_ec = 0.5;
  q.te_ev = 3000.0;
  q.newton.rtol = 1e-6;
  quench::QuenchModel model(op, q);
  const auto result = model.run();
  log.set_path(""); // close and flush
  ASSERT_EQ(result.history.size(), 6u); // initial state + 5 steps

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int n_lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const obs::JsonValue rec = obs::JsonValue::parse(line); // throws if malformed
    ASSERT_TRUE(rec.is_object());
    for (const char* key : {"kind", "step", "t", "dt", "newton_iterations", "factorizations",
                            "newton_contraction", "rejections", "n_e", "j_z", "e_z", "t_e",
                            "phase"})
      ASSERT_TRUE(rec.contains(key)) << "missing key '" << key << "' in: " << line;
    EXPECT_EQ(rec.find("kind")->as_string(), "quench");
    EXPECT_EQ(rec.find("step")->as_int(), n_lines);
    if (n_lines > 0) {
      EXPECT_GT(rec.find("dt")->as_double(), 0.0);
      EXPECT_GE(rec.find("newton_iterations")->as_int(), 1);
      // Every step factors at its first iteration; the lag may skip the rest.
      EXPECT_GE(rec.find("factorizations")->as_int(), 1);
      EXPECT_LE(rec.find("factorizations")->as_int(), rec.find("newton_iterations")->as_int());
    }
    ++n_lines;
  }
  EXPECT_EQ(n_lines, 6);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// bench_compare.py pass/fail on synthetic regressions
// ---------------------------------------------------------------------------

namespace {

int run_cmd(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

void write_bench_json(const std::string& path, double throughput, double latency) {
  obs::JsonValue metrics = obs::JsonValue::object();
  obs::JsonValue thr = obs::JsonValue::object();
  thr.set("value", throughput);
  thr.set("unit", "it/s");
  thr.set("compare", "higher");
  metrics.set("throughput", std::move(thr));
  obs::JsonValue lat = obs::JsonValue::object();
  lat.set("value", latency);
  lat.set("unit", "ms");
  lat.set("compare", "lower");
  metrics.set("latency", std::move(lat));
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", "synthetic");
  doc.set("schema", 1);
  doc.set("env", obs::JsonValue::object());
  doc.set("metrics", std::move(metrics));
  std::ofstream(path) << doc.dump(2) << "\n";
}

} // namespace

TEST(ObsBenchCompare, SyntheticRegressionGating) {
  if (run_cmd("python3 --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 not available";
  const std::string script = std::string(LANDAU_SOURCE_DIR) + "/tools/bench_compare.py";

  EXPECT_EQ(run_cmd("python3 " + script + " --self-test > /dev/null 2>&1"), 0);

  const std::string base = scratch_path("obs_bench_base.json");
  const std::string ok = scratch_path("obs_bench_ok.json");
  const std::string bad = scratch_path("obs_bench_bad.json");
  write_bench_json(base, 100.0, 10.0);
  write_bench_json(ok, 95.0, 10.4); // within the 10% noise band
  write_bench_json(bad, 80.0, 10.0); // 20% throughput regression

  const std::string compare = "python3 " + script + " " + base + " ";
  EXPECT_EQ(run_cmd(compare + ok + " > /dev/null 2>&1"), 0);
  EXPECT_NE(run_cmd(compare + bad + " > /dev/null 2>&1"), 0);
  // A tighter threshold flags the within-noise diff too.
  EXPECT_NE(run_cmd(compare + ok + " --threshold 2 > /dev/null 2>&1"), 0);

  std::remove(base.c_str());
  std::remove(ok.c_str());
  std::remove(bad.c_str());
}
