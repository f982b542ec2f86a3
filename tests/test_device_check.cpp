// Validation of the device memory-model checker (ctest -L analysis).
//
// Two kinds of tests: seeded-bug tests that plant a CUDA-semantics error
// (missing atomicAdd, dropped __syncthreads, read of unpacked device data,
// out-of-bounds index) and assert the checker reports it with the right
// provenance, and clean-run tests that drive the shipped kernels through a
// full implicit step in strict mode and assert zero reports.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/operator.h"
#include "exec/cuda_sim.h"
#include "landau3d/operator3d.h"
#include "quench/model.h"
#include "solver/implicit.h"

using namespace landau;
namespace check = landau::exec::check;

namespace {

LandauOptions small_opts(Backend backend = Backend::CudaSim) {
  LandauOptions o;
  o.order = 2;
  o.radius = 4.0;
  o.base_levels = 1;
  o.cells_per_thermal = 0.6;
  o.max_levels = 3;
  o.backend = backend;
  o.n_workers = 2;
  return o;
}

LandauOperator make_small_op(Backend backend = Backend::CudaSim) {
  auto species = SpeciesSet::electron_deuterium();
  species[1].mass = 25.0; // reduced mass ratio keeps the shared grid small
  return LandauOperator(species, small_opts(backend));
}

/// A small 3-D grid: 2 cells per dimension, Q2.
v3::Landau3DOptions small_3d_opts(Backend backend) {
  v3::Landau3DOptions o;
  o.radius = 3.5;
  o.cells_per_dim = 2;
  o.order = 2;
  o.backend = backend;
  o.n_workers = 2;
  return o;
}

/// First report matching (category, kernel); null if none.
const check::Report* find_report(const std::vector<check::Report>& reports, const char* category,
                                 const std::string& kernel) {
  for (const auto& r : reports)
    if (r.category == category && r.kernel == kernel) return &r;
  return nullptr;
}

class DeviceCheck : public ::testing::Test {
protected:
  void SetUp() override {
    saved_ = check::options();
    check::options() = check::CheckOptions{};
    check::options().enabled = true;
    check::DeviceChecker::instance().clear();
  }
  void TearDown() override {
    check::options() = saved_;
    check::DeviceChecker::instance().clear();
  }
  check::CheckOptions saved_;
};

} // namespace

// ---------------------------------------------------------------------------
// Mini-kernel seeded bugs
// ---------------------------------------------------------------------------

TEST_F(DeviceCheck, IntraBlockSharedRaceHasFullProvenance) {
  exec::ThreadPool pool(1);
  check::KernelScope chk("test:intra-race");
  exec::launch(
      pool, 1, exec::Dim3{4, 1, 1},
      [&](exec::Block& blk) {
        auto s = blk.shared<double>(1, "accum");
        // All four threads of phase 0 write the same shared word.
        blk.threads([&](exec::ThreadIdx t) { s[0] = static_cast<double>(t.x); });
      },
      nullptr, &chk);
  chk.finish();

  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kIntraBlockRace), 1);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kIntraBlockRace, "test:intra-race");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->buffer, "accum");
  EXPECT_EQ(r->index, 0u);
  EXPECT_EQ(r->block, 0);
  EXPECT_EQ(r->phase, 0);
  EXPECT_NE(r->thread, check::kUniformThread);
  EXPECT_NE(r->prev_thread, check::kUniformThread);
  EXPECT_NE(r->thread, r->prev_thread);
}

TEST_F(DeviceCheck, SyncSeparatedAccessesAreNotARace) {
  exec::ThreadPool pool(1);
  check::KernelScope chk("test:sync-clean");
  exec::launch(
      pool, 2, exec::Dim3{8, 1, 1},
      [&](exec::Block& blk) {
        auto s = blk.shared<double>(8, "tile");
        blk.threads([&](exec::ThreadIdx t) { s[static_cast<std::size_t>(t.x)] = t.x + 1.0; });
        blk.sync();
        blk.threads([&](exec::ThreadIdx t) {
          double sum = 0.0;
          for (std::size_t j = 0; j < 8; ++j) sum += s[j];
          s.raw()[static_cast<std::size_t>(t.x)] = sum; // raw: outside the model
        });
      },
      nullptr, &chk);
  chk.finish();
  EXPECT_EQ(check::DeviceChecker::instance().total(), 0);
}

TEST_F(DeviceCheck, UninitializedSharedReadIsReported) {
  exec::ThreadPool pool(1);
  check::KernelScope chk("test:uninit-shared");
  exec::launch(
      pool, 1, exec::Dim3{2, 1, 1},
      [&](exec::Block& blk) {
        auto s = blk.shared<double>(2, "tile");
        // __shared__ memory has no defined initial value on hardware, even
        // though the emulation's arena zero-fills.
        blk.threads([&](exec::ThreadIdx t) {
          const double v = s[static_cast<std::size_t>(t.x)];
          (void)v;
        });
      },
      nullptr, &chk);
  chk.finish();
  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kUninitRead), 1);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kUninitRead, "test:uninit-shared");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->buffer, "tile");
}

TEST_F(DeviceCheck, OutOfBoundsIndexIsReportedNotFatal) {
  exec::ThreadPool pool(1);
  check::KernelScope chk("test:oob");
  exec::launch(
      pool, 1, exec::Dim3{1, 1, 1},
      [&](exec::Block& blk) {
        auto s = blk.shared<double>(4, "buf");
        blk.threads([&](exec::ThreadIdx) {
          s[6] = 1.0; // write past the end: redirected to a sink, then reported
          const double v = s[7];
          (void)v;
        });
      },
      nullptr, &chk);
  chk.finish();
  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kOutOfBounds), 2);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kOutOfBounds, "test:oob");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->buffer, "buf");
  EXPECT_NE(r->detail.find("out of range"), std::string::npos);
}

TEST_F(DeviceCheck, RegisterIsolationViolationIsReported) {
  exec::ThreadPool pool(1);
  check::KernelScope chk("test:regs");
  exec::launch(
      pool, 1, exec::Dim3{4, 1, 1},
      [&](exec::Block& blk) {
        auto regs = blk.registers<double>("regs");
        // A thread writing a neighbor's register slot has no hardware
        // equivalent — shuffles are the only sanctioned exchange.
        blk.threads([&](exec::ThreadIdx t) {
          regs[static_cast<std::size_t>((t.flat + 1) % blk.num_threads())] = 1.0;
        });
      },
      nullptr, &chk);
  chk.finish();
  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kRegisterIsolation), 1);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kRegisterIsolation, "test:regs");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->buffer, "regs");
  EXPECT_NE(r->detail.find("shfl"), std::string::npos);
}

TEST_F(DeviceCheck, StrictModeThrowsFromFinish) {
  check::options().strict = true;
  exec::ThreadPool pool(1);
  check::KernelScope chk("test:strict");
  exec::launch(
      pool, 1, exec::Dim3{4, 1, 1},
      [&](exec::Block& blk) {
        auto s = blk.shared<double>(1, "accum");
        blk.threads([&](exec::ThreadIdx t) { s[0] = static_cast<double>(t.x); });
      },
      nullptr, &chk);
  EXPECT_THROW(chk.finish(), landau::Error);
}

// ---------------------------------------------------------------------------
// Schedule shuffling
// ---------------------------------------------------------------------------

TEST(ScheduleShuffler, SeededPermutationIsDeterministicAndValid) {
  check::ScheduleShuffler a(123), b(123), c(456);
  const auto pa = a.permutation(17);
  const auto pb = b.permutation(17);
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, c.permutation(17));
  std::vector<bool> seen(17, false);
  for (std::size_t i : pa) {
    ASSERT_LT(i, 17u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST_F(DeviceCheck, ShuffleFlagsOrderDependentKernel) {
  check::options().shuffle = true;
  exec::ThreadPool pool(0); // inline execution: natural order is 0..n-1
  std::vector<double> out(1, 0.0);
  check::KernelScope chk("test:order", /*concurrent_blocks=*/false);
  auto ref = chk.out(std::span<double>(out), "fold");
  exec::launch(
      pool, 8, exec::Dim3{1, 1, 1},
      [&](exec::Block& blk) {
        auto v = blk.view(ref);
        // Non-commutative fold: any non-identity block order changes out[0].
        v[0] = (static_cast<double>(v[0]) + 1.0) * (blk.block_idx() + 2.0);
      },
      nullptr, &chk);
  chk.finish();
  EXPECT_GE(check::DeviceChecker::instance().count(check::kOrderDependent), 1);
  // The diff restores the natural-order result for the caller.
  double expect = 0.0;
  for (int b = 0; b < 8; ++b) expect = (expect + 1.0) * (b + 2.0);
  EXPECT_DOUBLE_EQ(out[0], expect);
}

TEST_F(DeviceCheck, ShuffleLeavesDeterministicKernelClean) {
  check::options().shuffle = true;
  exec::ThreadPool pool(2);
  std::vector<double> out(8, 0.0);
  check::KernelScope chk("test:deterministic");
  auto ref = chk.out(std::span<double>(out), "out");
  exec::launch(
      pool, 8, exec::Dim3{1, 1, 1},
      [&](exec::Block& blk) {
        auto v = blk.view(ref);
        v[static_cast<std::size_t>(blk.block_idx())] = 1.5 * blk.block_idx();
      },
      nullptr, &chk);
  chk.finish();
  EXPECT_EQ(check::DeviceChecker::instance().total(), 0);
  for (int b = 0; b < 8; ++b) EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(b)], 1.5 * b);
}

// ---------------------------------------------------------------------------
// Seeded bugs in the shipped Jacobian kernel
// ---------------------------------------------------------------------------

TEST_F(DeviceCheck, DroppedSyncInJacobianKernelIsDetected) {
  check::options().drop_sync = 0; // model a forgotten __syncthreads()
  LandauOperator op = make_small_op();
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  exec::ThreadPool pool(2);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());
  assemble_landau_jacobian(Backend::CudaSim, pool, ctx, j);

  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kIntraBlockRace), 1);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kIntraBlockRace, "landau:jacobian-cuda");
  ASSERT_NE(r, nullptr);
  // The collapsed phase merges the tile load with its consumers.
  EXPECT_NE(r->thread, r->prev_thread);
  EXPECT_GE(r->phase, 0);
  EXPECT_GE(r->block, 0);
}

TEST_F(DeviceCheck, NonAtomicAssemblyIsAnInterBlockRace) {
  LandauOperator op = make_small_op();
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  exec::ThreadPool pool(2);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());
  ctx.atomic_assembly = false; // the §III-F bug: plain += into shared rows
  assemble_landau_jacobian(Backend::CudaSim, pool, ctx, j);

  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kInterBlockRace), 1);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kInterBlockRace, "landau:jacobian-cuda");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->buffer, "csr.values");
  EXPECT_NE(r->detail.find("atomicAdd"), std::string::npos);
  EXPECT_NE(r->block, r->prev_block);
}

TEST_F(DeviceCheck, UninitInputBufferReadIsReported) {
  check::options().uninit_input = "ip.sum_f"; // model reading unpacked device data
  LandauOperator op = make_small_op();
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  la::CsrMatrix j = op.new_matrix();
  exec::ThreadPool pool(2);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());
  assemble_landau_jacobian(Backend::CudaSim, pool, ctx, j);

  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kUninitRead), 1);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kUninitRead, "landau:jacobian-cuda");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->buffer, "ip.sum_f");
}

// ---------------------------------------------------------------------------
// Clean runs: the shipped kernels under strict mode
// ---------------------------------------------------------------------------

TEST_F(DeviceCheck, AllBackendsAssembleCleanUnderStrict) {
  check::options().strict = true;
  LandauOperator op = make_small_op();
  la::Vec f = op.maxwellian_state();
  op.pack(f);
  exec::ThreadPool pool(2);
  JacobianContext ctx;
  ctx.init(op.space(), op.species(), op.ip_data());
  for (Backend be : {Backend::Cpu, Backend::CudaSim, Backend::KokkosSim}) {
    la::CsrMatrix j = op.new_matrix();
    EXPECT_NO_THROW(assemble_landau_jacobian(be, pool, ctx, j)) << backend_name(be);
  }
  // The fast kernels reading the operators' pair-tensor tables.
  for (Backend be : {Backend::CudaSim, Backend::KokkosSim}) {
    LandauOperator tabled = make_small_op(be);
    tabled.pack(tabled.maxwellian_state());
    la::CsrMatrix j = tabled.new_matrix();
    EXPECT_NO_THROW(tabled.add_collision(j)) << backend_name(be) << " table";
    EXPECT_FALSE(tabled.make_context(0).tensor.empty());
  }
  // Both 3-D kernels on a small grid: 2 cells per dimension, Q2.
  for (Backend be : {Backend::Cpu, Backend::CudaSim}) {
    v3::Landau3DOperator op3(SpeciesSet::electron_deuterium(), small_3d_opts(be));
    op3.pack(op3.maxwellian_state());
    la::CsrMatrix j3 = op3.new_matrix();
    EXPECT_NO_THROW(op3.add_collision(j3)) << "3-D " << backend_name(be);
  }
  EXPECT_EQ(check::DeviceChecker::instance().total(), 0);
}

TEST_F(DeviceCheck, UninitInputBufferReadIsReportedIn3DCpuKernel) {
  check::options().uninit_input = "ip.sum_f";
  v3::Landau3DOperator op3(SpeciesSet::electron_deuterium(), small_3d_opts(Backend::Cpu));
  op3.pack(op3.maxwellian_state());
  la::CsrMatrix j3 = op3.new_matrix();
  op3.add_collision(j3);

  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kUninitRead), 1);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kUninitRead, "landau3d:jacobian-cpu");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->buffer, "ip.sum_f");
}

TEST_F(DeviceCheck, PairTensorTableIsACheckedInput) {
  // The operator's cuda-sim path reads its pair-tensor table through the
  // checker: named as unwritten, the table draws an uninit-read report.
  check::options().uninit_input = "tensor.table";
  LandauOperator op = make_small_op();
  op.pack(op.maxwellian_state());
  la::CsrMatrix j = op.new_matrix();
  op.add_collision(j);
  ASSERT_FALSE(op.make_context(0).tensor.empty());

  auto& dc = check::DeviceChecker::instance();
  EXPECT_GE(dc.count(check::kUninitRead), 1);
  const auto reports = dc.reports();
  const check::Report* r = find_report(reports, check::kUninitRead, "landau:jacobian-cuda");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->buffer, "tensor.table");
}

TEST_F(DeviceCheck, RelaxationStepRunsCleanUnderStrict) {
  // Full implicit step: Jacobian + mass kernels, device band factor/solve.
  check::options().strict = true;
  LandauOperator op = make_small_op();
  la::Vec f = op.maxwellian_state();
  ImplicitIntegrator integ(op, {}, LinearSolverKind::DeviceBandLU);
  EXPECT_NO_THROW(integ.step(f, 0.1));
  EXPECT_EQ(check::DeviceChecker::instance().total(), 0);
}

TEST_F(DeviceCheck, QuenchStepRunsCleanUnderStrict) {
  check::options().strict = true;
  LandauOperator op = make_small_op();
  quench::QuenchOptions q;
  q.dt = 0.5;
  q.max_steps = 1;
  q.newton.rtol = 1e-6;
  q.linear = LinearSolverKind::DeviceBandLU;
  quench::QuenchModel model(op, q);
  EXPECT_NO_THROW(model.run());
  EXPECT_EQ(check::DeviceChecker::instance().total(), 0);
}
