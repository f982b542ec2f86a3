// The CUDA formulation of the Landau Jacobian kernel (Algorithm 1), written
// against the emulated CUDA programming model:
//
//  * grid.x  = elements (one element per block / SM),
//  * block.y = integration points of the element,
//  * block.x = reduction lanes for the inner integral (power of two,
//    block.x * block.y <= 256, §III-E1),
//  * the beta-terms of the inner integral are staged tile-by-tile into
//    shared memory; each x-lane takes eight consecutive points of every tile
//    (the double2/double4 vector-load idiom) through the SIMD helper of
//    core/inner_tile.h, so a tile is 8 x blockDim.x points (128 for Q2/Q3);
//    with the grid's pair-tensor table the lane reads its point's tensors
//    for those eight points from global memory, and the tile stages only w
//    and the three species sums, else r and z too for the recompute;
//    partial integrals live in per-thread registers, fold over their eight
//    slots and combine with a warp-shuffle butterfly; the species-free
//    element matrices K_e and D_e are formed by all threads, and each grid
//    species' block ck K_e + cd D_e is assembled into the global CSR matrix
//    with atomic adds.

#include "core/inner_tile.h"
#include "core/jacobian.h"
#include "core/kernel_math.h"
#include "exec/annotations.h"
#include "exec/cuda_sim.h"

namespace landau::detail {
namespace {

/// Largest power-of-two lane count with lanes * nq <= 256 (§III-E1).
int reduction_lanes(int nq) {
  int x = 1;
  while (2 * x * nq <= 256) x *= 2;
  return x;
}

} // namespace

void landau_kernel_cuda(exec::ThreadPool& pool, const JacobianContext& ctx, la::CsrMatrix& j) {
  namespace check = exec::check;
  const auto& fes = *ctx.fes;
  const auto& tab = fes.tabulation();
  const auto& ip = *ctx.ip;
  const int nq = tab.n_quad();
  const int nb = tab.n_basis();
  const auto coeff = ctx.coefficients(landau_coeffs);
  const std::size_t n_padded = ip.n_padded();
  const std::size_t n_chunks = n_padded / kIpChunk;
  const bool table = !ctx.tensor.empty();
  const exec::Dim3 block{reduction_lanes(nq), nq, 1};
  const std::size_t tile = kIpChunk * static_cast<std::size_t>(block.x);

  // Device-checker scope: register the packed IP arrays as inputs and the
  // assembly target as the concurrently-written output. Inactive (and free)
  // unless LANDAU_CHECK_DEVICE is on.
  check::KernelScope chk("landau:jacobian-cuda");
  auto ref_r = chk.in(std::span<const double>(ip.r), "ip.r");
  auto ref_z = chk.in(std::span<const double>(ip.z), "ip.z");
  auto ref_w = chk.in(std::span<const double>(ip.w), "ip.w");
  auto ref_sdfr = chk.in(std::span<const double>(ip.sum_dfr), "ip.sum_dfr");
  auto ref_sdfz = chk.in(std::span<const double>(ip.sum_dfz), "ip.sum_dfz");
  auto ref_sf = chk.in(std::span<const double>(ip.sum_f), "ip.sum_f");
  auto ref_tensor = chk.in(ctx.tensor, "tensor.table");
  // The assembly target is written concurrently by all blocks (paper
  // §III-F): stores must go through the atomic path, which landau-lint
  // enforces on direct subscript stores through views of this ref.
  auto ref_out = LANDAU_CROSS_BLOCK(chk.out(j.values(), "csr.values"));

  exec::launch(
      pool, static_cast<int>(fes.n_cells()), block,
      LANDAU_KERNEL [&](exec::Block& blk) {
        const auto cell = static_cast<std::size_t>(blk.block_idx());
        const auto geom = fes.geometry(cell);

        // Global memory through this block's access identity.
        auto gr = blk.view(ref_r);
        auto gz = blk.view(ref_z);
        auto gw = blk.view(ref_w);
        auto gsdfr = blk.view(ref_sdfr);
        auto gsdfz = blk.view(ref_sdfz);
        auto gsf = blk.view(ref_sf);
        auto gtensor = blk.view(ref_tensor);
        auto gout = blk.view(ref_out);

        // Register files: each thread's eight-slot partial (G_K, G_D), and
        // the folded value the shuffle reduces.
        auto regs = blk.registers<InnerSlots>("regs");
        auto red = blk.registers<InnerAccum>("red");

        // Shared memory: staging tiles, the per-point results and K_e, D_e.
        check::checked_span<double> tile_r, tile_z;
        if (!table) {
          tile_r = blk.shared<double>(tile, "tile_r");
          tile_z = blk.shared<double>(tile, "tile_z");
        }
        auto tile_w = blk.shared<double>(tile, "tile_w");
        auto tile_sdfr = blk.shared<double>(tile, "tile_sdfr");
        auto tile_sdfz = blk.shared<double>(tile, "tile_sdfz");
        auto tile_sf = blk.shared<double>(tile, "tile_sf");
        auto kkdd = blk.shared<PointCoeffs>(static_cast<std::size_t>(nq), "kkdd");
        auto ce = blk.shared<double>(2 * static_cast<std::size_t>(nb) * nb, "ce");

        // Inner integral over all global points, tile by tile (lines 3-11).
        // The padded arrays end on a whole chunk, so every tile does too.
        for (std::size_t j0 = 0; j0 < n_padded; j0 += tile) {
          const int tn = static_cast<int>(std::min(tile, n_padded - j0));
          // Cooperative load: threads stride the tile (coalesced SoA reads).
          blk.threads([&](exec::ThreadIdx t) {
            for (int k = t.flat; k < tn; k += blk.num_threads()) {
              const std::size_t gj = j0 + static_cast<std::size_t>(k);
              if (!table) {
                tile_r[static_cast<std::size_t>(k)] = gr[gj];
                tile_z[static_cast<std::size_t>(k)] = gz[gj];
              }
              tile_w[static_cast<std::size_t>(k)] = gw[gj];
              tile_sdfr[static_cast<std::size_t>(k)] = gsdfr[gj];
              tile_sdfz[static_cast<std::size_t>(k)] = gsdfz[gj];
              tile_sf[static_cast<std::size_t>(k)] = gsf[gj];
            }
          });
          blk.sync();
          // Each x-lane folds its eight consecutive points of the tile.
          blk.threads([&](exec::ThreadIdx t) {
            const auto k = kIpChunk * static_cast<std::size_t>(t.x);
            if (k >= static_cast<std::size_t>(tn)) return;
            const std::size_t i = cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(t.y);
            const SourceSums sums{tile_w.read_ptr(k, kIpChunk), tile_sdfr.read_ptr(k, kIpChunk),
                                  tile_sdfz.read_ptr(k, kIpChunk), tile_sf.read_ptr(k, kIpChunk)};
            InnerSlots* slots = regs.rw_ptr(static_cast<std::size_t>(t.flat));
            if (table) {
              inner_tile_table(*gtensor.read_ptr(i * n_chunks + (j0 + k) / kIpChunk), sums, slots);
            } else {
              const std::size_t gi = ctx.ip_offset + i;
              const InnerSource src{tile_r.read_ptr(k, kIpChunk), tile_z.read_ptr(k, kIpChunk),
                                    sums};
              inner_tile(gr[gi], gz[gi], src, slots);
            }
          });
          blk.sync();
        }

        // Fold each thread's slots, then the warp-shuffle reduction across
        // the x-lanes (line 12).
        blk.threads([&](exec::ThreadIdx t) {
          const auto me = static_cast<std::size_t>(t.flat);
          *red.write_ptr(me) = regs.read_ptr(me)->fold();
        });
        blk.shfl_xor_sum_x(red);

        // Mapping to the global basis (lines 13-20), one x-lane per point.
        blk.threads([&](exec::ThreadIdx t) {
          if (t.x != 0) return;
          const std::size_t gi =
              ctx.ip_offset + cell * static_cast<std::size_t>(nq) + static_cast<std::size_t>(t.y);
          // Row-reduced value: each thread reads its own register slot.
          const InnerAccum& g = *red.read_ptr(static_cast<std::size_t>(t.flat));
          kkdd[static_cast<std::size_t>(t.y)] =
              transform_point(g, geom.jinv[0], geom.jinv[1], gw[gi]);
        });
        blk.sync();

        // Transform & Assemble with all threads (line 23): distribute the
        // (test, trial) entries of K_e and D_e across the whole block.
        const int total = nb * nb;
        blk.threads([&](exec::ThreadIdx t) {
          for (int item = t.flat; item < total; item += blk.num_threads()) {
            double k = 0.0, d = 0.0;
            for (int i = 0; i < nq; ++i)
              contract_point(*kkdd.read_ptr(static_cast<std::size_t>(i)), tab, i, item / nb,
                             item % nb, &k, &d);
            ce[static_cast<std::size_t>(item)] = k;
            ce[static_cast<std::size_t>(total + item)] = d;
          }
        });
        blk.sync();

        // Each grid species' block ck K_e + cd D_e, with atomics (§III-F).
        fes.scatter().add(cell, {ce.read_all(), ce.size()}, coeff, ctx.block_offsets, j.values(),
                          ctx.atomic_assembly, gout.active() ? &gout : nullptr);
      },
      &chk, "landau:jacobian-cuda");
  chk.finish();
}

} // namespace landau::detail
