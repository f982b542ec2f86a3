#pragma once
// CPU emulation of the CUDA programming model (§I, §III-D/E of the paper).
//
// The model: a kernel launch is a 1D grid of 2D thread blocks. Each block is
// assigned to one SM and has a shared-memory arena visible to all its
// threads; threads synchronize with __syncthreads() barriers and exchange
// registers within a warp via shuffle instructions.
//
// The emulation: one worker of a ThreadPool plays one SM; a block runs to
// completion on its worker. Within a block, kernels are written in *phase
// style*: each region between barriers is a callable executed for every
// (threadIdx.x, threadIdx.y); values that live in registers across barriers
// are kept in explicit per-thread register files. Because phases execute
// sequentially on one worker, Block::sync() is a semantic marker (phases are
// already ordered), while shuffle operations are emulated exactly as the
// butterfly data exchange they perform on hardware.
//
// This preserves the algorithmic content of the CUDA version — data layout,
// reduction trees, shared-memory traffic — while running on plain threads.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <type_traits>
#include <vector>

#include "exec/check.h"
#include "exec/thread_pool.h"
#include "util/error.h"
#include "util/profiler.h"

namespace landau::exec {

struct Dim3 {
  int x = 1, y = 1, z = 1;
  int size() const { return x * y * z; }
};

/// Bump allocator with stable addresses (chunked), used for both the shared
/// memory arena and the per-thread register files of one block.
class Arena {
public:
  explicit Arena(std::size_t chunk_bytes = 1 << 16) : chunk_bytes_(chunk_bytes) {}

  template <class T> std::span<T> alloc(std::size_t n) {
    // reset() drops chunks without running destructors, so only types that
    // don't need one may live here.
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::alloc requires a trivially-destructible T");
    const std::size_t bytes = n * sizeof(T);
    const std::size_t align = alignof(T);
    // Alignment must be computed from the chunk's actual base address: the
    // vector's storage is only aligned to max_align_t, which over-aligned
    // types (alignas(64) tiles) exceed.
    const auto aligned_off = [&] {
      const auto base = reinterpret_cast<std::uintptr_t>(chunks_.back().data());
      return ((base + off_ + align - 1) / align * align) - base;
    };
    if (chunks_.empty() || aligned_off() + bytes > chunks_.back().size()) {
      chunks_.emplace_back(std::max(chunk_bytes_, bytes + align - 1));
      off_ = 0;
    }
    off_ = aligned_off();
    T* p = reinterpret_cast<T*>(chunks_.back().data() + off_);
    off_ += bytes;
    for (std::size_t i = 0; i < n; ++i) new (p + i) T{};
    return {p, n};
  }

  void reset() {
    chunks_.clear();
    off_ = 0;
  }

private:
  std::size_t chunk_bytes_;
  std::size_t off_ = 0;
  std::deque<std::vector<std::byte>> chunks_;
};

/// Identity of one thread within its block.
struct ThreadIdx {
  int x = 0, y = 0;
  int flat = 0; // x + y * blockDim.x
};

/// Execution context of one thread block.
class Block {
public:
  Block(int block_id, Dim3 grid_dim, Dim3 block_dim)
      : block_id_(block_id), grid_dim_(grid_dim), block_dim_(block_dim) {}

  int block_idx() const { return block_id_; }
  Dim3 grid_dim() const { return grid_dim_; }
  Dim3 block_dim() const { return block_dim_; }
  int num_threads() const { return block_dim_.size(); }

  /// Bind this block to an active checker session (set up by launch()).
  void bind_check(check::KernelSession* session) {
    chk_.session = session;
    chk_.block = block_id_;
  }
  /// Access identity of the currently executing code within this block.
  check::ThreadCtx& check_ctx() { return chk_; }

  /// Bind a globally registered buffer to this block's access identity.
  template <class T> check::checked_span<T> view(check::BufferRef<T> ref) {
    return {ref, &chk_};
  }

  /// Shared memory allocation (__shared__ / dynamic shared memory). Under the
  /// checker it is registered *uninitialized* — `__shared__` arrays are on
  /// hardware, even though Arena zero-fills here.
  template <class T> check::checked_span<T> shared(std::size_t n, const char* name = "shared") {
    std::span<T> s = shared_.alloc<T>(n);
    if (chk_.session) {
      auto* sb = chk_.session->add_buffer(name, check::Space::Shared, s.data(), s.size(), sizeof(T),
                                          std::is_same_v<std::remove_cv_t<T>, double>,
                                          /*writable=*/true, /*initialized=*/false, block_id_);
      return {check::BufferRef<T>{s.data(), s.size(), sb}, &chk_};
    }
    return {s};
  }

  /// Per-thread register file: one T per thread, persisting across phases.
  /// Registers model local variables (value-initialized), so they start
  /// initialized; the checker enforces that thread t only touches slot t.
  template <class T> check::checked_span<T> registers(const char* name = "regs") {
    std::span<T> s = regs_.alloc<T>(static_cast<std::size_t>(num_threads()));
    if (chk_.session) {
      auto* sb = chk_.session->add_buffer(name, check::Space::Register, s.data(), s.size(),
                                          sizeof(T), std::is_same_v<std::remove_cv_t<T>, double>,
                                          /*writable=*/true, /*initialized=*/true, block_id_);
      return {check::BufferRef<T>{s.data(), s.size(), sb}, &chk_};
    }
    return {s};
  }

  /// Execute a phase: f(ThreadIdx) for every thread of the block.
  template <class F> void threads(F&& f) {
    for (int ty = 0; ty < block_dim_.y; ++ty)
      for (int tx = 0; tx < block_dim_.x; ++tx) {
        chk_.thread = tx + ty * block_dim_.x;
        f(ThreadIdx{tx, ty, tx + ty * block_dim_.x});
      }
    chk_.thread = check::kUniformThread;
  }

  /// __syncthreads(): a semantic marker — phases already execute in order.
  /// Under the checker it closes the current access phase (the drop_sync
  /// seeded-bug hook models a forgotten barrier by skipping one advance).
  void sync() {
    if (chk_.session) {
      const int id = chk_.sync_count++;
      if (id != check::options().drop_sync) ++chk_.phase;
    }
  }

  /// Warp-shuffle butterfly sum across the x-dimension: after the call, every
  /// thread's register holds the sum over all x-lanes of its y-row. This is
  /// the `__shfl_xor_sync` reduction of Algorithm 1 line 12, performed stage
  /// by stage exactly as on hardware (blockDim.x must be a power of two).
  template <class T> void shfl_xor_sum_x(check::checked_span<T> cregs) {
    // The shuffle is the sanctioned cross-lane register exchange: it operates
    // on the raw storage, bypassing the per-thread isolation rule the checker
    // enforces on ordinary register accesses.
    std::span<T> regs = cregs.raw();
    const int w = block_dim_.x;
    LANDAU_ASSERT((w & (w - 1)) == 0, "shuffle width must be a power of two, got " << w);
    LANDAU_ASSERT(regs.size() == static_cast<std::size_t>(num_threads()), "register file size");
    std::vector<T> stage(regs.begin(), regs.end());
    for (int offset = w / 2; offset > 0; offset /= 2) {
      for (int ty = 0; ty < block_dim_.y; ++ty)
        for (int tx = 0; tx < w; ++tx) {
          const int i = tx + ty * w;
          const int j = (tx ^ offset) + ty * w;
          T v = stage[static_cast<std::size_t>(i)];
          v += stage[static_cast<std::size_t>(j)];
          regs[static_cast<std::size_t>(i)] = v;
        }
      std::copy(regs.begin(), regs.end(), stage.begin());
    }
  }

private:
  int block_id_;
  Dim3 grid_dim_, block_dim_;
  Arena shared_;
  Arena regs_;
  check::ThreadCtx chk_;
};

/// Launch a kernel: run kernel(Block&) for every block of a 1D grid,
/// dispatching blocks to the pool's workers ("SMs"). `name` labels the
/// launch's profiler event and trace span (nullptr = generic label).
template <class Kernel>
void launch(ThreadPool& pool, int grid_size, Dim3 block_dim, Kernel&& kernel,
            check::KernelScope* chk = nullptr, const char* name = nullptr) {
  ScopedEvent ev(name ? name : "exec:launch",
                 {{"grid", grid_size}, {"block_x", block_dim.x}, {"block_y", block_dim.y}});
  const Dim3 grid{grid_size, 1, 1};
  check::run_grid(pool, static_cast<std::size_t>(grid_size), chk, [&](std::size_t b) {
    Block blk(static_cast<int>(b), grid, block_dim);
    if (chk && chk->active()) blk.bind_check(chk->session());
    kernel(blk);
  });
}

} // namespace landau::exec
