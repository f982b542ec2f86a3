#pragma once
// Kokkos-style portability layer on top of the same emulated substrate as
// cuda_sim.h. Mirrors the subset of Kokkos the paper's kernel uses (§III-D):
//
//  * TeamPolicy(league_size, team_size, vector_length) — a league member maps
//    to a CUDA block / an OpenMP thread; team threads map to threadIdx.y;
//    vector lanes map to threadIdx.x / SVE lanes.
//  * parallel_for over TeamThreadRange, parallel_reduce over
//    ThreadVectorRange with reductions on general C++ objects equipped with a
//    default constructor and operator+= ("join").
//  * team scratch memory (variable-length shared arrays).
//
// Unlike the CUDA version, user code here never manages shuffle machinery —
// the reduction is hidden in vector_reduce, exactly the contrast the paper
// draws between its two implementations.

#include <cstddef>
#include <span>

#include "exec/cuda_sim.h"
#include "exec/thread_pool.h"

namespace landau::exec::kokkos {

struct TeamPolicy {
  int league_size = 1;
  int team_size = 1;     // "threads" (CUDA y-dimension / OpenMP chunks)
  int vector_length = 1; // "vector lanes" (CUDA x-dimension / SVE lanes)
};

/// Handle given to the team functor; one per league member.
class TeamMember {
public:
  TeamMember(int league_rank, const TeamPolicy& policy) : rank_(league_rank), policy_(policy) {}

  int league_rank() const { return rank_; }
  int league_size() const { return policy_.league_size; }
  int team_size() const { return policy_.team_size; }
  int vector_length() const { return policy_.vector_length; }

  /// Bind this league member to an active checker session. The member's
  /// access identity maps (team thread, vector lane) to the flat thread id
  /// lane + thread * vector_length — the same layout the CUDA back-end uses.
  void bind_check(check::KernelSession* session) {
    chk_.session = session;
    chk_.block = rank_;
  }
  check::ThreadCtx& check_ctx() const { return chk_; }

  /// Bind a globally registered buffer to this member's access identity.
  template <class T> check::checked_span<T> view(check::BufferRef<T> ref) const {
    return {ref, &chk_};
  }

  /// Team scratch (shared) memory; variable length, as Kokkos provides.
  /// Registered uninitialized under the checker, like CUDA shared memory.
  template <class T>
  check::checked_span<T> team_scratch(std::size_t n, const char* name = "scratch") {
    std::span<T> s = scratch_.alloc<T>(n);
    if (chk_.session) {
      auto* sb = chk_.session->add_buffer(name, check::Space::Shared, s.data(), s.size(), sizeof(T),
                                          std::is_same_v<std::remove_cv_t<T>, double>,
                                          /*writable=*/true, /*initialized=*/false, rank_);
      return {check::BufferRef<T>{s.data(), s.size(), sb}, &chk_};
    }
    return {s};
  }

  /// parallel_for(TeamThreadRange(member, n), f): distribute [0,n) over the
  /// team's threads. Emulated as an ordered loop; iteration i belongs to team
  /// thread i % team_size, as with a strided CUDA loop.
  template <class F> void team_range(int n, F&& f) const {
    for (int i = 0; i < n; ++i) {
      ty_ = i % policy_.team_size;
      set_thread();
      f(i);
    }
    ty_ = -1;
    set_thread();
  }

  /// parallel_reduce(ThreadVectorRange(member, n), f, result): reduce over
  /// vector lanes into any object with operator+= via f(i, update).
  template <class F, class R> void vector_reduce(int n, F&& f, R& result) const {
    R acc{};
    for (int i = 0; i < n; ++i) {
      lane_ = i % policy_.vector_length;
      set_thread();
      f(i, acc);
    }
    lane_ = -1;
    set_thread();
    result += acc;
  }

  /// parallel_for(ThreadVectorRange(member, n), f).
  template <class F> void vector_range(int n, F&& f) const {
    for (int i = 0; i < n; ++i) {
      lane_ = i % policy_.vector_length;
      set_thread();
      f(i);
    }
    lane_ = -1;
    set_thread();
  }

  /// Close the current access phase under the checker (no-op otherwise —
  /// league members already run their ranges in order).
  void team_barrier() const {
    if (chk_.session) {
      const int id = chk_.sync_count++;
      if (id != check::options().drop_sync) ++chk_.phase;
    }
  }

private:
  void set_thread() const {
    if (ty_ < 0 && lane_ < 0)
      chk_.thread = check::kUniformThread;
    else
      chk_.thread = (lane_ < 0 ? 0 : lane_) + (ty_ < 0 ? 0 : ty_) * policy_.vector_length;
  }

  int rank_;
  TeamPolicy policy_;
  mutable Arena scratch_;
  mutable check::ThreadCtx chk_;
  mutable int ty_ = -1, lane_ = -1;
};

/// parallel_for over the league: each league member runs on one pool worker
/// (one SM with the CUDA back-end, one OpenMP thread with the OpenMP one).
/// `name` labels the dispatch's profiler event and trace span, as with
/// exec::launch.
template <class Functor>
void parallel_for(ThreadPool& pool, const TeamPolicy& policy, Functor&& functor,
                  check::KernelScope* chk = nullptr, const char* name = nullptr) {
  ScopedEvent ev(name ? name : "kokkos:parallel_for",
                 {{"league", policy.league_size},
                  {"team", policy.team_size},
                  {"vector", policy.vector_length}});
  check::run_grid(pool, static_cast<std::size_t>(policy.league_size), chk, [&](std::size_t rank) {
    TeamMember member(static_cast<int>(rank), policy);
    if (chk && chk->active()) member.bind_check(chk->session());
    functor(member);
  });
}

} // namespace landau::exec::kokkos
