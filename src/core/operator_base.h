#pragma once
// Abstract interface between collision operators and the implicit time
// integrator: everything the quasi-Newton backward-Euler advance needs.
// Implemented by LandauOperator (one or more velocity grids, §III-H) and the
// 3-D Landau3DOperator.

#include "exec/counters.h"
#include "exec/thread_pool.h"
#include "la/csr.h"
#include "la/vec.h"

namespace landau {

class CollisionOperatorBase {
public:
  virtual ~CollisionOperatorBase() = default;

  /// Total number of equations (all species, all grids).
  virtual std::size_t n_total() const = 0;

  /// The (block) cylindrical mass matrix over the full system.
  virtual const la::CsrMatrix& mass() const = 0;

  /// A zeroed matrix with the system's block sparsity.
  virtual la::CsrMatrix new_matrix() const = 0;

  /// Pack integration-point data from a state (device inputs of Algorithm 1).
  virtual void pack(const la::Vec& state) = 0;

  /// J += C(f_packed), the frozen-coefficient collision operator. Each
  /// kernel launch adds its work to its own profiler event; `counters`, when
  /// given, receives the same flops and bytes.
  virtual void add_collision(la::CsrMatrix& j, exec::KernelCounters* counters = nullptr) = 0;

  /// J += A, the E-field advection blocks.
  virtual void add_advection(la::CsrMatrix& j, double e_z) const = 0;

  /// The worker pool playing the device in the emulated execution model
  /// (shared with device-side linear solvers).
  virtual exec::ThreadPool& worker_pool() = 0;
};

} // namespace landau
