#pragma once
// The one element scatter of every assembled operator (§III-F's COO list):
// a grid's element entries, expanded into their nodes' closures, fixed once
// as a coordinate list that gives the block pattern and each slot's value
// index and closure-weight product, so no add looks up (row, column).

#include <functional>
#include <span>
#include <vector>

#include "exec/annotations.h"
#include "exec/check.h"
#include "fem/dofmap.h"
#include "la/csr.h"

namespace landau::fem {

class ElementScatter {
public:
  /// The closure of a node: the dofs and weights its value combines.
  using Closure = std::function<std::span<const DofWeight>(std::int32_t node)>;

  ElementScatter() = default;
  /// cell_nodes holds every cell's nb nodes, cell after cell. Entry (a, b)
  /// of cell c owns the slots closure(a) x closure(b), in that order; with
  /// no closure, each node is its own dof with weight 1.
  ElementScatter(std::size_t n_dofs, int nb, std::span<const std::int32_t> cell_nodes,
                 const Closure& closure = {});

  /// One block's pattern, with zero values: the pattern of every species
  /// block of every operator matrix on this grid.
  const la::CsrMatrix& block_pattern() const { return coo_.matrix(); }

  /// Add one cell's element terms X_t (terms is [t][a][b]) into blocks of
  /// values: block k, from value offsets[k], receives sum_t coeff[k * n_t + t]
  /// X_t. Each nonzero entry v adds w * v at each of its slots, atomically
  /// (§III-F's atomicAdd) or plainly; chk, when active, records every add.
  LANDAU_DEVICE void add(std::size_t cell, std::span<const double> terms,
                         std::span<const double> coeff, std::span<const std::size_t> offsets,
                         std::span<double> values, bool atomic,
                         const exec::check::checked_span<double>* chk = nullptr) const;

  /// A value index proves nothing about j's pattern, so every assembly entry
  /// point calls this once: throw unless j has rows x nnz and each block's
  /// rows carry block_pattern()'s row offsets from the block's value offset.
  void check_layout(const la::CsrMatrix& j, std::size_t rows, std::size_t nnz,
                    std::span<const std::size_t> offsets) const;

private:
  int nb_ = 0;
  la::CooAssembler coo_;                   // the coordinate list, resolved
  std::vector<double> weight_;             // closure-weight product per slot
  std::vector<std::uint32_t> entry_slots_; // slots of entry e: [slots[e], slots[e + 1])
};

} // namespace landau::fem
