#pragma once
// Global degree-of-freedom management for continuous Qk elements on the
// non-conforming (2:1 balanced) quadtree forest.
//
// Nodes are identified by exact topological keys (corner lattice points,
// edge-interior nodes keyed by their edge, cell-interior nodes keyed by
// their cell), so geometrically coincident nodes of neighboring cells merge
// without floating-point comparisons — including across refinement levels,
// where only cell corners (and, for even k, edge midpoints) coincide.
//
// Hanging nodes — nodes on a fine-cell edge whose neighbor is coarser — are
// *constrained*: their value interpolates the coarse neighbor's edge nodes
// through the coarse 1D basis. For Q3 that is 4 masters per constrained
// node, which is exactly the 4-way interpolation the paper describes in the
// assembly discussion (§V-A1). Constraint chains (a master hanging on a yet
// coarser edge through a corner) are resolved transitively.

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "exec/annotations.h"
#include "fem/tabulation.h"
#include "mesh/forest.h"

namespace landau::fem {

/// One (master dof, weight) pair of a node's closure.
struct DofWeight {
  std::int32_t dof;
  double weight;
};

class DofMap {
public:
  DofMap(const mesh::Forest& forest, const Tabulation& tab);

  int order() const { return order_; }
  std::size_t n_cells() const { return cell_nodes_.size() / static_cast<std::size_t>(nb_); }
  std::size_t n_nodes() const { return positions_.size(); }
  /// Number of unconstrained nodes == number of equations per species
  /// (the paper's "n").
  std::size_t n_free() const { return n_free_; }

  /// Global node ids of cell c's (k+1)^2 nodes, x-fastest.
  std::span<const std::int32_t> cell_nodes(std::size_t c) const {
    return {cell_nodes_.data() + c * static_cast<std::size_t>(nb_),
            static_cast<std::size_t>(nb_)};
  }
  /// Every cell's nodes, cell after cell.
  std::span<const std::int32_t> cell_nodes() const { return cell_nodes_; }

  bool is_constrained(std::int32_t node) const { return free_index_[static_cast<std::size_t>(node)] < 0; }
  /// Free-dof index of an unconstrained node; -1 for constrained nodes.
  std::int32_t free_index(std::int32_t node) const { return free_index_[static_cast<std::size_t>(node)]; }

  /// Closure of a node: list of (free dof, weight) whose combination gives
  /// the node's value. Identity for free nodes.
  LANDAU_DEVICE std::span<const DofWeight> closure(std::int32_t node) const {
    const auto& range = closure_ranges_[static_cast<std::size_t>(node)];
    return {closure_data_.data() + range.first, range.second};
  }

  /// Geometric position of a node.
  std::array<double, 2> position(std::int32_t node) const { return positions_[static_cast<std::size_t>(node)]; }

  /// Scatter free-dof values to all nodes (applying constraints).
  void expand(std::span<const double> free_values, std::span<double> node_values) const;

  /// Accumulate node-space residuals into free dofs (transpose of expand).
  void restrict_add(std::span<const double> node_values, std::span<double> free_values) const;

  /// Free dofs coupled by cell c (union of the closures of its nodes,
  /// deduplicated) — the element's assembly footprint.
  std::vector<std::int32_t> cell_free_dofs(std::size_t c) const;

private:
  int order_, nb_;
  std::vector<std::int32_t> cell_nodes_;
  std::vector<std::array<double, 2>> positions_;
  std::vector<std::int32_t> free_index_;
  std::vector<std::pair<std::size_t, std::size_t>> closure_ranges_; // (offset, count)
  std::vector<DofWeight> closure_data_;
  std::size_t n_free_ = 0;
};

} // namespace landau::fem
