#include "fem/element_scatter.h"

#include <algorithm>
#include <atomic>

#include "util/error.h"

namespace landau::fem {

ElementScatter::ElementScatter(std::size_t n_dofs, int nb,
                               std::span<const std::int32_t> cell_nodes, const Closure& closure)
    : nb_(nb) {
  // The slot order: cell, test node a, trial node b, then the pairs of
  // closure(a) x closure(b). add() walks the same order.
  std::vector<std::int32_t> ci, cj;
  DofWeight self_a{}, self_b{};
  const auto expand = [&closure](std::int32_t node, DofWeight& self) {
    if (closure) return closure(node);
    self = {node, 1.0};
    return std::span<const DofWeight>(&self, 1);
  };
  const auto nbs = static_cast<std::size_t>(nb);
  entry_slots_.push_back(0);
  for (std::size_t c0 = 0; c0 < cell_nodes.size(); c0 += nbs) {
    const auto nodes = cell_nodes.subspan(c0, nbs);
    for (const std::int32_t a : nodes) {
      const auto ca = expand(a, self_a);
      for (const std::int32_t b : nodes) {
        const auto cb = expand(b, self_b);
        for (const DofWeight& p : ca)
          for (const DofWeight& q : cb) {
            ci.push_back(p.dof);
            cj.push_back(q.dof);
            weight_.push_back(p.weight * q.weight);
          }
        entry_slots_.push_back(static_cast<std::uint32_t>(ci.size()));
      }
    }
  }
  coo_ = la::CooAssembler(n_dofs, n_dofs, std::move(ci), std::move(cj));
}

LANDAU_DEVICE void ElementScatter::add(std::size_t cell, std::span<const double> terms,
                                       std::span<const double> coeff,
                                       std::span<const std::size_t> offsets,
                                       std::span<double> values, bool atomic,
                                       const exec::check::checked_span<double>* chk) const {
  using exec::check::Kind;
  const bool checked = chk && chk->active();
  const std::size_t ne = static_cast<std::size_t>(nb_) * static_cast<std::size_t>(nb_);
  const std::size_t nt = terms.size() / ne;
  LANDAU_ASSERT(nt * ne == terms.size() && coeff.size() == offsets.size() * nt,
                "element terms and coefficient table do not match the blocks");
  const auto index = coo_.value_index();
  const std::uint32_t* slots = entry_slots_.data() + cell * ne;
  for (std::size_t k = 0; k < offsets.size(); ++k) {
    const double* c = coeff.data() + k * nt;
    double* block = values.data() + offsets[k];
    for (std::size_t e = 0; e < ne; ++e) {
      double v = c[0] * terms[e];
      for (std::size_t t = 1; t < nt; ++t) v += c[t] * terms[t * ne + e];
      // Sparsity skip (bitwise compare intended): the entry's slots are
      // passed over.
      if (fp::exact_eq(v, 0.0)) continue;
      for (std::uint32_t s = slots[e]; s < slots[e + 1]; ++s) {
        const double contrib = weight_[s] * v;
        const std::size_t i = index[s];
        if (atomic)
          std::atomic_ref<double>(block[i]).fetch_add(contrib, std::memory_order_relaxed);
        else
          block[i] += contrib;
        if (checked) chk->note(offsets[k] + i, atomic ? Kind::Atomic : Kind::Write);
      }
    }
  }
}

void ElementScatter::check_layout(const la::CsrMatrix& j, std::size_t rows, std::size_t nnz,
                                  std::span<const std::size_t> offsets) const {
  LANDAU_ASSERT(j.rows() == rows && j.nnz() == nnz,
                "matrix is not the operator's: assemble into its new_matrix()");
  const auto brow = block_pattern().row_offsets();
  const auto jrow = j.row_offsets();
  for (const std::size_t value_offset : offsets) {
    // Row offsets increase by at least one (every row holds its diagonal),
    // so the block's first row is the one whose offset is the block's first
    // value.
    const auto off = static_cast<std::int32_t>(value_offset);
    const auto first = std::lower_bound(jrow.begin(), jrow.end(), off);
    const bool fits = jrow.end() - first >= std::ssize(brow) &&
                      std::equal(brow.begin(), brow.end(), first,
                                 [off](std::int32_t b, std::int32_t r) { return r == off + b; });
    LANDAU_ASSERT(fits, "the block at value " << off
                                              << " does not have the grid's pattern: assemble "
                                                 "into the operator's new_matrix()");
  }
}

} // namespace landau::fem
