#pragma once
// Compressed sparse row matrix and the COO coordinate list of paper §III-F.
//  * CsrMatrix: a fixed pattern with mutable values. Its per-entry adds
//    (add, add_atomic, add_values) search the row for each (i, j); they are
//    the test oracle.
//  * CooAssembler: a coordinate list fixed once ("preallocation"), which
//    builds the pattern it spans and resolves every coordinate to a value
//    index. Each grid's fem::ElementScatter holds one and adds through its
//    value indices.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/annotations.h"
#include "la/dense.h"
#include "la/vec.h"
#include "util/error.h"

namespace landau::la {

/// Sparsity pattern: sorted column indices per row. Built from couplings
/// (e.g. element closures) before any values exist.
class SparsityPattern {
public:
  explicit SparsityPattern(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
    lists_.resize(rows);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Declare that entry (i,j) may be nonzero.
  void add(std::size_t i, std::size_t j) {
    LANDAU_CHECK_RANGE(i, rows_);
    LANDAU_CHECK_RANGE(j, cols_);
    lists_[i].push_back(static_cast<std::int32_t>(j));
  }

  /// Declare all-to-all coupling among a dof set (one element's closure).
  void add_clique(std::span<const std::int32_t> dofs) {
    for (auto i : dofs)
      for (auto j : dofs) add(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
  }

  /// Sort/unique each row; must be called before building a matrix.
  void compress();

  const std::vector<std::int32_t>& row(std::size_t i) const { return lists_[i]; }
  std::size_t nnz() const;

private:
  std::size_t rows_, cols_;
  std::vector<std::vector<std::int32_t>> lists_;
  friend class CsrMatrix;
};

/// CSR matrix with fixed pattern and mutable values.
class CsrMatrix {
public:
  CsrMatrix() = default;
  explicit CsrMatrix(const SparsityPattern& pattern);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  std::span<const std::int32_t> row_offsets() const { return rowptr_; }
  std::span<const std::int32_t> col_indices() const { return colind_; }
  std::span<const double> values() const { return values_; }
  std::span<double> values() { return values_; }

  void zero_entries() { std::fill(values_.begin(), values_.end(), 0.0); }

  /// Index of entry (i,j) in the values array; throws if not in the pattern.
  std::size_t entry_index(std::size_t i, std::size_t j) const;
  /// Like entry_index but returns npos when absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find_entry(std::size_t i, std::size_t j) const noexcept;

  double get(std::size_t i, std::size_t j) const;
  void add(std::size_t i, std::size_t j, double v) { values_[entry_index(i, j)] += v; }
  /// Atomic add for concurrent assembly (models GPU atomicAdd on doubles).
  LANDAU_DEVICE void add_atomic(std::size_t i, std::size_t j, double v);

  /// MatSetValues(ADD_VALUES): add a dense block at (rows x cols).
  void add_values(std::span<const std::int32_t> rows, std::span<const std::int32_t> cols,
                  const DenseMatrix& block);

  /// y = A x
  void mult(const Vec& x, Vec& y) const;

  /// B = a*A + B for matrices with identical patterns (AXPY, SAME_NONZERO).
  void axpy(double a, const CsrMatrix& x);
  /// Add s to every diagonal entry (diagonal must be in the pattern).
  void shift_diagonal(double s);

  DenseMatrix to_dense() const;

  /// Max |j - i| over stored entries: matrix bandwidth.
  std::size_t bandwidth() const;

  /// No NaN/±Inf among the stored values (the paranoid-mode Jacobian audit).
  bool all_finite() const { return la::all_finite(values()); }

  /// A zeroed square matrix with the blocks' patterns on its diagonal, in
  /// order: block k's values follow block k-1's, with the same layout.
  static CsrMatrix block_diagonal(std::span<const CsrMatrix* const> blocks);

private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::int32_t> rowptr_;
  std::vector<std::int32_t> colind_;
  std::vector<double> values_;
};

/// COO assembly: the coordinate list is fixed once (the analog of PETSc's
/// MatSetPreallocationCOO), which builds a CSR matrix over the union pattern
/// and the value index of every coordinate; assemble() then scatters a value
/// array into it (MatSetValuesCOO).
class CooAssembler {
public:
  CooAssembler() = default;
  CooAssembler(std::size_t rows, std::size_t cols, std::vector<std::int32_t> coo_i,
               std::vector<std::int32_t> coo_j);

  /// Index into matrix().values() of each coordinate, in list order.
  std::span<const std::size_t> value_index() const { return perm_; }

  /// The CSR matrix this assembler targets (pattern only until assembled).
  const CsrMatrix& matrix() const { return mat_; }
  CsrMatrix& matrix() { return mat_; }

  /// Zero the matrix and scatter-add values (aligned with the coordinate
  /// list given at construction) into it.
  void assemble(std::span<const double> values);

private:
  CsrMatrix mat_;
  std::vector<std::size_t> perm_; // coo index -> csr value index
};

} // namespace landau::la
