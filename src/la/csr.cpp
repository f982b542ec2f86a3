#include "la/csr.h"

#include <algorithm>
#include <atomic>

namespace landau::la {

void SparsityPattern::compress() {
  for (auto& row : lists_) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
}

std::size_t SparsityPattern::nnz() const {
  std::size_t n = 0;
  for (const auto& row : lists_) n += row.size();
  return n;
}

CsrMatrix::CsrMatrix(const SparsityPattern& pattern)
    : rows_(pattern.rows()), cols_(pattern.cols()) {
  rowptr_.resize(rows_ + 1, 0);
  for (std::size_t i = 0; i < rows_; ++i) {
    // Pattern rows must be compressed (sorted/unique).
    const auto& row = pattern.lists_[i];
    LANDAU_ASSERT(std::is_sorted(row.begin(), row.end()), "pattern not compressed (row " << i << ")");
    rowptr_[i + 1] = rowptr_[i] + static_cast<std::int32_t>(row.size());
  }
  colind_.reserve(static_cast<std::size_t>(rowptr_[rows_]));
  for (std::size_t i = 0; i < rows_; ++i)
    colind_.insert(colind_.end(), pattern.lists_[i].begin(), pattern.lists_[i].end());
  values_.assign(colind_.size(), 0.0);
}

std::size_t CsrMatrix::find_entry(std::size_t i, std::size_t j) const noexcept {
  const auto* begin = colind_.data() + rowptr_[i];
  const auto* end = colind_.data() + rowptr_[i + 1];
  const auto* it = std::lower_bound(begin, end, static_cast<std::int32_t>(j));
  if (it == end || *it != static_cast<std::int32_t>(j)) return npos;
  return static_cast<std::size_t>(rowptr_[i] + (it - begin));
}

std::size_t CsrMatrix::entry_index(std::size_t i, std::size_t j) const {
  LANDAU_CHECK_RANGE(i, rows_);
  const std::size_t k = find_entry(i, j);
  if (k == npos) LANDAU_THROW("entry (" << i << "," << j << ") not in sparsity pattern");
  return k;
}

double CsrMatrix::get(std::size_t i, std::size_t j) const {
  const std::size_t k = find_entry(i, j);
  return k == npos ? 0.0 : values_[k];
}

LANDAU_DEVICE void CsrMatrix::add_atomic(std::size_t i, std::size_t j, double v) {
  std::atomic_ref<double> ref(values_[entry_index(i, j)]);
  ref.fetch_add(v, std::memory_order_relaxed);
}

void CsrMatrix::add_values(std::span<const std::int32_t> rows,
                           std::span<const std::int32_t> cols, const DenseMatrix& block) {
  LANDAU_ASSERT(block.rows() == rows.size() && block.cols() == cols.size(),
                "add_values block shape mismatch");
  for (std::size_t bi = 0; bi < rows.size(); ++bi) {
    const std::size_t i = static_cast<std::size_t>(rows[bi]);
    for (std::size_t bj = 0; bj < cols.size(); ++bj)
      values_[entry_index(i, static_cast<std::size_t>(cols[bj]))] += block(bi, bj);
  }
}

void CsrMatrix::mult(const Vec& x, Vec& y) const {
  LANDAU_ASSERT(x.size() == cols_ && y.size() == rows_, "csr mult size mismatch");
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (std::int32_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k)
      s += values_[k] * x[static_cast<std::size_t>(colind_[k])];
    y[i] = s;
  }
}

void CsrMatrix::axpy(double a, const CsrMatrix& x) {
  LANDAU_ASSERT(x.nnz() == nnz() && x.rows() == rows(), "axpy requires identical patterns");
  for (std::size_t k = 0; k < values_.size(); ++k) values_[k] += a * x.values_[k];
}

void CsrMatrix::shift_diagonal(double s) {
  for (std::size_t i = 0; i < rows_; ++i) values_[entry_index(i, i)] += s;
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::int32_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k)
      d(i, static_cast<std::size_t>(colind_[k])) = values_[k];
  return d;
}

std::size_t CsrMatrix::bandwidth() const {
  std::size_t bw = 0;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::int32_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
      const auto j = static_cast<std::size_t>(colind_[k]);
      bw = std::max(bw, i > j ? i - j : j - i);
    }
  return bw;
}

CsrMatrix CsrMatrix::block_diagonal(std::span<const CsrMatrix* const> blocks) {
  CsrMatrix m;
  m.rowptr_.push_back(0);
  for (const CsrMatrix* b : blocks) {
    const auto first_col = static_cast<std::int32_t>(m.rows_);
    const std::int32_t first_value = m.rowptr_.back();
    for (std::size_t i = 1; i <= b->rows_; ++i) m.rowptr_.push_back(first_value + b->rowptr_[i]);
    for (const std::int32_t c : b->colind_) m.colind_.push_back(first_col + c);
    m.rows_ += b->rows_;
  }
  m.cols_ = m.rows_;
  m.values_.assign(m.colind_.size(), 0.0);
  return m;
}

CooAssembler::CooAssembler(std::size_t rows, std::size_t cols, std::vector<std::int32_t> coo_i,
                           std::vector<std::int32_t> coo_j) {
  LANDAU_ASSERT(coo_i.size() == coo_j.size(), "COO index arrays must have equal length");
  SparsityPattern pattern(rows, cols);
  for (std::size_t k = 0; k < coo_i.size(); ++k)
    pattern.add(static_cast<std::size_t>(coo_i[k]), static_cast<std::size_t>(coo_j[k]));
  pattern.compress();
  mat_ = CsrMatrix(pattern);
  perm_.resize(coo_i.size());
  for (std::size_t k = 0; k < coo_i.size(); ++k)
    perm_[k] = mat_.entry_index(static_cast<std::size_t>(coo_i[k]),
                                static_cast<std::size_t>(coo_j[k]));
}

void CooAssembler::assemble(std::span<const double> values) {
  LANDAU_ASSERT(values.size() == perm_.size(), "COO value array length mismatch");
  mat_.zero_entries();
  auto v = mat_.values();
  for (std::size_t k = 0; k < perm_.size(); ++k) v[perm_[k]] += values[k];
}

} // namespace landau::la
