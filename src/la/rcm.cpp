#include "la/rcm.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace landau::la {
namespace {

/// Symmetrized adjacency (excluding the diagonal) of the matrix graph.
std::vector<std::vector<std::int32_t>> build_adjacency(const CsrMatrix& a) {
  const std::size_t n = a.rows();
  std::vector<std::vector<std::int32_t>> adj(n);
  auto rowptr = a.row_offsets();
  auto colind = a.col_indices();
  for (std::size_t i = 0; i < n; ++i)
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const auto j = static_cast<std::size_t>(colind[k]);
      if (j == i) continue;
      adj[i].push_back(static_cast<std::int32_t>(j));
      adj[j].push_back(static_cast<std::int32_t>(i));
    }
  for (auto& row : adj) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return adj;
}

/// BFS from start; returns (levels, last vertex in the final level with
/// minimal degree) — used for the pseudo-peripheral vertex search.
std::int32_t bfs_eccentric(const std::vector<std::vector<std::int32_t>>& adj, std::int32_t start,
                           std::vector<std::int32_t>& level) {
  std::fill(level.begin(), level.end(), -1);
  std::queue<std::int32_t> q;
  q.push(start);
  level[start] = 0;
  std::int32_t last = start;
  while (!q.empty()) {
    const std::int32_t u = q.front();
    q.pop();
    last = u;
    for (std::int32_t v : adj[u])
      if (level[v] < 0) {
        level[v] = level[u] + 1;
        q.push(v);
      }
  }
  // Among vertices in the deepest level, prefer minimal degree.
  const std::int32_t depth = level[last];
  std::int32_t best = last;
  for (std::size_t v = 0; v < adj.size(); ++v)
    if (level[v] == depth && adj[v].size() < adj[best].size()) best = static_cast<std::int32_t>(v);
  return best;
}

} // namespace

std::vector<std::int32_t> rcm_ordering(const CsrMatrix& a) {
  const std::size_t n = a.rows();
  auto adj = build_adjacency(a);
  std::vector<std::int32_t> order;
  order.reserve(n);
  std::vector<char> visited(n, 0);
  std::vector<std::int32_t> level(n);

  for (std::size_t seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    // Pseudo-peripheral start: two BFS sweeps from the component's first vertex.
    std::int32_t start = static_cast<std::int32_t>(seed);
    start = bfs_eccentric(adj, start, level);
    // Cuthill–McKee BFS ordering neighbors by ascending degree.
    std::queue<std::int32_t> q;
    q.push(start);
    visited[start] = 1;
    while (!q.empty()) {
      const std::int32_t u = q.front();
      q.pop();
      order.push_back(u);
      std::vector<std::int32_t> nbrs;
      for (std::int32_t v : adj[u])
        if (!visited[v]) nbrs.push_back(v);
      std::sort(nbrs.begin(), nbrs.end(), [&](std::int32_t x, std::int32_t y) {
        return adj[x].size() < adj[y].size();
      });
      for (std::int32_t v : nbrs) {
        visited[v] = 1;
        q.push(v);
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<std::int32_t> band_ordering(const CsrMatrix& a) {
  auto rcm = rcm_ordering(a);
  std::vector<std::int32_t> natural(a.rows());
  std::iota(natural.begin(), natural.end(), 0);
  if (permuted_bandwidth(a, natural) >= permuted_bandwidth(a, rcm)) return rcm;
  std::int32_t nc = 0;
  const auto comp = connected_components(a, &nc);
  std::int32_t runs = comp.empty() ? 0 : 1;
  for (std::size_t i = 1; i < comp.size(); ++i) runs += comp[i] != comp[i - 1];
  return runs == nc ? natural : rcm;
}

std::vector<std::int32_t> invert_permutation(const std::vector<std::int32_t>& perm) {
  std::vector<std::int32_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<std::int32_t>(i);
  return inv;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, const std::vector<std::int32_t>& perm) {
  const std::size_t n = a.rows();
  LANDAU_ASSERT(perm.size() == n, "permutation size mismatch");
  auto inv = invert_permutation(perm);
  SparsityPattern pattern(n, n);
  auto rowptr = a.row_offsets();
  auto colind = a.col_indices();
  for (std::size_t i = 0; i < n; ++i) {
    const auto pi = static_cast<std::size_t>(inv[i]);
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
      pattern.add(pi, static_cast<std::size_t>(inv[static_cast<std::size_t>(colind[k])]));
  }
  pattern.compress();
  CsrMatrix b(pattern);
  for (std::size_t i = 0; i < n; ++i) {
    const auto pi = static_cast<std::size_t>(inv[i]);
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
      b.add(pi, static_cast<std::size_t>(inv[static_cast<std::size_t>(colind[k])]),
            a.values()[k]);
  }
  return b;
}

std::size_t permuted_bandwidth(const CsrMatrix& a, const std::vector<std::int32_t>& perm) {
  auto inv = invert_permutation(perm);
  auto rowptr = a.row_offsets();
  auto colind = a.col_indices();
  std::size_t bw = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::int32_t pi = inv[i];
    for (std::int32_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const std::int32_t pj = inv[static_cast<std::size_t>(colind[k])];
      bw = std::max<std::size_t>(bw, static_cast<std::size_t>(std::abs(pi - pj)));
    }
  }
  return bw;
}

std::vector<std::int32_t> connected_components(const CsrMatrix& a, std::int32_t* n_components) {
  auto adj = build_adjacency(a);
  const std::size_t n = a.rows();
  std::vector<std::int32_t> comp(n, -1);
  std::int32_t nc = 0;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (comp[seed] >= 0) continue;
    std::queue<std::int32_t> q;
    q.push(static_cast<std::int32_t>(seed));
    comp[seed] = nc;
    while (!q.empty()) {
      const std::int32_t u = q.front();
      q.pop();
      for (std::int32_t v : adj[u])
        if (comp[v] < 0) {
          comp[v] = nc;
          q.push(v);
        }
    }
    ++nc;
  }
  if (n_components) *n_components = nc;
  return comp;
}

} // namespace landau::la
