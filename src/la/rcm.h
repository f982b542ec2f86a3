#pragma once
// Reverse Cuthill–McKee ordering (Cuthill & McKee 1969). The paper's band
// solver relies on RCM to minimize bandwidth; on multi-species Landau
// Jacobians RCM also naturally exposes the block-diagonal species structure
// because the species blocks are disconnected components of the matrix graph.

#include <cstdint>
#include <vector>

#include "la/csr.h"

namespace landau::la {

/// Compute the RCM permutation of the symmetrized graph of A.
/// Returns perm with perm[new_index] = old_index.
std::vector<std::int32_t> rcm_ordering(const CsrMatrix& a);

/// The band solvers' ordering: RCM, or the natural ordering when that is
/// strictly narrower and keeps every graph component contiguous. RCM is a
/// heuristic — on the uniform 3-D velocity grid its diagonal level sets give
/// twice the bandwidth of the plane-by-plane numbering; on the refined 2-D
/// meshes it wins.
std::vector<std::int32_t> band_ordering(const CsrMatrix& a);

/// Inverse of a permutation (old_index -> new_index).
std::vector<std::int32_t> invert_permutation(const std::vector<std::int32_t>& perm);

/// Build the symmetrically permuted matrix B = P A P^T where row/col i of B is
/// row/col perm[i] of A.
CsrMatrix permute_symmetric(const CsrMatrix& a, const std::vector<std::int32_t>& perm);

/// Bandwidth of A under permutation perm (without forming the permuted matrix).
std::size_t permuted_bandwidth(const CsrMatrix& a, const std::vector<std::int32_t>& perm);

/// Connected components of the symmetrized matrix graph; returns component id
/// per row. Multi-species Landau Jacobians have one component per species
/// (times mesh connectivity), which the block band solver exploits.
std::vector<std::int32_t> connected_components(const CsrMatrix& a, std::int32_t* n_components);

} // namespace landau::la
