// Fill-reducing orderings and symmetric permutation for sparse LDL^T.
//
// The fill-reducing ordering is exact greedy minimum degree (quotient-free:
// explicit elimination cliques, exact degrees, ties to the smallest vertex
// index). The next pivot comes off a lazy-deletion min-heap keyed on
// (degree, vertex), so selection costs O(log n) per degree change and the
// whole ordering is O(fill * log n) plus the clique merges — not the O(n^2)
// of scanning every live vertex per step, which returns the same
// permutation. Measured on window KKTs of the MPC controller (W = 5, -O2,
// 4-vCPU Xeon VM, one thread):
//   paper_full         n =   1,620:  1.3 ms  (scan: 4.7 ms)
//   scale_smoke        n =  15,100:   37 ms  (scan: 324 ms)
//   scale_continental  n = 331,000:  1.7 s   (scan: minutes)
// Memory is the explicit clique lists, i.e. O(nnz(L)). An identity ordering
// is available for tests and ablations.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/sparse_matrix.hpp"

namespace gp::linalg {

/// Permutation vector semantics: perm[new_index] = old_index.
using Permutation = std::vector<std::int32_t>;

/// Identity permutation of size n.
Permutation identity_permutation(std::int32_t n);

/// Inverse permutation: inv[perm[i]] = i.
Permutation invert_permutation(const Permutation& perm);

/// Exact greedy minimum-degree ordering of the symmetric sparsity pattern of
/// A (the pattern of A + A^T is used; values are ignored). A must be square.
Permutation minimum_degree_ordering(const SparseMatrix& a);

/// Symmetric permutation of a square symmetric matrix given by its UPPER
/// triangle: returns the upper triangle of P A P^T where row/col old index
/// perm[i] maps to new index i. O(nnz + n) (counting sort, no comparison
/// sort). When `entry_map` is given it receives, for every stored entry p of
/// `upper`, the position of that entry in the result:
/// result.values()[(*entry_map)[p]] == upper.values()[p].
SparseMatrix symmetric_permute_upper(const SparseMatrix& upper, const Permutation& perm,
                                     std::vector<std::int32_t>* entry_map = nullptr);

/// Applies a permutation to a vector: out[i] = x[perm[i]].
Vector permute(std::span<const double> x, const Permutation& perm);

/// Applies the inverse permutation: out[perm[i]] = x[i].
Vector permute_inverse(std::span<const double> x, const Permutation& perm);

}  // namespace gp::linalg
