#include "linalg/ordering.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "common/error.hpp"

namespace gp::linalg {

Permutation identity_permutation(std::int32_t n) {
  Permutation perm(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  return perm;
}

Permutation invert_permutation(const Permutation& perm) {
  Permutation inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<std::int32_t>(i);
  }
  return inv;
}

Permutation minimum_degree_ordering(const SparseMatrix& a) {
  require(a.rows() == a.cols(), "minimum_degree_ordering: matrix must be square");
  const std::int32_t n = a.rows();
  // Build symmetric adjacency (pattern of A + A^T, no self-loops), as sorted
  // unique neighbour lists.
  std::vector<std::vector<std::int32_t>> adj(static_cast<std::size_t>(n));
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  for (std::int32_t c = 0; c < n; ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const std::int32_t r = row_idx[p];
      if (r == c) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  }
  for (auto& neighbours : adj) {
    std::sort(neighbours.begin(), neighbours.end());
    neighbours.erase(std::unique(neighbours.begin(), neighbours.end()), neighbours.end());
  }

  std::vector<bool> eliminated(static_cast<std::size_t>(n), false);
  Permutation perm;
  perm.reserve(static_cast<std::size_t>(n));

  // Exact elimination-graph degrees, and a min-heap of (degree, vertex) keys
  // with lazy deletion: a vertex is re-pushed whenever its degree changes,
  // and a popped key is stale when its vertex is gone or its degree moved
  // on. The live key at the top is therefore the smallest degree, ties to
  // the smallest index — the same choice a scan over all live vertices makes.
  using Key = std::pair<std::int32_t, std::int32_t>;
  std::vector<std::int32_t> degree(static_cast<std::size_t>(n));
  std::vector<Key> initial_keys;
  initial_keys.reserve(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    degree[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(adj[static_cast<std::size_t>(v)].size());
    initial_keys.emplace_back(degree[static_cast<std::size_t>(v)], v);
  }
  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap(std::greater<>{},
                                                                  std::move(initial_keys));

  auto prune = [&](std::vector<std::int32_t>& neighbours) {
    neighbours.erase(std::remove_if(neighbours.begin(), neighbours.end(),
                                    [&](std::int32_t v) {
                                      return eliminated[static_cast<std::size_t>(v)];
                                    }),
                     neighbours.end());
  };

  std::vector<std::int32_t> merged;
  for (std::int32_t step = 0; step < n; ++step) {
    // Pop to the live vertex of minimum (up-to-date) degree.
    std::int32_t best = -1;
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (!eliminated[static_cast<std::size_t>(v)] && d == degree[static_cast<std::size_t>(v)]) {
        best = v;
        break;
      }
    }
    ensure(best >= 0, "minimum_degree_ordering: no live vertex found");

    auto& neighbours = adj[static_cast<std::size_t>(best)];
    prune(neighbours);
    eliminated[static_cast<std::size_t>(best)] = true;
    perm.push_back(best);

    // Form the elimination clique among the surviving neighbours.
    for (std::int32_t u : neighbours) {
      auto& list = adj[static_cast<std::size_t>(u)];
      prune(list);
      // Merge (sorted) the clique into u's adjacency, skipping u itself.
      merged.clear();
      merged.reserve(list.size() + neighbours.size());
      std::merge(list.begin(), list.end(), neighbours.begin(), neighbours.end(),
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      merged.erase(std::remove(merged.begin(), merged.end(), u), merged.end());
      list.swap(merged);
      const auto new_degree = static_cast<std::int32_t>(list.size());
      if (new_degree != degree[static_cast<std::size_t>(u)]) {
        degree[static_cast<std::size_t>(u)] = new_degree;
        heap.emplace(new_degree, u);
      }
    }
    neighbours.clear();
    neighbours.shrink_to_fit();
  }
  return perm;
}

SparseMatrix symmetric_permute_upper(const SparseMatrix& upper, const Permutation& perm,
                                     std::vector<std::int32_t>* entry_map) {
  require(upper.rows() == upper.cols(), "symmetric_permute_upper: matrix must be square");
  require(static_cast<std::int32_t>(perm.size()) == upper.rows(),
          "symmetric_permute_upper: permutation size mismatch");
  const std::int32_t n = upper.rows();
  const Permutation inv = invert_permutation(perm);
  const auto col_ptr = upper.col_ptr();
  const auto row_idx = upper.row_idx();
  const auto values = upper.values();
  const auto nnz = static_cast<std::size_t>(upper.nnz());

  // Permuted coordinates of every input entry, then a two-pass counting
  // sort: entries are bucketed by new row first, then dealt into their new
  // columns in row order, so every output column comes out row-sorted.
  std::vector<std::int32_t> new_row(nnz);
  std::vector<std::int32_t> new_col(nnz);
  std::vector<std::int32_t> row_start(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::int32_t> out_col_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (std::int32_t c = 0; c < n; ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const std::int32_t r = row_idx[p];
      ensure(r <= c, "symmetric_permute_upper: input must be upper triangular");
      const std::int32_t a = inv[static_cast<std::size_t>(r)];
      const std::int32_t b = inv[static_cast<std::size_t>(c)];
      new_row[static_cast<std::size_t>(p)] = std::min(a, b);
      new_col[static_cast<std::size_t>(p)] = std::max(a, b);
      ++row_start[static_cast<std::size_t>(std::min(a, b)) + 1];
      ++out_col_ptr[static_cast<std::size_t>(std::max(a, b)) + 1];
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    row_start[i + 1] += row_start[i];
    out_col_ptr[i + 1] += out_col_ptr[i];
  }
  std::vector<std::int32_t> by_row(nnz);
  for (std::size_t p = 0; p < nnz; ++p) {
    by_row[static_cast<std::size_t>(row_start[static_cast<std::size_t>(new_row[p])]++)] =
        static_cast<std::int32_t>(p);
  }
  std::vector<std::int32_t> map(nnz);
  std::vector<std::int32_t> out_row_idx(nnz);
  std::vector<double> out_values(nnz);
  std::vector<std::int32_t> next(out_col_ptr.begin(), out_col_ptr.end() - 1);
  for (const std::int32_t p : by_row) {
    const auto slot = next[static_cast<std::size_t>(new_col[static_cast<std::size_t>(p)])]++;
    map[static_cast<std::size_t>(p)] = slot;
    out_row_idx[static_cast<std::size_t>(slot)] = new_row[static_cast<std::size_t>(p)];
    out_values[static_cast<std::size_t>(slot)] = values[p];
  }
  if (entry_map != nullptr) *entry_map = std::move(map);
  return SparseMatrix::from_csc(n, n, std::move(out_col_ptr), std::move(out_row_idx),
                                std::move(out_values));
}

Vector permute(std::span<const double> x, const Permutation& perm) {
  require(x.size() == perm.size(), "permute: size mismatch");
  Vector out(x.size());
  for (std::size_t i = 0; i < perm.size(); ++i) out[i] = x[static_cast<std::size_t>(perm[i])];
  return out;
}

Vector permute_inverse(std::span<const double> x, const Permutation& perm) {
  require(x.size() == perm.size(), "permute_inverse: size mismatch");
  Vector out(x.size());
  for (std::size_t i = 0; i < perm.size(); ++i) out[static_cast<std::size_t>(perm[i])] = x[i];
  return out;
}

}  // namespace gp::linalg
