// Linear-time DFS broadcasting under the KNOWN-NEIGHBORHOOD model
// ([2] Awerbuch / [3] Bar-Yehuda–Goldreich–Itai, discussed in the paper's
// §1.1: "a simple linear-time broadcasting algorithm based on DFS follows
// from [2]").
//
// Model extension: each node knows the labels of its neighbors a priori —
// strictly more knowledge than the paper's main model (own label + r), and
// exactly what makes Echo/Binary-Selection unnecessary. A token walks the
// graph in DFS order:
//   * on first receiving the token a node transmits one announcement; every
//     neighbor hears it (single transmitter) and marks the node visited, so
//     each node always knows which of its own neighbors remain unvisited;
//   * the holder then forwards the token to its lowest-labeled unvisited
//     neighbor, or back to its parent when none remain.
// Two steps per visit plus one per backtrack ⇒ O(n) total, collision-free.
//
// This is the natural "what neighborhood knowledge buys" baseline next to
// Select-and-Send's O(n log n) — the per-visit Θ(log n) selection cost is
// exactly the price of not knowing one's neighbors.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "sim/protocol.h"

namespace radiocast {

class dfs_known_protocol final : public protocol {
 public:
  /// The protocol hands each node its own adjacency list from `g` — the
  /// known-neighborhood assumption. The lists are copied at construction;
  /// runs must use the same topology.
  explicit dfs_known_protocol(const graph& g);

  std::string name() const override { return "dfs-known-neighbors"; }
  bool deterministic() const override { return true; }
  std::unique_ptr<const bound_protocol> bind(node_id r) const override;

 private:
  /// Every node's neighbor labels, sorted, in CSR form: node v's list is
  /// adj_[row_[v] … row_[v+1]).
  std::vector<std::size_t> row_;
  std::vector<node_id> adj_;
};

}  // namespace radiocast
