// Weighted hypergraph and partition types.
//
// Used by the horizontal SI compaction (§3): vertices are cores (weight =
// WOC count), hyperedges are distinct care-core sets (weight = number of
// patterns with that care set). The partitioner's objective — minimize the
// weight of cut hyperedges under balanced part weights — directly minimizes
// the number of remainder patterns that must span all cores.
#pragma once

#include <cstdint>
#include <vector>

namespace sitam {

struct Hyperedge {
  std::vector<int> pins;      ///< Vertex ids, kept sorted and unique.
  std::int64_t weight = 1;
};

struct Hypergraph {
  std::vector<std::int64_t> vertex_weights;
  std::vector<Hyperedge> edges;

  [[nodiscard]] int vertex_count() const {
    return static_cast<int>(vertex_weights.size());
  }
  [[nodiscard]] std::int64_t total_vertex_weight() const;
  [[nodiscard]] std::int64_t total_edge_weight() const;

  /// Sorts/uniquifies pins, drops empty edges, merges duplicate pin sets
  /// (summing weights) and leaves the edges in lexicographic pin order.
  /// Call after bulk construction.
  void normalize();

  /// Throws std::invalid_argument on out-of-range pins, non-positive
  /// weights, or unsorted pins (call normalize() first).
  void validate() const;
};

struct Partition {
  std::vector<int> part_of;  ///< part id per vertex, in [0, parts).
  int parts = 0;

  /// Total weight of hyperedges spanning more than one part.
  [[nodiscard]] std::int64_t cut_weight(const Hypergraph& hg) const;
  /// Number of hyperedges spanning more than one part.
  [[nodiscard]] std::int64_t cut_edges(const Hypergraph& hg) const;
  /// Vertex weight per part.
  [[nodiscard]] std::vector<std::int64_t> part_weights(
      const Hypergraph& hg) const;
  /// max(part weight) / (total/parts) − 1; 0 means perfectly balanced.
  [[nodiscard]] double imbalance(const Hypergraph& hg) const;
  /// True iff `edge` has pins in at least two parts.
  [[nodiscard]] bool is_cut(const Hyperedge& edge) const;
};

}  // namespace sitam
