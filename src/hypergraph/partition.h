// Multilevel k-way hypergraph partitioning (the hMetis substitute).
//
// Pipeline per bisection: heavy-edge coarsening -> greedy BFS-growth initial
// partition (multi-start) -> Fiduccia–Mattheyses refinement with rollback to
// the best prefix -> uncoarsening with FM at every level. k-way partitions
// are produced by recursive bisection with proportional weight targets;
// hyperedges cut at an outer level are excluded from the subproblems, so the
// objective is exactly the weight of hyperedges spanning more than one part.
#pragma once

#include <cstdint>

#include "hypergraph/hypergraph.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace sitam {

struct PartitionConfig {
  /// Balance tolerance: a part may weigh up to (1+epsilon) * its
  /// proportional target (and never less than the heaviest single vertex —
  /// otherwise some instances would be infeasible).
  double epsilon = 0.10;
  /// Independent multi-start attempts per bisection; best cut wins.
  int random_starts = 8;
  /// Maximum FM passes per refinement stage.
  int max_fm_passes = 16;
  /// Coarsening stops at this many vertices.
  int coarsen_limit = 48;
  std::uint64_t seed = 0x5eedULL;
  /// Non-owning cooperative cancellation token, checked before every
  /// bisection (nullptr = never cancelled). Control flow, not identity: no
  /// config or request hash includes it.
  const CancelToken* cancel = nullptr;
};

/// Partitions `hg` into `k` parts. Throws std::invalid_argument for k < 1 or
/// an invalid hypergraph, and sitam::Cancelled once config.cancel is
/// requested. For k >= vertex_count() every vertex gets its own part.
/// Deterministic for a fixed config.
[[nodiscard]] Partition partition_hypergraph(const Hypergraph& hg, int k,
                                             const PartitionConfig& config = {});

}  // namespace sitam
