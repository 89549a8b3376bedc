// Two-dimensional SI test-set compaction: grouping (horizontal) on top of
// pattern-count compaction (vertical), per §3 of the paper.
//
// Cores are partitioned into `parts` groups by min-cut hypergraph
// partitioning (vertex = core, weight = WOC count; hyperedge = distinct
// care-core set, weight = pattern multiplicity). Patterns whose care cores
// all fall in one group are applied with a shortened length (only that
// group's WOCs are loaded; all other core boundaries are bypassed); the rest
// form a *remainder* group that still loads every core's WOCs. Each group is
// then compacted independently with the greedy clique-cover heuristic.
//
// SiTestSetBuilder does the grouping-independent part once per raw pattern
// set — every pattern's care-core set and the core hypergraph — and then
// builds any number of groupings from it: partition, bucket pattern
// *indices* (parts, then the remainder), count-compact each bucket. No
// pattern is copied and no compacted pattern is built; only counts leave.
// build_si_test_set is the one-grouping wrapper over it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hypergraph/partition.h"
#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/pattern.h"

namespace sitam {

/// One schedulable SI test (a group of compacted patterns).
struct SiTestGroup {
  std::string label;          ///< "g1", "g2", ..., "rem".
  std::vector<int> cores;     ///< Sorted 0-based core indices whose WOCs are
                              ///< loaded by every pattern of this group.
  std::int64_t patterns = 0;  ///< Compacted pattern count.
  std::int64_t raw_patterns = 0;  ///< Pattern count before compaction.
  bool is_remainder = false;
  /// Peak test power while this group applies patterns (arbitrary units;
  /// 0 = not modelled). See assign_si_power().
  std::int64_t power = 0;
  /// True iff any pattern of this group occupies shared-bus lines; with
  /// EvaluatorOptions::exclusive_bus the bus becomes a scheduling resource
  /// (at most one bus-using SI test at a time).
  bool uses_bus = false;
};

struct SiTestSet {
  int parts = 1;                    ///< Grouping parameter i of the paper.
  std::vector<SiTestGroup> groups;  ///< Non-empty groups only.

  [[nodiscard]] std::int64_t total_patterns() const;
  [[nodiscard]] std::int64_t total_raw_patterns() const;
};

struct GroupingConfig {
  PartitionConfig partition;  ///< Partitioner knobs (seeded, deterministic).
  int bus_width = 32;         ///< Bus postfix width (accumulator sizing).
  /// Vertical-compaction knobs, forwarded to compact_greedy_count for every
  /// bucket (output-neutral; see CompactionConfig).
  CompactionConfig compaction;
};

/// Builds the core-level hypergraph of §3/Fig. 2 from a raw pattern set:
/// one edge per distinct non-empty care-core set, weighted by how many
/// patterns have it, in lexicographic pin order (as Hypergraph::normalize).
[[nodiscard]] Hypergraph build_core_hypergraph(
    std::span<const SiPattern> patterns, const TerminalSpace& terminals);

/// The same hypergraph from care sets already computed.
[[nodiscard]] Hypergraph build_core_hypergraph(const CareSets& care,
                                               const TerminalSpace& terminals);

/// Assigns every group a peak-power rating:
///   power = base_units + units_per_cell * Σ boundary cells of its cores.
/// The per-cell term models boundary switching; `base_units` models the
/// fixed cost of an active test session (clock tree, ATE channel drivers),
/// which is what makes concurrent sessions compete for the budget even
/// when their cores are disjoint. Used by the power-constrained scheduling
/// extension.
void assign_si_power(SiTestSet& set, const Soc& soc,
                     std::int64_t units_per_cell = 1,
                     std::int64_t base_units = 0);

/// The shared part of two-dimensional compaction for one raw pattern set;
/// see the file comment. Borrows `patterns` and `terminals`, which must
/// outlive it. build() only reads the builder, so any number of build()
/// calls may run at once.
class SiTestSetBuilder {
 public:
  /// Computes the care sets and the core hypergraph if some entry of
  /// `groupings` exceeds 1 (grouping 1 needs neither).
  SiTestSetBuilder(std::span<const SiPattern> patterns,
                   const TerminalSpace& terminals,
                   std::span<const int> groupings);

  /// Full two-dimensional compaction for grouping `parts`: partitions the
  /// cores into `parts` groups, buckets the patterns and counts each
  /// bucket's greedy compaction. parts == 1 degenerates to pure vertical
  /// compaction with a single group spanning all cores. Throws
  /// std::invalid_argument for parts < 1 or for parts > 1 when the
  /// constructor's groupings had none above 1, and sitam::Cancelled once
  /// config.partition.cancel or config.compaction.cancel is requested.
  [[nodiscard]] SiTestSet build(int parts, const GroupingConfig& config) const;

 private:
  std::span<const SiPattern> patterns_;
  const TerminalSpace* terminals_;
  std::optional<CareSets> care_;  // set iff some grouping exceeds 1
  Hypergraph hypergraph_;
};

/// SiTestSetBuilder(patterns, terminals, {parts}).build(parts, config).
[[nodiscard]] SiTestSet build_si_test_set(std::span<const SiPattern> patterns,
                                          const TerminalSpace& terminals,
                                          int parts,
                                          const GroupingConfig& config);

}  // namespace sitam
