// Vertical SI test compaction: pattern-count reduction (§3).
//
// Finding the minimum compacted set is the NP-complete clique covering
// problem on the pattern-compatibility graph. Both solvers below run one
// engine — first-fit over class-occupancy bitsets — in two orders:
//
//  * compact_greedy — the paper's heuristic: take the first uncompacted
//    pattern and merge every following compatible pattern into it, repeat.
//    That sweep is pointwise identical to *unsorted* first-fit (class k of
//    first-fit is exactly sweep round k), so it runs as first-fit in input
//    order.
//
//  * compact_first_fit — a classical clique-cover approximation:
//    Welsh-Powell-style first-fit coloring of the conflict graph, placing
//    patterns in descending density (care bits + bus bits, keys computed
//    once). The ordering is what makes this a distinct reference point.
//
// The engine keeps, for every touched terminal and bus line, one bit per
// class in blocks of 64 classes. A pattern finds its class by OR-ing the
// conflict words of its care and bus bits block by block and taking the
// first zero bit — no per-class probing, no sweep rounds. Memory is
// O(classes/64 × (touched terminals × 24 B + bus words)).
//
// compact_greedy_count runs the greedy order over an index subset of a
// borrowed pattern span and returns only the class count — what the SI
// test-set builder needs per bucket — so no pattern is copied into a
// bucket and no compacted pattern is built.
//
// compact_greedy_reference is the historical sparse sweep, kept verbatim
// as the before/after baseline for BENCH_compaction.json and as the
// equivalence oracle in tests — compact_greedy must reproduce its output
// byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern.h"
#include "util/cancel.h"

namespace sitam {

struct CompactionStats {
  std::size_t original_count = 0;
  std::size_t compacted_count = 0;
  double seconds = 0.0;

  [[nodiscard]] double ratio() const {
    return compacted_count == 0
               ? 0.0
               : static_cast<double>(original_count) /
                     static_cast<double>(compacted_count);
  }
};

struct CompactionResult {
  std::vector<SiPattern> patterns;
  CompactionStats stats;
};

/// Knobs for compact_greedy.
struct CompactionConfig {
  /// Validated (threads < 1 throws) but inert: the engine is serial and
  /// neither output nor speed depends on it. Kept for source compatibility
  /// until a shared executor (ROADMAP item 3b) gives it a meaning or it is
  /// removed.
  int threads = 1;
  /// Non-owning cooperative cancellation token, checked every 1024
  /// placements (nullptr = never cancelled). Control flow, not identity:
  /// no config or request hash includes it.
  const CancelToken* cancel = nullptr;
};

/// Paper's greedy sweep. `total_terminals` and `bus_width` are the declared
/// dimensions (use TerminalSpace::total() and the bus width); patterns with
/// ids outside them throw std::out_of_range before any work is done.
/// Throws std::invalid_argument for negative dimensions or threads < 1, and
/// sitam::Cancelled once config.cancel is requested.
[[nodiscard]] CompactionResult compact_greedy(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width,
    const CompactionConfig& config = {});

/// Count-only compact_greedy over a subset: the number of patterns
/// compact_greedy would return for the sequence patterns[indices[0]],
/// patterns[indices[1]], ..., without building any of them. Throws
/// std::out_of_range for an index >= patterns.size() and for ids outside
/// the declared dimensions, std::invalid_argument as compact_greedy, and
/// sitam::Cancelled once config.cancel is requested.
[[nodiscard]] std::size_t compact_greedy_count(
    std::span<const SiPattern> patterns,
    std::span<const std::uint32_t> indices, int total_terminals,
    int bus_width, const CompactionConfig& config = {});

/// The historical sparse-list sweep (per-care-bit checks against an
/// epoch-stamped dense accumulator, one round per compacted pattern).
/// Frozen as the benchmark baseline and the byte-identity oracle for
/// compact_greedy; do not optimize.
[[nodiscard]] CompactionResult compact_greedy_reference(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width);

/// First-fit clique-cover approximation in density order (reference
/// quality bar). Same id contract as compact_greedy.
[[nodiscard]] CompactionResult compact_first_fit(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width);

/// Verifies that `compacted` is a sound compaction of `original`: every
/// original pattern must be *covered by* (i.e. compatible with and contained
/// in) at least one compacted pattern. Returns the index of the first
/// uncovered original pattern, or -1 if all are covered. Runs on packed
/// subset checks with summary pruning. Used by tests and the compaction
/// study bench.
[[nodiscard]] std::ptrdiff_t first_uncovered(
    std::span<const SiPattern> original,
    std::span<const SiPattern> compacted);

}  // namespace sitam
