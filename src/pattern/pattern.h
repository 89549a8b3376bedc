// Sparse SI test pattern (one vector pair) plus the shared-bus postfix.
//
// Patterns assign values to a handful of driver-side terminals (the victim
// and its aggressors), so they are stored sparsely as sorted
// (terminal, value) lists. The bus postfix of Table 1 is a list of occupied
// bus lines; each occupied line remembers the core boundary that triggers
// it, because patterns driving the *same* bus line from *different* core
// boundaries must never be compacted together (§3).
//
// The sparse form is the mutation-friendly builder representation; the
// compaction kernels batch-convert pattern sets into the word-parallel
// bit-plane form of packed.h, which answers compatible() in a few 64-bit
// ops instead of a sorted-list walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "interconnect/terminal_space.h"
#include "pattern/value.h"

namespace sitam {

/// One occupied shared-bus line in a pattern's postfix.
struct BusBit {
  int line = 0;         ///< Bus line index, 0-based.
  int driver_core = 0;  ///< Core boundary that triggers the line.

  friend bool operator==(const BusBit&, const BusBit&) = default;
};

class SiPattern {
 public:
  /// Assigns `value` to `terminal`; assigning kDontCare erases the entry.
  /// Throws std::invalid_argument for a negative terminal id.
  void set(int terminal, SigValue value);

  /// Value at `terminal` (kDontCare when unassigned).
  [[nodiscard]] SigValue at(int terminal) const;

  /// Marks bus `line` as occupied, triggered from `driver_core`.
  /// Re-marking with the same driver is idempotent; a different driver
  /// throws std::logic_error (a single pattern has one driver per line).
  void set_bus(int line, int driver_core);

  /// Builds a pattern from lists already in canonical form: assignments
  /// strictly ascending by terminal, non-negative and never kDontCare; bus
  /// bits strictly ascending by non-negative line. O(size) — the bulk
  /// counterpart of set()/set_bus() for producers that emit in order.
  /// Throws std::invalid_argument for lists outside that form.
  [[nodiscard]] static SiPattern from_sorted(
      std::vector<std::pair<int, SigValue>> assignments,
      std::vector<BusBit> bus_bits);

  [[nodiscard]] std::span<const std::pair<int, SigValue>> assignments()
      const {
    return assignments_;
  }
  [[nodiscard]] std::span<const BusBit> bus_bits() const { return bus_bits_; }

  /// Number of assigned (non-don't-care) terminals.
  [[nodiscard]] int care_count() const {
    return static_cast<int>(assignments_.size());
  }
  [[nodiscard]] bool empty() const {
    return assignments_.empty() && bus_bits_.empty();
  }

  /// Sorted, de-duplicated list of cores whose wrapper boundaries this
  /// pattern loads: owners of assigned terminals plus bus drivers.
  [[nodiscard]] std::vector<int> care_cores(
      const TerminalSpace& terminals) const;

  /// True iff the two patterns can be compacted into one (§3): no terminal
  /// carries conflicting values and no bus line is triggered from two
  /// different core boundaries.
  [[nodiscard]] static bool compatible(const SiPattern& a, const SiPattern& b);

  /// Merges `other` into this pattern if compatible; returns false (and
  /// leaves this pattern unchanged) otherwise.
  bool try_absorb(const SiPattern& other);

  /// Table-1-style rendering: one char per terminal in [0, total), then
  /// " | " and one char per bus line ('1' occupied / 'x' free).
  [[nodiscard]] std::string render(int total_terminals, int bus_width) const;

  friend bool operator==(const SiPattern&, const SiPattern&) = default;

 private:
  std::vector<std::pair<int, SigValue>> assignments_;  // sorted by terminal
  std::vector<BusBit> bus_bits_;                       // sorted by line
};

/// The care-core sets of a whole pattern set, computed in one pass into
/// flat storage: the cores of pattern i are cores[offsets[i],
/// offsets[i+1]), sorted and unique — exactly SiPattern::care_cores, with
/// no allocation per pattern.
class CareSets {
 public:
  /// Throws std::out_of_range for a terminal outside `terminals`.
  CareSets(std::span<const SiPattern> patterns,
           const TerminalSpace& terminals);

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  [[nodiscard]] std::span<const int> operator[](std::size_t i) const {
    return std::span<const int>(cores_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

 private:
  std::vector<std::size_t> offsets_;  // size() + 1 entries
  std::vector<int> cores_;
};

}  // namespace sitam
