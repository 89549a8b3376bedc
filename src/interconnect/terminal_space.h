// Global addressing of core output terminals.
//
// SI test patterns assign values to *driver-side* terminals: the wrapper
// output cells (WOCs) of the embedded cores. TerminalSpace flattens all WOCs
// of a SOC into one contiguous id range so patterns can be stored sparsely
// as (terminal id, value) pairs, and maps ids back to (core, bit).
#pragma once

#include <cstdint>
#include <vector>

#include "soc/soc.h"

namespace sitam {

class TerminalSpace {
 public:
  explicit TerminalSpace(const Soc& soc);

  /// Total number of output terminals across all cores.
  [[nodiscard]] int total() const { return total_; }
  [[nodiscard]] int core_count() const {
    return static_cast<int>(first_.size()) - 1;
  }

  /// Core (0-based index into Soc::modules) owning terminal `t`, by table
  /// lookup. Throws std::out_of_range for an invalid id.
  [[nodiscard]] int core_of(int terminal) const;
  /// Bit position of `terminal` within its core's WOC list.
  [[nodiscard]] int bit_of(int terminal) const;

  /// First terminal id of `core`; terminals of the core are
  /// [first_terminal(c), first_terminal(c) + woc(c)).
  [[nodiscard]] int first_terminal(int core) const;
  /// WOC count of `core`.
  [[nodiscard]] int woc(int core) const;

  /// Global id for (core, bit); throws std::out_of_range on bad input.
  [[nodiscard]] int terminal(int core, int bit) const;

 private:
  std::vector<int> first_;    // prefix sums; size core_count()+1
  std::vector<int> core_of_;  // owning core per terminal; size total()
  int total_ = 0;
};

}  // namespace sitam
