#include "pattern/compaction.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "pattern/packed.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace sitam {

namespace {

/// Dense, epoch-stamped view of one growing compacted pattern. Checking a
/// sparse candidate against it is O(candidate care bits). This is the seed
/// implementation backing compact_greedy_reference — kept verbatim as the
/// baseline the packed kernel is measured (and byte-compared) against.
class SparseAccumulator {
 public:
  SparseAccumulator(int total_terminals, int bus_width)
      : values_(static_cast<std::size_t>(total_terminals)),
        value_epoch_(static_cast<std::size_t>(total_terminals), 0),
        bus_driver_(static_cast<std::size_t>(bus_width)),
        bus_epoch_(static_cast<std::size_t>(bus_width), 0) {}

  /// Starts a fresh compacted pattern (O(1) via epoch bump).
  void reset() {
    ++epoch_;
    touched_terminals_.clear();
    touched_bus_.clear();
  }

  [[nodiscard]] bool fits(const SiPattern& p) const {
    for (const auto& [terminal, value] : p.assignments()) {
      check_terminal(terminal);
      const auto t = static_cast<std::size_t>(terminal);
      if (value_epoch_[t] == epoch_ && values_[t] != value) return false;
    }
    for (const BusBit& bit : p.bus_bits()) {
      check_bus(bit.line);
      const auto l = static_cast<std::size_t>(bit.line);
      if (bus_epoch_[l] == epoch_ && bus_driver_[l] != bit.driver_core) {
        return false;
      }
    }
    return true;
  }

  /// Precondition: fits(p).
  void absorb(const SiPattern& p) {
    for (const auto& [terminal, value] : p.assignments()) {
      const auto t = static_cast<std::size_t>(terminal);
      if (value_epoch_[t] != epoch_) {
        value_epoch_[t] = epoch_;
        values_[t] = value;
        touched_terminals_.push_back(terminal);
      }
    }
    for (const BusBit& bit : p.bus_bits()) {
      const auto l = static_cast<std::size_t>(bit.line);
      if (bus_epoch_[l] != epoch_) {
        bus_epoch_[l] = epoch_;
        bus_driver_[l] = bit.driver_core;
        touched_bus_.push_back(bit.line);
      }
    }
  }

  [[nodiscard]] SiPattern to_pattern() {
    SiPattern p;
    std::sort(touched_terminals_.begin(), touched_terminals_.end());
    for (const int terminal : touched_terminals_) {
      p.set(terminal, values_[static_cast<std::size_t>(terminal)]);
    }
    std::sort(touched_bus_.begin(), touched_bus_.end());
    for (const int line : touched_bus_) {
      p.set_bus(line, bus_driver_[static_cast<std::size_t>(line)]);
    }
    return p;
  }

 private:
  void check_terminal(int terminal) const {
    if (terminal < 0 || terminal >= static_cast<int>(values_.size())) {
      throw std::out_of_range("compaction: terminal id " +
                              std::to_string(terminal) +
                              " outside declared terminal space");
    }
  }
  void check_bus(int line) const {
    if (line < 0 || line >= static_cast<int>(bus_driver_.size())) {
      throw std::out_of_range("compaction: bus line " + std::to_string(line) +
                              " outside declared bus width");
    }
  }

  std::uint32_t epoch_ = 0;
  std::vector<SigValue> values_;
  std::vector<std::uint32_t> value_epoch_;
  std::vector<int> bus_driver_;
  std::vector<std::uint32_t> bus_epoch_;
  std::vector<int> touched_terminals_;
  std::vector<int> touched_bus_;
};

/// First-fit clique cover over class-occupancy bitsets — the one engine
/// behind compact_greedy and compact_first_fit.
///
/// Classes are numbered in opening order and stored 64 to a block. For each
/// (touched terminal, block) a PlaneWord holds bit c of class 64·block + c:
/// care says the class sets that terminal, value/active give its planes.
/// For each (touched bus line, block) an occupancy word says which classes
/// drive the line, and one word per (line, driver) pair occurring in the
/// input says which drive it from that core. A pattern's conflicts with a
/// whole block are then the OR of one word formula per care bit and bus bit,
/// and its first compatible class is the first zero bit — O(bits · blocks)
/// instead of one accumulator probe per class.
///
/// The engine places patterns[order[0]], patterns[order[1]], ... and
/// borrows both spans. Construction validates every index and every id
/// against the declared dimensions and throws std::out_of_range
/// (message-compatible with the sparse reference) before any placement
/// work; only the patterns named in `order` are read.
class FirstFitEngine {
 public:
  FirstFitEngine(std::span<const SiPattern> patterns,
                 std::span<const std::uint32_t> order, int total_terminals,
                 int bus_width)
      : patterns_(patterns),
        order_(order),
        slot_of_(static_cast<std::size_t>(total_terminals), -1),
        line_slot_(static_cast<std::size_t>(bus_width), -1) {
    for (const std::uint32_t i : order) {
      if (i >= patterns.size()) {
        throw std::out_of_range("compaction: pattern index " +
                                std::to_string(i) + " outside the " +
                                std::to_string(patterns.size()) +
                                " patterns");
      }
      const SiPattern& p = patterns[i];
      for (const auto& [terminal, value] : p.assignments()) {
        if (terminal >= total_terminals) {
          throw std::out_of_range("compaction: terminal id " +
                                  std::to_string(terminal) +
                                  " outside declared terminal space");
        }
        slot_of_[static_cast<std::size_t>(terminal)] = 0;
      }
      for (const BusBit& bit : p.bus_bits()) {
        if (bit.line >= bus_width) {
          throw std::out_of_range("compaction: bus line " +
                                  std::to_string(bit.line) +
                                  " outside declared bus width");
        }
        line_slot_[static_cast<std::size_t>(bit.line)] = 0;
        pairs_.push_back(bit);
      }
    }
    // Dense slots in ascending id order, so materialize() emits each class
    // already sorted.
    for (std::size_t t = 0; t < slot_of_.size(); ++t) {
      if (slot_of_[t] < 0) continue;
      slot_of_[t] = static_cast<std::int32_t>(terminals_.size());
      terminals_.push_back(static_cast<int>(t));
    }
    for (std::int32_t& slot : line_slot_) {
      if (slot == 0) slot = static_cast<std::int32_t>(lines_++);
    }
    std::sort(pairs_.begin(), pairs_.end(), by_line_then_driver);
    pairs_.erase(std::unique(pairs_.begin(), pairs_.end()), pairs_.end());
  }

  /// Places every pattern of the order, checking `cancel` every 1024
  /// placements.
  void run(const CancelToken* cancel) {
    for (std::size_t k = 0; k < order_.size(); ++k) {
      if (k % 1024 == 0) check_cancel(cancel);
      place(patterns_[order_[k]]);
    }
  }

  /// Classes opened so far: the compacted pattern count.
  [[nodiscard]] std::size_t classes() const { return classes_; }

  /// Puts `p` into the first class it is compatible with, opening a new
  /// class if there is none.
  void place(const SiPattern& p) {
    load(p);
    const std::size_t terminals = terminals_.size();
    const std::size_t pairs = pairs_.size();
    for (std::size_t block = 0; block * 64 < classes_; ++block) {
      const PlaneWord* const planes = planes_.data() + block * terminals;
      std::uint64_t conflict = 0;
      for (const CareRef& c : care_) {
        const PlaneWord& w = planes[c.slot];
        conflict |= w.care & ((w.value ^ c.value) | (w.active ^ c.active));
      }
      const std::uint64_t* const occupied = occupied_.data() + block * lines_;
      const std::uint64_t* const driven = driven_.data() + block * pairs;
      for (const BusRef& r : bus_) {
        conflict |= occupied[r.line] & ~driven[r.pair];
      }
      // Bits of classes not opened yet read as conflict-free; mask them.
      const std::size_t open = std::min<std::size_t>(64, classes_ - block * 64);
      const std::uint64_t opened =
          open == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << open) - 1;
      const std::uint64_t free = ~conflict & opened;
      if (free != 0) {
        absorb(block * 64 + static_cast<std::size_t>(std::countr_zero(free)));
        return;
      }
    }
    if (classes_ % 64 == 0) {
      planes_.resize(planes_.size() + terminals);
      occupied_.resize(occupied_.size() + lines_);
      driven_.resize(driven_.size() + pairs);
    }
    care_size_.push_back(0);
    bus_size_.push_back(0);
    absorb(classes_++);
  }

  /// Every class as a pattern, in opening order; terminals and bus lines
  /// ascend, exactly as the sparse reference emits them.
  [[nodiscard]] std::vector<SiPattern> materialize() const {
    std::vector<std::vector<std::pair<int, SigValue>>> assignments(classes_);
    std::vector<std::vector<BusBit>> bus(classes_);
    for (std::size_t c = 0; c < classes_; ++c) {
      assignments[c].reserve(care_size_[c]);
      bus[c].reserve(bus_size_[c]);
    }
    const std::size_t terminals = terminals_.size();
    const std::size_t pairs = pairs_.size();
    for (std::size_t block = 0; block * 64 < classes_; ++block) {
      for (std::size_t slot = 0; slot < terminals; ++slot) {
        const PlaneWord& w = planes_[block * terminals + slot];
        for (std::uint64_t bits = w.care; bits != 0; bits &= bits - 1) {
          const int c = std::countr_zero(bits);
          assignments[block * 64 + static_cast<std::size_t>(c)].emplace_back(
              terminals_[slot], decode_planes(((w.value >> c) & 1u) != 0,
                                              ((w.active >> c) & 1u) != 0));
        }
      }
      for (std::size_t pair = 0; pair < pairs; ++pair) {
        for (std::uint64_t bits = driven_[block * pairs + pair]; bits != 0;
             bits &= bits - 1) {
          bus[block * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
              .push_back(pairs_[pair]);
        }
      }
    }
    std::vector<SiPattern> patterns;
    patterns.reserve(classes_);
    for (std::size_t c = 0; c < classes_; ++c) {
      patterns.push_back(SiPattern::from_sorted(std::move(assignments[c]),
                                                std::move(bus[c])));
    }
    return patterns;
  }

 private:
  /// One care bit of the pattern being placed: its dense terminal slot and
  /// its planes broadcast to all 64 classes of a block.
  struct CareRef {
    std::size_t slot;
    std::uint64_t value;
    std::uint64_t active;
  };
  /// One bus bit of the pattern being placed: dense line slot and dense
  /// (line, driver) pair.
  struct BusRef {
    std::size_t line;
    std::size_t pair;
  };

  static bool by_line_then_driver(const BusBit& a, const BusBit& b) {
    return a.line != b.line ? a.line < b.line : a.driver_core < b.driver_core;
  }

  /// Translates `p` into the care_/bus_ scratch lists.
  void load(const SiPattern& p) {
    care_.clear();
    for (const auto& [terminal, value] : p.assignments()) {
      care_.push_back(CareRef{
          static_cast<std::size_t>(
              slot_of_[static_cast<std::size_t>(terminal)]),
          std::uint64_t{0} - value_plane_bit(value),
          std::uint64_t{0} - active_plane_bit(value)});
    }
    bus_.clear();
    for (const BusBit& bit : p.bus_bits()) {
      const auto pair = std::lower_bound(pairs_.begin(), pairs_.end(), bit,
                                         by_line_then_driver);
      bus_.push_back(BusRef{
          static_cast<std::size_t>(
              line_slot_[static_cast<std::size_t>(bit.line)]),
          static_cast<std::size_t>(pair - pairs_.begin())});
    }
  }

  /// Merges the loaded pattern into class `cls`.
  void absorb(std::size_t cls) {
    const std::size_t block = cls / 64;
    const std::uint64_t bit = std::uint64_t{1} << (cls % 64);
    PlaneWord* const planes = planes_.data() + block * terminals_.size();
    for (const CareRef& c : care_) {
      PlaneWord& w = planes[c.slot];
      care_size_[cls] += (w.care & bit) == 0 ? 1u : 0u;
      w.care |= bit;
      w.value |= bit & c.value;
      w.active |= bit & c.active;
    }
    for (const BusRef& r : bus_) {
      std::uint64_t& occupied = occupied_[block * lines_ + r.line];
      bus_size_[cls] += (occupied & bit) == 0 ? 1u : 0u;
      occupied |= bit;
      driven_[block * pairs_.size() + r.pair] |= bit;
    }
  }

  std::span<const SiPattern> patterns_;
  std::span<const std::uint32_t> order_;
  std::vector<std::int32_t> slot_of_;    // terminal id -> dense slot
  std::vector<std::int32_t> line_slot_;  // bus line -> dense line slot
  std::vector<int> terminals_;           // dense slot -> terminal id
  std::size_t lines_ = 0;                // touched bus lines
  std::vector<BusBit> pairs_;            // dense pair -> (line, driver)
  std::vector<CareRef> care_;            // scratch: pattern being placed
  std::vector<BusRef> bus_;
  std::size_t classes_ = 0;
  std::vector<std::uint32_t> care_size_;  // per class: care bits, bus lines
  std::vector<std::uint32_t> bus_size_;
  std::vector<PlaneWord> planes_;        // blocks x terminals_, block-major
  std::vector<std::uint64_t> occupied_;  // blocks x lines_
  std::vector<std::uint64_t> driven_;    // blocks x pairs_
};

/// 0, 1, ..., n-1: compact_greedy's placement order. Pattern indices are
/// 32-bit in the engine.
std::vector<std::uint32_t> input_order(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("compaction: more than 2^32 - 1 patterns");
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  return order;
}

void check_dimensions(int total_terminals, int bus_width,
                      const CompactionConfig& config) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_greedy: negative dimensions");
  }
  if (config.threads < 1) {
    throw std::invalid_argument("compact_greedy: threads must be >= 1");
  }
}

}  // namespace

CompactionResult compact_greedy(std::span<const SiPattern> patterns,
                                int total_terminals, int bus_width,
                                const CompactionConfig& config) {
  check_dimensions(total_terminals, bus_width, config);
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();

  // Unsorted first-fit is the greedy sweep: class k is sweep round k.
  const std::vector<std::uint32_t> order = input_order(patterns.size());
  FirstFitEngine engine(patterns, order, total_terminals, bus_width);
  engine.run(config.cancel);
  result.patterns = engine.materialize();

  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  SITAM_COUNTER("pattern.compaction.patterns_in",
                result.stats.original_count);
  SITAM_COUNTER("pattern.compaction.patterns_out",
                result.stats.compacted_count);
  return result;
}

std::size_t compact_greedy_count(std::span<const SiPattern> patterns,
                                 std::span<const std::uint32_t> indices,
                                 int total_terminals, int bus_width,
                                 const CompactionConfig& config) {
  check_dimensions(total_terminals, bus_width, config);
  FirstFitEngine engine(patterns, indices, total_terminals, bus_width);
  engine.run(config.cancel);
  SITAM_COUNTER("pattern.compaction.patterns_in", indices.size());
  SITAM_COUNTER("pattern.compaction.patterns_out", engine.classes());
  return engine.classes();
}

CompactionResult compact_greedy_reference(std::span<const SiPattern> patterns,
                                          int total_terminals,
                                          int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_greedy: negative dimensions");
  }
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();

  SparseAccumulator acc(total_terminals, bus_width);
  std::vector<bool> used(patterns.size(), false);
  std::size_t next_seed = 0;
  // Each cycle seeds a new compacted pattern with the first uncompacted one
  // and sweeps all following patterns, merging every compatible one.
  while (true) {
    while (next_seed < patterns.size() && used[next_seed]) ++next_seed;
    if (next_seed == patterns.size()) break;
    acc.reset();
    // fits() on an empty accumulator cannot conflict, but it validates the
    // seed's terminal/bus ranges.
    SITAM_CHECK(acc.fits(patterns[next_seed]));
    acc.absorb(patterns[next_seed]);
    used[next_seed] = true;
    for (std::size_t j = next_seed + 1; j < patterns.size(); ++j) {
      if (used[j]) continue;
      if (acc.fits(patterns[j])) {
        acc.absorb(patterns[j]);
        used[j] = true;
      }
    }
    result.patterns.push_back(acc.to_pattern());
  }

  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

CompactionResult compact_first_fit(std::span<const SiPattern> patterns,
                                   int total_terminals, int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_first_fit: negative dimensions");
  }
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();

  // Welsh-Powell order: densest (hardest to place) patterns first. The
  // density keys are computed once up front — not inside the comparator,
  // which would recompute them on every one of the O(n log n) comparisons.
  std::vector<int> density(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    density[i] = patterns[i].care_count() +
                 static_cast<int>(patterns[i].bus_bits().size());
  }
  std::vector<std::uint32_t> order = input_order(patterns.size());
  std::stable_sort(order.begin(), order.end(),
                   [&density](std::uint32_t a, std::uint32_t b) {
                     return density[a] > density[b];
                   });
  FirstFitEngine engine(patterns, order, total_terminals, bus_width);
  engine.run(nullptr);
  result.patterns = engine.materialize();
  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

std::ptrdiff_t first_uncovered(std::span<const SiPattern> original,
                               std::span<const SiPattern> compacted) {
  // The public signature carries no dimensions, so infer the smallest
  // layout covering both sets (lists are sorted: the max id is at the back).
  PackedLayout layout;
  const auto widen = [&layout](std::span<const SiPattern> patterns) {
    for (const SiPattern& p : patterns) {
      const auto assignments = p.assignments();
      if (!assignments.empty()) {
        layout.total_terminals =
            std::max(layout.total_terminals, assignments.back().first + 1);
      }
      const auto bus = p.bus_bits();
      if (!bus.empty()) {
        layout.bus_width = std::max(layout.bus_width, bus.back().line + 1);
      }
    }
  };
  widen(original);
  widen(compacted);

  const PackedPatternSet packed_original(original, layout);
  const PackedPatternSet packed_compacted(compacted, layout);
  // Materialize each compacted pattern as dense planes once; the covering
  // test is then O(original slots) per pair instead of a per-bit probe.
  std::vector<PackedAccumulator> dense;
  dense.reserve(compacted.size());
  for (std::size_t j = 0; j < compacted.size(); ++j) {
    dense.emplace_back(layout);
    dense.back().absorb(packed_compacted, j);
  }

  for (std::size_t i = 0; i < original.size(); ++i) {
    bool covered = false;
    const std::uint64_t summary = packed_original.summary(i);
    for (const PackedAccumulator& c : dense) {
      // A care word outside the compacted pattern's folded occupancy can
      // never be contained — reject in one AND.
      if ((summary & ~c.summary()) != 0) continue;
      if (c.contains(packed_original, i)) {
        covered = true;
        break;
      }
    }
    if (!covered) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

}  // namespace sitam
