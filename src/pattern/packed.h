// Packed bit-plane representation of SI test patterns.
//
// The sparse (terminal, value) lists of SiPattern are ideal for building
// patterns one assignment at a time; checking that a compacted set covers
// its originals (first_uncovered) instead asks "is this pattern contained
// in that one?" for many pairs. This header packs the 5-valued alphabet of
// value.h into three 64-bit bit-planes over the terminal space so that
// question becomes a handful of word ops:
//
//   care   — bit t set iff terminal t carries a non-don't-care value.
//   value  — final-cycle level: set for kStable1 and kRise.
//   active — transition flag: set for kRise and kFall.
//
// Two patterns conflict on a terminal iff both care about it and either
// plane disagrees:  care_a & care_b & ((val_a^val_b) | (act_a^act_b)).
// The same encoding, transposed to one bit per compacted class, drives the
// first-fit compaction engine in compaction.cpp.
//
// Patterns are *word-compressed*: only the nonzero care words are
// materialized, as sorted (word index, care, value, active) slots. A
// one-word summary (care-word occupancy OR-folded to 64 bits) rejects
// disjoint pairs in a single AND before any slot is read.
//
// The shared-bus postfix packs into an occupancy mask per pattern plus a
// per-driver disambiguation table: masks answer "any shared line?" in one
// AND, and the (rare) overlapping case resolves drivers through the sorted
// BusBit list — with a uniform-driver fast path, since generated patterns
// drive all their lines from the victim core.
//
// PackedAccumulator is the dense counterpart: full bit-planes for one
// merged pattern, against which a word-compressed member is tested in
// O(slots).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern.h"
#include "pattern/value.h"

namespace sitam {

/// Sentinels for the per-pattern uniform-driver fast path.
inline constexpr int kNoBusDriver = -1;     ///< Pattern occupies no bus line.
inline constexpr int kMixedBusDrivers = -2; ///< Lines driven by >1 core.

/// Final-cycle level plane bit for `v` (kStable1 and kRise).
[[nodiscard]] constexpr std::uint64_t value_plane_bit(SigValue v) noexcept {
  return (v == SigValue::kStable1 || v == SigValue::kRise) ? 1u : 0u;
}

/// Transition plane bit for `v` (kRise and kFall).
[[nodiscard]] constexpr std::uint64_t active_plane_bit(SigValue v) noexcept {
  return is_transition(v) ? 1u : 0u;
}

/// Inverse of the (value, active) encoding for a cared-for terminal.
[[nodiscard]] constexpr SigValue decode_planes(bool value,
                                               bool active) noexcept {
  if (active) return value ? SigValue::kRise : SigValue::kFall;
  return value ? SigValue::kStable1 : SigValue::kStable0;
}

/// Dimensions of the packed planes. Word counts are derived, not stored,
/// so a layout is two ints and can be passed by value.
struct PackedLayout {
  int total_terminals = 0;
  int bus_width = 0;

  [[nodiscard]] int signal_words() const noexcept {
    return (total_terminals + 63) / 64;
  }
  [[nodiscard]] int bus_words() const noexcept {
    return (bus_width + 63) / 64;
  }

  friend bool operator==(const PackedLayout&, const PackedLayout&) = default;
};

/// One nonzero 64-terminal chunk of a pattern's three signal planes.
struct PackedSlot {
  std::uint32_t word = 0;     ///< Plane word index (terminals [64w, 64w+64)).
  std::uint64_t care = 0;
  std::uint64_t value = 0;    ///< Canonical: value ⊆ care.
  std::uint64_t active = 0;   ///< Canonical: active ⊆ care.
};

/// Per-pattern hot metadata, consolidated into one 32-byte record so a
/// rejected probe touches a single cache line per pattern: the folded care
/// summary, bus occupancy word 0 (the whole mask for the
/// ubiquitous bus_width <= 64 case), the slot range, and the uniform
/// driver for the bus fast path.
struct PackedHeader {
  std::uint64_t summary = 0;
  std::uint64_t bus_word0 = 0;
  std::uint32_t slot_begin = 0;
  std::uint32_t slot_end = 0;
  std::int32_t uniform_driver = kNoBusDriver;
};

/// An immutable batch of patterns packed into word-compressed bit-planes.
///
/// Packing validates every terminal/bus id against the layout up front and
/// throws std::out_of_range (message-compatible with the checks of the
/// compaction entry points).
class PackedPatternSet {
 public:
  /// Packs `patterns`; O(total assignments). Throws std::invalid_argument
  /// for negative layout dimensions, std::out_of_range for ids outside it.
  PackedPatternSet(std::span<const SiPattern> patterns, PackedLayout layout);

  [[nodiscard]] std::size_t size() const noexcept {
    return headers_.size();
  }
  [[nodiscard]] const PackedLayout& layout() const noexcept {
    return layout_;
  }

  /// Sorted nonzero plane chunks of pattern `i`.
  [[nodiscard]] std::span<const PackedSlot> slots(std::size_t i) const {
    return {slots_.data() + headers_[i].slot_begin,
            slots_.data() + headers_[i].slot_end};
  }
  /// Consolidated hot metadata of pattern `i`.
  [[nodiscard]] const PackedHeader& header(std::size_t i) const {
    return headers_[i];
  }
  /// Care-word occupancy folded to one word: bit (w mod 64) is set iff
  /// care word w is nonzero. A zero AND of two summaries proves care
  /// disjointness (equal words fold to equal bits).
  [[nodiscard]] std::uint64_t summary(std::size_t i) const {
    return headers_[i].summary;
  }
  /// Bus occupancy mask words of pattern `i` (layout().bus_words() words).
  [[nodiscard]] std::span<const std::uint64_t> bus_mask(std::size_t i) const {
    const auto w = static_cast<std::size_t>(layout_.bus_words());
    return {bus_masks_.data() + i * w, w};
  }
  /// Sorted occupied bus lines with their drivers (disambiguation table).
  [[nodiscard]] std::span<const BusBit> bus_bits(std::size_t i) const {
    return {bus_bits_.data() + bus_begin_[i],
            bus_bits_.data() + bus_begin_[i + 1]};
  }
  /// Driver id if all of pattern `i`'s bus lines share one driver,
  /// kNoBusDriver if it has none, kMixedBusDrivers otherwise.
  [[nodiscard]] int uniform_driver(std::size_t i) const {
    return headers_[i].uniform_driver;
  }

  /// Word-parallel equivalent of SiPattern::compatible for two members.
  [[nodiscard]] bool compatible(std::size_t i, std::size_t j) const;

 private:
  PackedLayout layout_;
  std::vector<PackedSlot> slots_;           // concatenated, sorted per pattern
  std::vector<PackedHeader> headers_;       // one record per pattern
  std::vector<std::uint64_t> bus_masks_;    // size()*bus_words()
  std::vector<BusBit> bus_bits_;            // concatenated, sorted per pattern
  std::vector<std::uint32_t> bus_begin_;    // size()+1 prefix offsets
};

/// One 64-bit chunk of the three planes, interleaved so a probe touches one
/// ~cache-line-local record instead of three parallel arrays.
struct PlaneWord {
  std::uint64_t care = 0;
  std::uint64_t value = 0;
  std::uint64_t active = 0;
};

/// Dense bit-planes for one merged pattern — the covering side of
/// first_uncovered(). reset() is O(planes), while the bus driver table is
/// epoch-stamped so per-line driver ids never need clearing.
class PackedAccumulator {
 public:
  explicit PackedAccumulator(PackedLayout layout);

  /// Starts a fresh compacted pattern.
  void reset();

  /// True iff member `i` of `set` can merge into the accumulated pattern.
  /// Precondition (checked in debug builds): set.layout() == layout().
  [[nodiscard]] bool fits(const PackedPatternSet& set, std::size_t i) const;

  /// Merges member `i` in. Precondition: fits(set, i).
  void absorb(const PackedPatternSet& set, std::size_t i);

  /// True iff member `i` of `set` is *contained* in the accumulated
  /// pattern: every care bit present with the same value and every bus
  /// line occupied by the same driver. The packed subset check behind
  /// first_uncovered().
  [[nodiscard]] bool contains(const PackedPatternSet& set,
                              std::size_t i) const;

  /// Folded care-word occupancy of the accumulated pattern; a candidate
  /// whose summary has bits outside it cannot be contained.
  [[nodiscard]] std::uint64_t summary() const noexcept { return summary_; }

  /// Materializes the accumulated pattern as a sparse SiPattern
  /// (terminals and bus lines emitted in ascending order, so the result
  /// is byte-identical to what the historical sparse accumulator built).
  [[nodiscard]] SiPattern to_pattern() const;

 private:
  PackedLayout layout_;
  std::vector<PlaneWord> planes_;          // interleaved, one per word
  std::uint64_t summary_ = 0;
  std::uint64_t bus0_ = 0;                 // mirror of bus_mask_[0] (hot path)
  std::vector<std::uint64_t> bus_mask_;
  std::vector<std::int32_t> bus_driver_;   // valid iff epoch matches
  std::vector<std::uint32_t> bus_epoch_;
  std::uint32_t epoch_ = 1;
  std::int32_t driver_state_ = kNoBusDriver;  // uniform-driver fast path
};

}  // namespace sitam
