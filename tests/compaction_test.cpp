// Tests for the vertical SI compaction engines (§3): soundness (coverage of
// every original pattern), bus-line conflict handling, determinism, the
// greedy-vs-first-fit comparison the paper alludes to, and byte identity
// of the class-bitset engine with its oracles — the sparse reference sweep
// for compact_greedy and a naive density-order first-fit for
// compact_first_fit — including class counts past the 64- and 128-class
// block boundaries — and of the count-only subset entry with compact_greedy.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "soc/benchmarks.h"
#include "util/rng.h"

namespace sitam {
namespace {

SiPattern make(std::initializer_list<std::pair<int, SigValue>> assignments,
               std::initializer_list<BusBit> bus = {}) {
  SiPattern p;
  for (const auto& [t, v] : assignments) p.set(t, v);
  for (const BusBit& b : bus) p.set_bus(b.line, b.driver_core);
  return p;
}

constexpr SigValue kCareValues[] = {SigValue::kStable0, SigValue::kStable1,
                                    SigValue::kRise, SigValue::kFall};

/// Random pattern over a small terminal space and bus: dense conflicts,
/// all four care values, several drivers per line across patterns, and
/// the occasional empty pattern.
SiPattern random_pattern(Rng& rng, int terminals, int bus_width,
                         int drivers) {
  SiPattern p;
  const std::uint64_t cares = rng.below(6);
  for (std::uint64_t a = 0; a < cares; ++a) {
    p.set(static_cast<int>(rng.below(static_cast<std::uint64_t>(terminals))),
          kCareValues[rng.below(4)]);
  }
  if (bus_width > 0) {
    const std::uint64_t lines = rng.below(3);
    for (std::uint64_t l = 0; l < lines; ++l) {
      const int line =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(bus_width)));
      bool taken = false;  // one driver per line within a single pattern
      for (const BusBit& b : p.bus_bits()) taken |= b.line == line;
      if (!taken) {
        p.set_bus(line, static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(drivers))));
      }
    }
  }
  return p;
}

/// Test-local oracle for compact_first_fit: Welsh-Powell density order
/// (care bits + bus bits, stable), each pattern merged into the first
/// class SiPattern::try_absorb accepts.
std::vector<SiPattern> naive_first_fit(const std::vector<SiPattern>& input) {
  std::vector<std::size_t> order(input.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto density = [&input](std::size_t i) {
    return input[i].care_count() +
           static_cast<int>(input[i].bus_bits().size());
  };
  std::stable_sort(order.begin(), order.end(),
                   [&density](std::size_t a, std::size_t b) {
                     return density(a) > density(b);
                   });
  std::vector<SiPattern> classes;
  for (const std::size_t i : order) {
    bool placed = false;
    for (SiPattern& cls : classes) {
      if (cls.try_absorb(input[i])) {
        placed = true;
        break;
      }
    }
    if (!placed) classes.push_back(input[i]);
  }
  return classes;
}

/// Asserts both engines against their oracles on `input`; returns the
/// greedy class count.
std::size_t expect_engines_match_oracles(const std::vector<SiPattern>& input,
                                         int terminals, int bus_width) {
  const auto greedy = compact_greedy(input, terminals, bus_width);
  EXPECT_EQ(greedy.patterns,
            compact_greedy_reference(input, terminals, bus_width).patterns);
  EXPECT_EQ(compact_first_fit(input, terminals, bus_width).patterns,
            naive_first_fit(input));
  return greedy.patterns.size();
}

TEST(CompactGreedy, EmptyInput) {
  const auto result = compact_greedy({}, 10, 4);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.stats.original_count, 0u);
  EXPECT_EQ(result.stats.compacted_count, 0u);
}

TEST(CompactGreedy, SinglePatternPassesThrough) {
  const std::vector<SiPattern> input = {make({{1, SigValue::kRise}})};
  const auto result = compact_greedy(input, 10, 4);
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0], input[0]);
}

TEST(CompactGreedy, MergesCompatiblePatterns) {
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}),
      make({{1, SigValue::kFall}}),
      make({{2, SigValue::kStable0}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0].care_count(), 3);
}

TEST(CompactGreedy, KeepsConflictingPatternsApart) {
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}),
      make({{0, SigValue::kFall}}),
      make({{0, SigValue::kStable1}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  EXPECT_EQ(result.patterns.size(), 3u);
}

TEST(CompactGreedy, BusConflictPreventsMerge) {
  // Same bus line from different core boundaries: never compacted (§3).
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}, {{2, 0}}),
      make({{1, SigValue::kFall}}, {{2, 1}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  EXPECT_EQ(result.patterns.size(), 2u);
}

TEST(CompactGreedy, BusSameDriverMerges) {
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}, {{2, 0}}),
      make({{1, SigValue::kFall}}, {{2, 0}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  EXPECT_EQ(result.patterns.size(), 1u);
}

TEST(CompactGreedy, GreedyIsOrderSensitiveButSound) {
  // a conflicts with b on t0; c is compatible with both. Greedy seeded at a
  // absorbs c; b stays alone.
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}),
      make({{0, SigValue::kFall}}),
      make({{1, SigValue::kRise}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  ASSERT_EQ(result.patterns.size(), 2u);
  EXPECT_EQ(result.patterns[0].care_count(), 2);  // a + c
  EXPECT_EQ(result.patterns[1].care_count(), 1);  // b
}

TEST(CompactGreedy, OutOfRangeTerminalThrows) {
  const std::vector<SiPattern> input = {make({{99, SigValue::kRise}})};
  EXPECT_THROW((void)compact_greedy(input, 10, 4), std::out_of_range);
}

TEST(CompactGreedy, OutOfRangeBusLineThrows) {
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}, {{9, 0}})};
  EXPECT_THROW((void)compact_greedy(input, 10, 4), std::out_of_range);
}

TEST(CompactGreedy, NegativeDimensionsThrow) {
  EXPECT_THROW((void)compact_greedy({}, -1, 4), std::invalid_argument);
  EXPECT_THROW((void)compact_first_fit({}, 4, -1), std::invalid_argument);
}

TEST(CompactGreedy, InvalidThreadCountThrows) {
  CompactionConfig config;
  config.threads = 0;
  EXPECT_THROW((void)compact_greedy({}, 4, 4, config), std::invalid_argument);
}

TEST(CompactGreedy, EmptyPatternsJoinTheFirstClass) {
  // An empty pattern conflicts with nothing: it lands in class 0, and a
  // leading empty pattern opens class 0 for everything compatible.
  const std::vector<SiPattern> input = {
      SiPattern{},
      make({{0, SigValue::kRise}}),
      SiPattern{},
      make({{0, SigValue::kFall}}),
  };
  const auto result = compact_greedy(input, 4, 0);
  ASSERT_EQ(result.patterns.size(), 2u);
  EXPECT_EQ(result.patterns[0], make({{0, SigValue::kRise}}));
  EXPECT_EQ(result.patterns[1], make({{0, SigValue::kFall}}));
  expect_engines_match_oracles(input, 4, 0);
  const std::vector<SiPattern> only_empty = {SiPattern{}, SiPattern{}};
  ASSERT_EQ(compact_greedy(only_empty, 0, 0).patterns.size(), 1u);
  EXPECT_TRUE(compact_greedy(only_empty, 0, 0).patterns[0].empty());
  expect_engines_match_oracles(only_empty, 0, 0);
}

TEST(CompactGreedy, MixedDriversAndSameLineBusConflicts) {
  const std::vector<SiPattern> input = {
      make({}, {{1, 4}, {3, 5}}),              // class 0: mixed drivers
      make({{0, SigValue::kRise}}, {{1, 4}}),  // class 0: same driver
      make({}, {{3, 6}}),                      // class 1: line 3 taken by 5
      make({}, {{1, 5}, {2, 5}}),              // class 1: line 1 taken by 4
      make({}, {{2, 7}, {3, 6}}),              // class 2: lines 2, 3 taken
      make({}, {{0, 4}}),                      // class 0: free line
  };
  const auto result = compact_greedy(input, 2, 4);
  ASSERT_EQ(result.patterns.size(), 3u);
  EXPECT_EQ(result.patterns[0],
            make({{0, SigValue::kRise}}, {{0, 4}, {1, 4}, {3, 5}}));
  EXPECT_EQ(result.patterns[1], make({}, {{1, 5}, {2, 5}, {3, 6}}));
  EXPECT_EQ(result.patterns[2], make({}, {{2, 7}, {3, 6}}));
  expect_engines_match_oracles(input, 2, 4);
}

TEST(CompactGreedy, ZeroBusWidthRejectsAnyBusBit) {
  const std::vector<SiPattern> signal_only = {make({{0, SigValue::kRise}}),
                                              make({{1, SigValue::kFall}})};
  EXPECT_EQ(compact_greedy(signal_only, 2, 0).patterns.size(), 1u);
  expect_engines_match_oracles(signal_only, 2, 0);
  const std::vector<SiPattern> with_bus = {make({}, {{0, 1}})};
  EXPECT_THROW((void)compact_greedy(with_bus, 2, 0), std::out_of_range);
  EXPECT_THROW((void)compact_first_fit(with_bus, 2, 0), std::out_of_range);
}

TEST(CompactGreedy, OutOfRangeIdsThrowWhereverTheyAppear) {
  // The bad id sits behind valid patterns: validation precedes all work.
  std::vector<SiPattern> input(100, make({{1, SigValue::kRise}}));
  input.push_back(make({{0, SigValue::kRise}}, {{4, 0}}));
  EXPECT_THROW((void)compact_greedy(input, 10, 4), std::out_of_range);
  EXPECT_THROW((void)compact_first_fit(input, 10, 4), std::out_of_range);
  input.back() = make({{10, SigValue::kRise}});
  EXPECT_THROW((void)compact_greedy(input, 10, 4), std::out_of_range);
  EXPECT_THROW((void)compact_first_fit(input, 10, 4), std::out_of_range);
}

TEST(CompactGreedy, ClassCountsCrossTheBlockBoundaries) {
  // Pattern k writes k's 8-bit binary code on terminals 0..7, so any two
  // distinct codes conflict: `codes` patterns need exactly `codes` classes.
  // Each round then appends a pattern that fits only class `k` of the
  // codes (same code, one extra terminal) — placements that must find a
  // class inside the first, second and third block.
  for (const int codes : {63, 64, 65, 127, 128, 129, 200}) {
    std::vector<SiPattern> input;
    const auto code = [](int k) {
      SiPattern p;
      for (int bit = 0; bit < 8; ++bit) {
        p.set(bit, ((k >> bit) & 1) != 0 ? SigValue::kStable1
                                         : SigValue::kStable0);
      }
      return p;
    };
    for (int k = 0; k < codes; ++k) input.push_back(code(k));
    for (int k = codes - 1; k >= 0; k -= 7) {
      SiPattern extra = code(k);
      extra.set(8 + k % 5, SigValue::kRise);
      input.push_back(extra);
    }
    const auto result = compact_greedy(input, 16, 0);
    EXPECT_EQ(result.patterns.size(), static_cast<std::size_t>(codes))
        << "codes=" << codes;
    expect_engines_match_oracles(input, 16, 0);
  }
}

TEST(CompactGreedy, RandomDenseConflictsMatchBothOracles) {
  // Tiny terminal spaces and several drivers per line force hundreds of
  // classes, so every block boundary and the bus words are exercised.
  struct Shape {
    int terminals;
    int bus_width;
    int drivers;
    int count;
  };
  for (const Shape shape : {Shape{6, 0, 1, 3000}, Shape{10, 3, 4, 3000},
                            Shape{24, 8, 3, 4000}, Shape{70, 2, 6, 700},
                            Shape{130, 65, 2, 600}}) {
    std::size_t most_classes = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(shape.terminals));
      std::vector<SiPattern> input;
      for (int i = 0; i < shape.count; ++i) {
        input.push_back(random_pattern(rng, shape.terminals, shape.bus_width,
                                       shape.drivers));
      }
      SCOPED_TRACE("terminals=" + std::to_string(shape.terminals) +
                   " bus=" + std::to_string(shape.bus_width) +
                   " seed=" + std::to_string(seed));
      most_classes = std::max(
          most_classes,
          expect_engines_match_oracles(input, shape.terminals,
                                       shape.bus_width));
    }
    if (shape.terminals <= 24) {
      EXPECT_GT(most_classes, 128u) << "terminals=" << shape.terminals;
    }
  }
}

TEST(FirstUncovered, DetectsMissingPattern) {
  const std::vector<SiPattern> original = {
      make({{0, SigValue::kRise}}),
      make({{1, SigValue::kFall}}),
  };
  const std::vector<SiPattern> compacted = {make({{0, SigValue::kRise}})};
  EXPECT_EQ(first_uncovered(original, compacted), 1);
}

TEST(FirstUncovered, DetectsBusMismatch) {
  const std::vector<SiPattern> original = {
      make({{0, SigValue::kRise}}, {{1, 0}})};
  const std::vector<SiPattern> wrong_driver = {
      make({{0, SigValue::kRise}}, {{1, 2}})};
  EXPECT_EQ(first_uncovered(original, wrong_driver), 0);
}

TEST(FirstUncovered, DirectVerdicts) {
  const std::vector<SiPattern> compacted = {
      make({{0, SigValue::kRise}, {1, SigValue::kStable0}}, {{2, 7}})};
  // Covered: exact copy, signal subset, bus subset.
  EXPECT_EQ(first_uncovered(compacted, compacted), -1);
  const std::vector<SiPattern> subsets = {
      make({{0, SigValue::kRise}}),
      make({{1, SigValue::kStable0}}, {{2, 7}}),
      make({}, {{2, 7}}),
  };
  EXPECT_EQ(first_uncovered(subsets, compacted), -1);
  // Uncovered, one reason each: flipped value, transition vs stable,
  // care bit outside the compacted pattern, unoccupied bus line, occupied
  // bus line with the wrong driver core.
  const std::vector<SiPattern> uncovered = {
      make({{0, SigValue::kFall}}),
      make({{1, SigValue::kRise}}),
      make({{2, SigValue::kStable0}}),
      make({}, {{3, 7}}),
      make({}, {{2, 6}}),
  };
  for (std::size_t i = 0; i < uncovered.size(); ++i) {
    EXPECT_EQ(first_uncovered({&uncovered[i], 1}, compacted), 0)
        << "case " << i;
  }
  EXPECT_EQ(first_uncovered(uncovered, compacted), 0);
}

// ---------------------------------------------------------------------------
// Property sweeps over realistic random workloads.
// ---------------------------------------------------------------------------

struct CompactionCase {
  const char* soc;
  std::int64_t count;
  std::uint64_t seed;
};

class CompactionPropertyTest
    : public ::testing::TestWithParam<CompactionCase> {};

TEST_P(CompactionPropertyTest, GreedyIsSoundAndCompacts) {
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);

  const auto result = compact_greedy(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(result.stats.original_count, patterns.size());
  EXPECT_EQ(result.stats.compacted_count, result.patterns.size());
  EXPECT_LE(result.patterns.size(), patterns.size());
  // Soundness: every original pattern is contained in some compacted one.
  EXPECT_EQ(first_uncovered(patterns, result.patterns), -1);
  // Compacted patterns are pairwise *incompatible* with the greedy seed
  // order property: each pattern was rejected by all earlier accumulators.
  // (Weaker check: meaningful compaction happened on realistic workloads.)
  if (param.count >= 1000) {
    EXPECT_LT(result.patterns.size(), patterns.size() / 2);
  }
}

TEST_P(CompactionPropertyTest, FirstFitIsSoundAndNoWorseThanTwiceGreedy) {
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);

  const auto greedy = compact_greedy(patterns, ts.total(), config.bus_width);
  const auto first_fit =
      compact_first_fit(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(first_uncovered(patterns, first_fit.patterns), -1);
  // §3: the greedy heuristic achieves similar compaction ratios to the
  // clique-covering approximation. "Similar" = within 2x either way here.
  EXPECT_LE(first_fit.patterns.size(), 2 * greedy.patterns.size());
  EXPECT_LE(greedy.patterns.size(), 2 * first_fit.patterns.size());
}

TEST_P(CompactionPropertyTest, PackedSweepMatchesReferenceByteForByte) {
  // The packed kernel is an acceleration of the seed sweep, not a
  // re-derivation: its output must be *equal*, pattern for pattern.
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);
  const auto packed = compact_greedy(patterns, ts.total(), config.bus_width);
  const auto reference =
      compact_greedy_reference(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(packed.patterns, reference.patterns);
}

TEST_P(CompactionPropertyTest, FirstFitMatchesNaiveOracle) {
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);
  EXPECT_EQ(compact_first_fit(patterns, ts.total(), config.bus_width).patterns,
            naive_first_fit(patterns));
}

TEST_P(CompactionPropertyTest, GreedyIsDeterministic) {
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);
  const auto a = compact_greedy(patterns, ts.total(), config.bus_width);
  const auto b = compact_greedy(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(a.patterns, b.patterns);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CompactionPropertyTest,
    ::testing::Values(CompactionCase{"mini5", 200, 1},
                      CompactionCase{"mini5", 2000, 2},
                      CompactionCase{"d695", 1500, 3},
                      CompactionCase{"p34392", 1500, 4},
                      CompactionCase{"p93791", 3000, 5}));

TEST(CompactGreedy, MatchesReferenceAcrossSocsAndSeeds) {
  for (const char* name : {"d695", "p34392", "p93791"}) {
    const Soc soc = load_benchmark(name);
    const TerminalSpace ts(soc);
    const RandomPatternConfig config;
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      Rng rng(seed);
      const auto patterns = generate_random_patterns(ts, 2500, config, rng);
      EXPECT_EQ(compact_greedy(patterns, ts.total(), config.bus_width).patterns,
                compact_greedy_reference(patterns, ts.total(),
                                         config.bus_width)
                    .patterns)
          << name << " seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// compact_greedy_count: the class count of compact_greedy over an index
// subset, without materialising.
// ---------------------------------------------------------------------------

std::size_t greedy_count_of_copy(const std::vector<SiPattern>& patterns,
                                 const std::vector<std::uint32_t>& indices,
                                 int terminals, int bus_width) {
  std::vector<SiPattern> copy;
  for (const std::uint32_t i : indices) copy.push_back(patterns[i]);
  return compact_greedy(copy, terminals, bus_width).patterns.size();
}

TEST(CompactGreedyCount, MatchesCompactGreedyOnRandomSubsets) {
  for (const char* name : {"d695", "p93791"}) {
    const Soc soc = load_benchmark(name);
    const TerminalSpace ts(soc);
    const RandomPatternConfig config;
    Rng rng(31);
    const auto patterns = generate_random_patterns(ts, 3000, config, rng);
    std::vector<std::uint32_t> all(patterns.size());
    std::iota(all.begin(), all.end(), std::uint32_t{0});
    EXPECT_EQ(compact_greedy_count(patterns, all, ts.total(), config.bus_width),
              compact_greedy(patterns, ts.total(), config.bus_width)
                  .patterns.size())
        << name;
    for (int trial = 0; trial < 6; ++trial) {
      // Ascending subsets (what the SI test-set builder passes) and
      // shuffled ones with repeats: the count follows the given order.
      std::vector<std::uint32_t> subset;
      const std::uint64_t keep = 1 + rng.below(4);
      for (const std::uint32_t i : all) {
        if (rng.below(4) < keep) subset.push_back(i);
      }
      if (trial % 2 == 1) {
        subset.push_back(subset.front());
        rng.shuffle(subset);
      }
      EXPECT_EQ(compact_greedy_count(patterns, subset, ts.total(),
                                     config.bus_width),
                greedy_count_of_copy(patterns, subset, ts.total(),
                                     config.bus_width))
          << name << " trial " << trial;
    }
  }
}

TEST(CompactGreedyCount, DenseConflictsAndEmptySubset) {
  Rng rng(32);
  std::vector<SiPattern> patterns;
  for (int i = 0; i < 600; ++i) {
    patterns.push_back(random_pattern(rng, 12, 4, 3));
  }
  std::vector<std::uint32_t> subset;
  for (std::uint32_t i = 0; i < patterns.size(); i += 1 + (i % 3)) {
    subset.push_back(i);
  }
  EXPECT_EQ(compact_greedy_count(patterns, subset, 12, 4),
            greedy_count_of_copy(patterns, subset, 12, 4));
  EXPECT_EQ(compact_greedy_count(patterns, {}, 12, 4), 0u);
  EXPECT_EQ(compact_greedy_count({}, {}, 0, 0), 0u);
}

TEST(CompactGreedyCount, RejectsWhatCompactGreedyRejects) {
  std::vector<SiPattern> patterns(50, make({{1, SigValue::kRise}}));
  patterns.push_back(make({{0, SigValue::kRise}}, {{4, 0}}));  // bus line 4
  patterns.push_back(make({{10, SigValue::kRise}}));           // terminal 10
  const std::vector<std::uint32_t> clean = {0, 1, 2};
  EXPECT_EQ(compact_greedy_count(patterns, clean, 10, 4), 1u);
  for (const std::uint32_t bad : {50u, 51u}) {
    const std::vector<std::uint32_t> subset = {0, 1, bad};
    const std::vector<SiPattern> copy = {patterns[0], patterns[1],
                                         patterns[bad]};
    EXPECT_THROW((void)compact_greedy(copy, 10, 4), std::out_of_range);
    EXPECT_THROW((void)compact_greedy_count(patterns, subset, 10, 4),
                 std::out_of_range);
  }
  const std::vector<std::uint32_t> past_end = {0, 52};
  EXPECT_THROW((void)compact_greedy_count(patterns, past_end, 10, 4),
               std::out_of_range);
  EXPECT_THROW((void)compact_greedy_count(patterns, clean, -1, 4),
               std::invalid_argument);
  CompactionConfig config;
  config.threads = 0;
  EXPECT_THROW((void)compact_greedy_count(patterns, clean, 10, 4, config),
               std::invalid_argument);
}

TEST(CompactGreedyCount, RequestedTokenCancels) {
  std::vector<SiPattern> patterns(10, make({{1, SigValue::kRise}}));
  const std::vector<std::uint32_t> all = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  CancelToken token;
  CompactionConfig config;
  config.cancel = &token;
  EXPECT_EQ(compact_greedy_count(patterns, all, 10, 4, config), 1u);
  token.request();
  EXPECT_THROW((void)compact_greedy_count(patterns, all, 10, 4, config),
               Cancelled);
  EXPECT_THROW((void)compact_greedy(patterns, 10, 4, config), Cancelled);
}

TEST(CompactionStats, RatioArithmetic) {
  CompactionStats stats;
  stats.original_count = 100;
  stats.compacted_count = 25;
  EXPECT_DOUBLE_EQ(stats.ratio(), 4.0);
  stats.compacted_count = 0;
  EXPECT_DOUBLE_EQ(stats.ratio(), 0.0);
}

}  // namespace
}  // namespace sitam
