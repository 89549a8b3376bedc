// Tests for src/sitest: the core-level hypergraph construction and the
// two-dimensional grouping (horizontal compaction) of §3, including the
// one-pass SiTestSetBuilder against a copy of the per-grouping algorithm it
// replaced.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "util/rng.h"

namespace sitam {
namespace {

SiPattern on_cores(const TerminalSpace& ts,
                   std::initializer_list<int> cores) {
  SiPattern p;
  SigValue v = SigValue::kRise;
  for (const int core : cores) {
    p.set(ts.terminal(core, 0), v);
    v = v == SigValue::kRise ? SigValue::kFall : SigValue::kRise;
  }
  return p;
}

class SitestTest : public ::testing::Test {
 protected:
  Soc soc_ = load_benchmark("mini5");
  TerminalSpace ts_{soc_};
  GroupingConfig config_{};
};

TEST_F(SitestTest, HypergraphVertexWeightsAreWocs) {
  const std::vector<SiPattern> patterns = {on_cores(ts_, {0, 1})};
  const Hypergraph hg = build_core_hypergraph(patterns, ts_);
  ASSERT_EQ(hg.vertex_count(), soc_.core_count());
  for (int c = 0; c < soc_.core_count(); ++c) {
    EXPECT_EQ(hg.vertex_weights[static_cast<std::size_t>(c)],
              soc_.modules[static_cast<std::size_t>(c)].woc());
  }
}

TEST_F(SitestTest, HypergraphMergesIdenticalCareSets) {
  const std::vector<SiPattern> patterns = {
      on_cores(ts_, {0, 1}), on_cores(ts_, {0, 1}), on_cores(ts_, {2})};
  const Hypergraph hg = build_core_hypergraph(patterns, ts_);
  ASSERT_EQ(hg.edges.size(), 2u);
  // The {0,1} edge carries multiplicity 2.
  bool found = false;
  for (const Hyperedge& e : hg.edges) {
    if (e.pins == std::vector<int>{0, 1}) {
      EXPECT_EQ(e.weight, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SitestTest, BusDriversAppearAsPins) {
  SiPattern p = on_cores(ts_, {0});
  p.set_bus(3, 2);
  const std::vector<SiPattern> patterns = {p};
  const Hypergraph hg = build_core_hypergraph(patterns, ts_);
  ASSERT_EQ(hg.edges.size(), 1u);
  EXPECT_EQ(hg.edges[0].pins, (std::vector<int>{0, 2}));
}

TEST_F(SitestTest, SingleGroupingIsPureVerticalCompaction) {
  // Three mutually compatible patterns (all transitions agree).
  SiPattern both;
  both.set(ts_.terminal(0, 0), SigValue::kRise);
  both.set(ts_.terminal(1, 0), SigValue::kRise);
  SiPattern first;
  first.set(ts_.terminal(0, 0), SigValue::kRise);
  SiPattern second;
  second.set(ts_.terminal(1, 0), SigValue::kRise);
  const std::vector<SiPattern> patterns = {first, second, both};
  const SiTestSet set = build_si_test_set(patterns, ts_, 1, config_);
  ASSERT_EQ(set.groups.size(), 1u);
  EXPECT_EQ(set.parts, 1);
  EXPECT_FALSE(set.groups[0].is_remainder);
  // All cores are loaded by every pattern in the 1-group case.
  EXPECT_EQ(static_cast<int>(set.groups[0].cores.size()),
            soc_.core_count());
  EXPECT_EQ(set.groups[0].raw_patterns, 3);
  // The three patterns are mutually compatible -> compacted to one.
  EXPECT_EQ(set.groups[0].patterns, 1);
}

TEST_F(SitestTest, EmptyPatternSetGivesEmptyTestSet) {
  const SiTestSet set = build_si_test_set({}, ts_, 1, config_);
  EXPECT_TRUE(set.groups.empty());
  EXPECT_EQ(set.total_patterns(), 0);
}

TEST_F(SitestTest, DontCarePatternsJoinTheRemainder) {
  const std::vector<SiPattern> patterns = {
      on_cores(ts_, {0}), SiPattern{}, on_cores(ts_, {1}), SiPattern{}};
  const SiTestSet set = build_si_test_set(patterns, ts_, 2, config_);
  ASSERT_FALSE(set.groups.empty());
  const SiTestGroup& rem = set.groups.back();
  EXPECT_TRUE(rem.is_remainder);
  EXPECT_EQ(rem.raw_patterns, 2);
  EXPECT_EQ(rem.patterns, 1);
  EXPECT_EQ(set.total_raw_patterns(), 4);
}

TEST_F(SitestTest, RejectsNonPositiveParts) {
  EXPECT_THROW((void)build_si_test_set({}, ts_, 0, config_),
               std::invalid_argument);
}

TEST_F(SitestTest, LocalPatternsStayInTheirGroup) {
  // Patterns strictly on cores {0,1,4} and strictly on cores {2,3}: the
  // weight-balanced optimum is exactly that 2-way split, so no remainder
  // should be needed.
  std::vector<SiPattern> patterns;
  for (int i = 0; i < 10; ++i) {
    patterns.push_back(on_cores(ts_, {0, 1}));
    patterns.push_back(on_cores(ts_, {0, 4}));
    patterns.push_back(on_cores(ts_, {2, 3}));
  }
  const SiTestSet set = build_si_test_set(patterns, ts_, 2, config_);
  EXPECT_EQ(set.parts, 2);
  std::int64_t remainder_raw = 0;
  std::int64_t local_raw = 0;
  for (const SiTestGroup& g : set.groups) {
    (g.is_remainder ? remainder_raw : local_raw) += g.raw_patterns;
  }
  EXPECT_EQ(remainder_raw, 0);
  EXPECT_EQ(local_raw, 30);
}

TEST_F(SitestTest, CrossGroupPatternsLandInRemainder) {
  std::vector<SiPattern> patterns;
  for (int i = 0; i < 10; ++i) {
    patterns.push_back(on_cores(ts_, {0, 1, 4}));
    patterns.push_back(on_cores(ts_, {2, 3}));
  }
  // Bridging patterns spanning both clusters.
  patterns.push_back(on_cores(ts_, {0, 3}));
  patterns.push_back(on_cores(ts_, {2, 4}));
  const SiTestSet set = build_si_test_set(patterns, ts_, 2, config_);
  const SiTestGroup* rem = nullptr;
  for (const SiTestGroup& g : set.groups) {
    if (g.is_remainder) rem = &g;
  }
  ASSERT_NE(rem, nullptr);
  EXPECT_EQ(rem->raw_patterns, 2);
  // The remainder group loads every core's boundary.
  EXPECT_EQ(static_cast<int>(rem->cores.size()), soc_.core_count());
  EXPECT_EQ(rem->label, "rem");
}

TEST_F(SitestTest, GroupCoresPartitionTheSoc) {
  Rng rng(3);
  const auto patterns =
      generate_random_patterns(ts_, 500, RandomPatternConfig{}, rng);
  for (const int parts : {2, 3, 4}) {
    const SiTestSet set = build_si_test_set(patterns, ts_, parts, config_);
    std::set<int> seen;
    int total = 0;
    for (const SiTestGroup& g : set.groups) {
      if (g.is_remainder) continue;
      for (const int c : g.cores) {
        EXPECT_TRUE(seen.insert(c).second) << "core in two groups";
        ++total;
      }
    }
    EXPECT_LE(total, soc_.core_count());
  }
}

TEST_F(SitestTest, RawPatternCountsAreConserved) {
  Rng rng(4);
  const auto patterns =
      generate_random_patterns(ts_, 800, RandomPatternConfig{}, rng);
  for (const int parts : {1, 2, 4, 8}) {
    const SiTestSet set = build_si_test_set(patterns, ts_, parts, config_);
    EXPECT_EQ(set.total_raw_patterns(), 800) << "parts=" << parts;
    EXPECT_LE(set.total_patterns(), set.total_raw_patterns());
  }
}

TEST_F(SitestTest, MoreGroupsNeverReduceCompactedTotal) {
  // Splitting a pattern set can only hurt pure pattern-count compaction
  // (each bucket compacts independently) — the win comes from shorter
  // lengths, not fewer patterns.
  Rng rng(5);
  const auto patterns =
      generate_random_patterns(ts_, 1000, RandomPatternConfig{}, rng);
  const auto t1 = build_si_test_set(patterns, ts_, 1, config_);
  const auto t4 = build_si_test_set(patterns, ts_, 4, config_);
  EXPECT_LE(t1.total_patterns(), t4.total_patterns());
}

TEST(SitestBig, RealisticWorkloadOnP93791) {
  const Soc soc = load_benchmark("p93791");
  const TerminalSpace ts(soc);
  Rng rng(6);
  const auto patterns =
      generate_random_patterns(ts, 5000, RandomPatternConfig{}, rng);
  const GroupingConfig config;
  const SiTestSet set = build_si_test_set(patterns, ts, 4, config);
  EXPECT_EQ(set.total_raw_patterns(), 5000);
  EXPECT_GE(static_cast<int>(set.groups.size()), 4);
  // The partitioner should keep a solid majority of patterns local.
  std::int64_t remainder_raw = 0;
  for (const SiTestGroup& g : set.groups) {
    if (g.is_remainder) remainder_raw = g.raw_patterns;
  }
  EXPECT_LT(remainder_raw, 5000 * 3 / 4);
}

// ---------------------------------------------------------------------------
// The one-pass builder against the per-grouping algorithm it replaced: care
// sets recomputed per pattern, a map-merged hypergraph per grouping, every
// pattern copied into its bucket and compact_greedy run to the full
// compacted set only for its size.
// ---------------------------------------------------------------------------

Hypergraph reference_hypergraph(std::span<const SiPattern> patterns,
                                const TerminalSpace& terminals) {
  Hypergraph hg;
  for (int core = 0; core < terminals.core_count(); ++core) {
    hg.vertex_weights.push_back(terminals.woc(core));
  }
  std::map<std::vector<int>, std::int64_t> merged;
  for (const SiPattern& p : patterns) {
    std::vector<int> pins = p.care_cores(terminals);
    if (!pins.empty()) merged[std::move(pins)] += 1;
  }
  for (auto& [pins, weight] : merged) hg.edges.push_back(Hyperedge{pins, weight});
  return hg;
}

SiTestSet reference_test_set(std::span<const SiPattern> patterns,
                             const TerminalSpace& terminals, int parts,
                             const GroupingConfig& config) {
  std::vector<int> all_cores(static_cast<std::size_t>(terminals.core_count()));
  std::iota(all_cores.begin(), all_cores.end(), 0);
  const auto compacted = [&](std::span<const SiPattern> bucket) {
    return static_cast<std::int64_t>(
        compact_greedy(bucket, terminals.total(), config.bus_width,
                       config.compaction)
            .patterns.size());
  };
  const auto any_bus = [](std::span<const SiPattern> bucket) {
    for (const SiPattern& p : bucket) {
      if (!p.bus_bits().empty()) return true;
    }
    return false;
  };
  SiTestSet set;
  set.parts = parts;
  if (patterns.empty()) return set;
  if (parts == 1) {
    SiTestGroup group;
    group.label = "g1";
    group.cores = all_cores;
    group.raw_patterns = static_cast<std::int64_t>(patterns.size());
    group.patterns = compacted(patterns);
    group.uses_bus = any_bus(patterns);
    set.groups.push_back(group);
    return set;
  }
  const Partition partition = partition_hypergraph(
      reference_hypergraph(patterns, terminals), parts, config.partition);
  std::vector<std::vector<SiPattern>> buckets(static_cast<std::size_t>(parts));
  std::vector<SiPattern> remainder;
  for (const SiPattern& p : patterns) {
    const std::vector<int> care = p.care_cores(terminals);
    const int part = partition.part_of[static_cast<std::size_t>(care[0])];
    bool local = true;
    for (const int c : care) {
      local = local && partition.part_of[static_cast<std::size_t>(c)] == part;
    }
    (local ? buckets[static_cast<std::size_t>(part)] : remainder).push_back(p);
  }
  for (int part = 0; part < parts; ++part) {
    const auto& bucket = buckets[static_cast<std::size_t>(part)];
    if (bucket.empty()) continue;
    SiTestGroup group;
    group.label = "g" + std::to_string(part + 1);
    for (int core = 0; core < terminals.core_count(); ++core) {
      if (partition.part_of[static_cast<std::size_t>(core)] == part) {
        group.cores.push_back(core);
      }
    }
    group.raw_patterns = static_cast<std::int64_t>(bucket.size());
    group.patterns = compacted(bucket);
    group.uses_bus = any_bus(bucket);
    set.groups.push_back(group);
  }
  if (!remainder.empty()) {
    SiTestGroup group;
    group.label = "rem";
    group.cores = all_cores;
    group.is_remainder = true;
    group.raw_patterns = static_cast<std::int64_t>(remainder.size());
    group.patterns = compacted(remainder);
    group.uses_bus = any_bus(remainder);
    set.groups.push_back(group);
  }
  return set;
}

void expect_same_test_set(const SiTestSet& actual, const SiTestSet& expected,
                          const std::string& where) {
  EXPECT_EQ(actual.parts, expected.parts) << where;
  ASSERT_EQ(actual.groups.size(), expected.groups.size()) << where;
  for (std::size_t g = 0; g < actual.groups.size(); ++g) {
    const SiTestGroup& a = actual.groups[g];
    const SiTestGroup& e = expected.groups[g];
    EXPECT_EQ(a.label, e.label) << where;
    EXPECT_EQ(a.cores, e.cores) << where << " " << e.label;
    EXPECT_EQ(a.raw_patterns, e.raw_patterns) << where << " " << e.label;
    EXPECT_EQ(a.patterns, e.patterns) << where << " " << e.label;
    EXPECT_EQ(a.is_remainder, e.is_remainder) << where << " " << e.label;
    EXPECT_EQ(a.uses_bus, e.uses_bus) << where << " " << e.label;
    EXPECT_EQ(a.power, e.power) << where << " " << e.label;
  }
}

TEST(SiTestSetBuilder, MatchesThePerGroupingAlgorithm) {
  const std::vector<int> groupings = {1, 2, 3, 4, 8};
  for (const char* name : {"d695", "p34392", "p93791"}) {
    const Soc soc = load_benchmark(name);
    const TerminalSpace ts(soc);
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
      Rng rng(seed);
      const auto patterns =
          generate_random_patterns(ts, 3000, RandomPatternConfig{}, rng);
      GroupingConfig config;
      config.partition.seed = seed;
      const Hypergraph expected_hg = reference_hypergraph(patterns, ts);
      const Hypergraph hg = build_core_hypergraph(patterns, ts);
      EXPECT_EQ(hg.vertex_weights, expected_hg.vertex_weights);
      ASSERT_EQ(hg.edges.size(), expected_hg.edges.size()) << name;
      for (std::size_t e = 0; e < hg.edges.size(); ++e) {
        EXPECT_EQ(hg.edges[e].pins, expected_hg.edges[e].pins) << name;
        EXPECT_EQ(hg.edges[e].weight, expected_hg.edges[e].weight) << name;
      }

      const SiTestSetBuilder builder(patterns, ts, groupings);
      for (const int parts : groupings) {
        const std::string where = std::string(name) + " seed " +
                                  std::to_string(seed) + " parts " +
                                  std::to_string(parts);
        const SiTestSet expected =
            reference_test_set(patterns, ts, parts, config);
        expect_same_test_set(builder.build(parts, config), expected, where);
        expect_same_test_set(build_si_test_set(patterns, ts, parts, config),
                             expected, where + " (wrapper)");
      }
    }
  }
}

TEST(SiTestSetBuilder, GroupingOneNeedsNoHypergraph) {
  const Soc soc = load_benchmark("mini5");
  const TerminalSpace ts(soc);
  Rng rng(3);
  const auto patterns =
      generate_random_patterns(ts, 200, RandomPatternConfig{}, rng);
  const int only_one[] = {1};
  const SiTestSetBuilder builder(patterns, ts, only_one);
  const GroupingConfig config;
  expect_same_test_set(builder.build(1, config),
                       reference_test_set(patterns, ts, 1, config), "parts 1");
  EXPECT_THROW((void)builder.build(2, config), std::invalid_argument);
  EXPECT_THROW((void)builder.build(0, config), std::invalid_argument);
}

}  // namespace
}  // namespace sitam
