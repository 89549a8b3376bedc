// Tests for the hypergraph structure and the multilevel partitioner:
// metric correctness, balance, determinism, quality on structured
// instances (including the paper's Fig. 2 example), parameterized random
// sweeps, normalize() against a map-merge oracle and partitions pinned
// before the FM gains were cached.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "hypergraph/hypergraph.h"
#include "hypergraph/partition.h"
#include "interconnect/terminal_space.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "util/rng.h"

namespace sitam {
namespace {

Hypergraph path_graph(int n) {
  // v0 - v1 - v2 - ... chain of 2-pin edges, unit weights.
  Hypergraph hg;
  hg.vertex_weights.assign(static_cast<std::size_t>(n), 1);
  for (int i = 0; i + 1 < n; ++i) {
    hg.edges.push_back(Hyperedge{{i, i + 1}, 1});
  }
  return hg;
}

TEST(Hypergraph, Totals) {
  Hypergraph hg;
  hg.vertex_weights = {2, 3, 5};
  hg.edges = {Hyperedge{{0, 1}, 4}, Hyperedge{{1, 2}, 6}};
  EXPECT_EQ(hg.vertex_count(), 3);
  EXPECT_EQ(hg.total_vertex_weight(), 10);
  EXPECT_EQ(hg.total_edge_weight(), 10);
}

TEST(Hypergraph, NormalizeMergesDuplicatesAndSorts) {
  Hypergraph hg;
  hg.vertex_weights = {1, 1, 1};
  hg.edges = {Hyperedge{{2, 0}, 3}, Hyperedge{{0, 2}, 4},
              Hyperedge{{1, 1, 0}, 2}, Hyperedge{{}, 7}};
  hg.normalize();
  ASSERT_EQ(hg.edges.size(), 2u);
  // {0,1} weight 2 and {0,2} weight 7, in pin order.
  EXPECT_EQ(hg.edges[0].pins, (std::vector<int>{0, 1}));
  EXPECT_EQ(hg.edges[0].weight, 2);
  EXPECT_EQ(hg.edges[1].pins, (std::vector<int>{0, 2}));
  EXPECT_EQ(hg.edges[1].weight, 7);
  EXPECT_NO_THROW(hg.validate());
}

TEST(Hypergraph, NormalizeMatchesMapOracle) {
  // The oracle is the std::map merge normalize() used to be: the same
  // merged weights, in lexicographic pin order.
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    Hypergraph hg;
    const int vertices = 1 + static_cast<int>(rng.below(12));
    hg.vertex_weights.assign(static_cast<std::size_t>(vertices), 1);
    const int edges = static_cast<int>(rng.below(200));
    for (int e = 0; e < edges; ++e) {
      Hyperedge edge;
      const std::uint64_t pins = rng.below(5);  // 0 pins: dropped
      for (std::uint64_t p = 0; p < pins; ++p) {  // unsorted, repeats
        edge.pins.push_back(
            static_cast<int>(rng.below(static_cast<std::uint64_t>(vertices))));
      }
      edge.weight = static_cast<std::int64_t>(rng.uniform(1, 9));
      hg.edges.push_back(std::move(edge));
    }
    std::map<std::vector<int>, std::int64_t> oracle;
    for (Hyperedge e : hg.edges) {
      std::sort(e.pins.begin(), e.pins.end());
      e.pins.erase(std::unique(e.pins.begin(), e.pins.end()), e.pins.end());
      if (!e.pins.empty()) oracle[e.pins] += e.weight;
    }
    hg.normalize();
    ASSERT_EQ(hg.edges.size(), oracle.size()) << "trial " << trial;
    std::size_t i = 0;
    for (const auto& [pins, weight] : oracle) {
      EXPECT_EQ(hg.edges[i].pins, pins) << "trial " << trial;
      EXPECT_EQ(hg.edges[i].weight, weight) << "trial " << trial;
      ++i;
    }
    EXPECT_NO_THROW(hg.validate());
  }
}

TEST(Hypergraph, ValidateRejectsBadPins) {
  Hypergraph hg;
  hg.vertex_weights = {1, 1};
  hg.edges = {Hyperedge{{0, 5}, 1}};
  EXPECT_THROW(hg.validate(), std::invalid_argument);
  hg.edges = {Hyperedge{{1, 0}, 1}};  // unsorted
  EXPECT_THROW(hg.validate(), std::invalid_argument);
  hg.edges = {Hyperedge{{0, 1}, 0}};  // non-positive weight
  EXPECT_THROW(hg.validate(), std::invalid_argument);
  hg.edges = {Hyperedge{{}, 1}};  // empty
  EXPECT_THROW(hg.validate(), std::invalid_argument);
}

TEST(Partition, CutMetrics) {
  const Hypergraph hg = path_graph(4);
  Partition p;
  p.parts = 2;
  p.part_of = {0, 0, 1, 1};
  EXPECT_EQ(p.cut_weight(hg), 1);  // only edge 1-2 crosses
  EXPECT_EQ(p.cut_edges(hg), 1);
  EXPECT_EQ(p.part_weights(hg), (std::vector<std::int64_t>{2, 2}));
  EXPECT_DOUBLE_EQ(p.imbalance(hg), 0.0);
}

TEST(Partition, ImbalanceReflectsHeaviestPart) {
  const Hypergraph hg = path_graph(4);
  Partition p;
  p.parts = 2;
  p.part_of = {0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(p.imbalance(hg), 0.5);  // 3 / 2 - 1
}

TEST(PartitionHypergraph, KEqualsOneIsTrivial) {
  const Hypergraph hg = path_graph(6);
  const Partition p = partition_hypergraph(hg, 1);
  for (const int part : p.part_of) EXPECT_EQ(part, 0);
  EXPECT_EQ(p.cut_weight(hg), 0);
}

TEST(PartitionHypergraph, KAtLeastVerticesGivesSingletons) {
  const Hypergraph hg = path_graph(4);
  const Partition p = partition_hypergraph(hg, 7);
  std::set<int> parts(p.part_of.begin(), p.part_of.end());
  EXPECT_EQ(parts.size(), 4u);
}

TEST(PartitionHypergraph, RejectsBadK) {
  const Hypergraph hg = path_graph(4);
  EXPECT_THROW((void)partition_hypergraph(hg, 0), std::invalid_argument);
}

TEST(PartitionHypergraph, PathBisectionCutsOneEdge) {
  // The optimal bisection of an even path cuts exactly one edge.
  const Hypergraph hg = path_graph(8);
  const Partition p = partition_hypergraph(hg, 2);
  EXPECT_EQ(p.cut_weight(hg), 1);
  const auto weights = p.part_weights(hg);
  EXPECT_EQ(weights[0], 4);
  EXPECT_EQ(weights[1], 4);
}

TEST(PartitionHypergraph, TwoCliquesSplitCleanly) {
  // Two 4-vertex "clusters" (dense pairwise edges) joined by one weak edge:
  // the partitioner must cut only the bridge.
  Hypergraph hg;
  hg.vertex_weights.assign(8, 1);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      hg.edges.push_back(Hyperedge{{a, b}, 10});
      hg.edges.push_back(Hyperedge{{a + 4, b + 4}, 10});
    }
  }
  hg.edges.push_back(Hyperedge{{3, 4}, 1});
  const Partition p = partition_hypergraph(hg, 2);
  EXPECT_EQ(p.cut_weight(hg), 1);
}

TEST(PartitionHypergraph, Fig2StyleInstance) {
  // The paper's Fig. 2: 8 cores, hyperedges = care-core sets; a good
  // 2-way partition leaves only the 7-4-6 edge cut. Two tight groups
  // {1,2,3,7} and {4,5,6,8} (1-based) plus the bridging hyperedge 7-4-6.
  Hypergraph hg;
  hg.vertex_weights.assign(8, 1);
  hg.edges = {
      Hyperedge{{0, 1}, 5},    Hyperedge{{1, 2}, 5},
      Hyperedge{{0, 2, 6}, 5}, Hyperedge{{1, 6}, 5},
      Hyperedge{{3, 4}, 5},    Hyperedge{{4, 5}, 5},
      Hyperedge{{3, 5, 7}, 5}, Hyperedge{{4, 7}, 5},
      Hyperedge{{3, 5, 6}, 1},  // the cut edge (7-4-6 in the figure)
  };
  hg.normalize();
  const Partition p = partition_hypergraph(hg, 2);
  EXPECT_EQ(p.cut_weight(hg), 1);
  // The two groups end up in different parts.
  EXPECT_EQ(p.part_of[0], p.part_of[1]);
  EXPECT_EQ(p.part_of[1], p.part_of[2]);
  EXPECT_EQ(p.part_of[2], p.part_of[6]);
  EXPECT_EQ(p.part_of[3], p.part_of[4]);
  EXPECT_EQ(p.part_of[4], p.part_of[5]);
  EXPECT_EQ(p.part_of[5], p.part_of[7]);
  EXPECT_NE(p.part_of[0], p.part_of[3]);
}

TEST(PartitionHypergraph, DeterministicForFixedSeed) {
  const Hypergraph hg = path_graph(20);
  PartitionConfig config;
  config.seed = 99;
  const Partition a = partition_hypergraph(hg, 4, config);
  const Partition b = partition_hypergraph(hg, 4, config);
  EXPECT_EQ(a.part_of, b.part_of);
}

TEST(PartitionHypergraph, RequestedTokenCancelsBeforeBisecting) {
  const Hypergraph hg = path_graph(20);
  CancelToken token;
  PartitionConfig config;
  config.cancel = &token;
  const Partition before = partition_hypergraph(hg, 4, config);
  EXPECT_EQ(before.part_of, partition_hypergraph(hg, 4).part_of);
  token.request();
  EXPECT_THROW((void)partition_hypergraph(hg, 4, config), Cancelled);
  // k == 1 bisects nothing, so it has no cancellation point.
  EXPECT_NO_THROW((void)partition_hypergraph(hg, 1, config));
}

TEST(PartitionHypergraph, HeavyVertexNeverSplitsInfeasibly) {
  // One vertex carries almost all the weight; balance must degrade
  // gracefully instead of failing.
  Hypergraph hg;
  hg.vertex_weights = {100, 1, 1, 1};
  hg.edges = {Hyperedge{{0, 1}, 1}, Hyperedge{{1, 2}, 1},
              Hyperedge{{2, 3}, 1}};
  const Partition p = partition_hypergraph(hg, 2);
  EXPECT_EQ(p.parts, 2);
  // All four vertices assigned to a valid part.
  for (const int part : p.part_of) {
    EXPECT_GE(part, 0);
    EXPECT_LT(part, 2);
  }
}

struct RandomPartitionCase {
  int vertices;
  int edges;
  int max_pins;
  int k;
  std::uint64_t seed;
};

class PartitionPropertyTest
    : public ::testing::TestWithParam<RandomPartitionCase> {
 protected:
  Hypergraph random_graph(const RandomPartitionCase& c, Rng& rng) const {
    Hypergraph hg;
    hg.vertex_weights.resize(static_cast<std::size_t>(c.vertices));
    for (auto& w : hg.vertex_weights) {
      w = static_cast<std::int64_t>(rng.uniform(1, 20));
    }
    for (int e = 0; e < c.edges; ++e) {
      const int pins = static_cast<int>(
          rng.uniform(2, static_cast<std::uint64_t>(c.max_pins)));
      Hyperedge edge;
      for (const auto v : rng.sample_indices(
               static_cast<std::size_t>(c.vertices),
               static_cast<std::size_t>(
                   std::min(pins, c.vertices)))) {
        edge.pins.push_back(static_cast<int>(v));
      }
      edge.weight = static_cast<std::int64_t>(rng.uniform(1, 10));
      hg.edges.push_back(std::move(edge));
    }
    hg.normalize();
    return hg;
  }
};

TEST_P(PartitionPropertyTest, ProducesValidBalancedPartitions) {
  const RandomPartitionCase c = GetParam();
  Rng rng(c.seed);
  const Hypergraph hg = random_graph(c, rng);
  const Partition p = partition_hypergraph(hg, c.k);

  ASSERT_EQ(p.part_of.size(), hg.vertex_weights.size());
  EXPECT_EQ(p.parts, c.k);
  for (const int part : p.part_of) {
    EXPECT_GE(part, 0);
    EXPECT_LT(part, c.k);
  }
  // Cut is conservative: no more than the total edge weight.
  EXPECT_LE(p.cut_weight(hg), hg.total_edge_weight());
  // Balance: no part heavier than the proportional target + tolerance +
  // the heaviest single vertex (hard feasibility floor).
  const std::int64_t max_vertex = *std::max_element(
      hg.vertex_weights.begin(), hg.vertex_weights.end());
  const double target =
      static_cast<double>(hg.total_vertex_weight()) / c.k;
  const auto weights = p.part_weights(hg);
  for (const auto w : weights) {
    EXPECT_LE(static_cast<double>(w), 1.35 * target + 2.0 * max_vertex);
  }
}

TEST_P(PartitionPropertyTest, MorePartsNeverDecreaseCut) {
  const RandomPartitionCase c = GetParam();
  if (c.k < 4) GTEST_SKIP();
  Rng rng(c.seed);
  const Hypergraph hg = random_graph(c, rng);
  const Partition coarse = partition_hypergraph(hg, 2);
  const Partition fine = partition_hypergraph(hg, c.k);
  // Statistically reliable on these instances (finer partitions cut more).
  EXPECT_LE(coarse.cut_weight(hg), fine.cut_weight(hg));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, PartitionPropertyTest,
    ::testing::Values(RandomPartitionCase{10, 30, 4, 2, 11},
                      RandomPartitionCase{19, 80, 5, 4, 22},
                      RandomPartitionCase{32, 150, 6, 8, 33},
                      RandomPartitionCase{64, 300, 4, 4, 44},
                      RandomPartitionCase{200, 900, 5, 8, 55},
                      RandomPartitionCase{500, 2500, 4, 2, 66}));

TEST(PartitionHypergraph, CoarseningHandlesLargeInstances) {
  // 2000 vertices forces several coarsening levels.
  Rng rng(77);
  Hypergraph hg;
  hg.vertex_weights.assign(2000, 1);
  for (int i = 0; i + 1 < 2000; ++i) {
    hg.edges.push_back(Hyperedge{{i, i + 1}, 1});
  }
  // A few long-range edges.
  for (int i = 0; i < 100; ++i) {
    const int a = static_cast<int>(rng.below(2000));
    const int b = static_cast<int>(rng.below(2000));
    if (a != b) {
      hg.edges.push_back(Hyperedge{{std::min(a, b), std::max(a, b)}, 1});
    }
  }
  hg.normalize();
  const Partition p = partition_hypergraph(hg, 2);
  // A path of 2000 with noise should still cut only a tiny fraction.
  EXPECT_LT(p.cut_weight(hg), 60);
}

// ---------------------------------------------------------------------------
// Pinned partitions. The part_of vectors below were recorded from the
// partitioner before its FM gains were cached; every later change to
// partition.cpp must reproduce them exactly, because compacted pattern
// counts (and so the golden tables) follow the partition.
// ---------------------------------------------------------------------------

/// Core hypergraph of 2000 §5 random patterns on an ITC'02 SOC.
Hypergraph soc_hypergraph(const std::string& name, std::uint64_t seed) {
  const Soc soc = load_benchmark(name);
  const TerminalSpace terminals(soc);
  Rng rng(seed);
  const std::vector<SiPattern> patterns =
      generate_random_patterns(terminals, 2000, RandomPatternConfig{}, rng);
  return build_core_hypergraph(patterns, terminals);
}

/// 200 vertices, 900 random edges: large enough to coarsen.
Hypergraph random_hypergraph(std::uint64_t seed) {
  Rng rng(seed);
  Hypergraph hg;
  hg.vertex_weights.resize(200);
  for (auto& w : hg.vertex_weights) {
    w = static_cast<std::int64_t>(rng.uniform(1, 20));
  }
  for (int e = 0; e < 900; ++e) {
    const int pins = static_cast<int>(rng.uniform(2, 5));
    Hyperedge edge;
    for (const auto v :
         rng.sample_indices(200, static_cast<std::size_t>(pins))) {
      edge.pins.push_back(static_cast<int>(v));
    }
    edge.weight = static_cast<std::int64_t>(rng.uniform(1, 10));
    hg.edges.push_back(std::move(edge));
  }
  hg.normalize();
  return hg;
}

struct PinnedPartition {
  const char* graph;     ///< SOC name, or "random200".
  std::uint64_t seed;    ///< Pattern/graph seed and PartitionConfig::seed.
  int k;
  const char* part_of;   ///< One digit per vertex.
};

constexpr PinnedPartition kPinnedPartitions[] = {
    {"p34392", 1, 2, "1111011100110110110"},
    {"p34392", 1, 3, "1211112100111110102"},
    {"p34392", 1, 4, "2332023211221220320"},
    {"p34392", 1, 8, "4577076732773661740"},
    {"p34392", 2, 2, "1011110101111110101"},
    {"p34392", 2, 3, "1211211112110110100"},
    {"p34392", 2, 4, "3133331212333320202"},
    {"p34392", 2, 8, "6277573736574651704"},
    {"p34392", 3, 2, "1011010111111110101"},
    {"p34392", 3, 3, "1201211101110110120"},
    {"p34392", 3, 4, "3023131323332321302"},
    {"p34392", 3, 8, "7046363657665642614"},
    {"p93791", 1, 2, "00000110001000001000001000000010"},
    {"p93791", 1, 3, "11111221112101110100110101100110"},
    {"p93791", 1, 4, "01111321103101112100102101101121"},
    {"p93791", 1, 8, "13333743306213324201305302202342"},
    {"p93791", 2, 2, "10000100001000100000000000101010"},
    {"p93791", 2, 3, "01110211100111211110110111010121"},
    {"p93791", 2, 4, "31110311102101211110100101212121"},
    {"p93791", 2, 8, "72221633215212533231210202424342"},
    {"p93791", 3, 2, "10000100001000001001000001100000"},
    {"p93791", 3, 3, "00111211002111110010110111011112"},
    {"p93791", 3, 4, "31111311102101112102110002211101"},
    {"p93791", 3, 8, "53323733216313224315320115432303"},
    {"random200", 1, 2, "01110101111110010110011110001011100101110111101001011110011110110100111000111101110111101001101110111100111111010100011011110001110011111111010010111010111010011011111001111101111100001111110001010111"},
    {"random200", 1, 3, "20101121010111211101101110021211020101102122001021011101110122002101101002110120110110120001121102100102011011002102110211002020012100200111211212101212110012101111000211111110011002021111020121002001"},
    {"random200", 1, 4, "03230302222221120220123220102123211213221223212002122330032320220211222110323212221223303002202320323210223322020200022133231012330022233322130021332031332120123023232013232302333201113332331003121322"},
    {"random200", 1, 8, "16740517667762340760374661207375733625673774627007367550044671441432767220564736442776516005717461565621775467071711046344563036760056746565370072446053557361245175756124657504554613225554542114362476"},
    {"random200", 2, 2, "01011100011100111011111111111111001011011111101011111111100001111100101110010101000110100110101011011111110110101011011010111100101101111001100001001010011101001111010111110010110111001011101101110000"},
    {"random200", 2, 3, "20100112201202110120010000012100220110111000110200210110000120020201021102101210211001122011011210200210002011001200010202001012021011100200000220100101121111210000010021001001012000121011011101110212"},
    {"random200", 2, 4, "02122310122301332132222332222233012022122232213022232222200112223211303321030212110220210330312122032322330220302022023020233201202312223013201013113120033213102222120323221020220222012032302203230000"},
    {"random200", 2, 8, "04274421356613674255654644544476135146244765527175444465400235456522614453051435320540531670624345174744461441604045147061575413406524474026502137227240177534317444240657553140740475124044605406471000"},
    {"random200", 3, 2, "01111100110111011110111011100111000110111001101011110010011111100100111110110111100101110111100001001110100101011010001001111111011101100010111110111101100001111011101001011100001101001101111110111111"},
    {"random200", 3, 3, "10101111012000100222012111101001110111001121221120011001101000121012120101011111021010121000112122210011112110011111110221100010100010112202011002200012122020111201120012200011021012111021021101200212"},
    {"random200", 3, 4, "03323210331232033331222033300232101220322002313022220121023233210311222230220332201203320233201112003320300202122120003012323332032303301120322331222302211103232132302002122200103213002213322230223322"},
    {"random200", 3, 8, "16777721473665167662547166611546313570655114626177440263156677530733754651760777402507650556702237006461411715347361105027776465075406602341475473745614632304564347705107275500217736116737475560776645"},
};

TEST(PartitionHypergraph, ReproducesPinnedPartitions) {
  std::map<std::pair<std::string, std::uint64_t>, Hypergraph> graphs;
  for (const PinnedPartition& pin : kPinnedPartitions) {
    const auto key = std::make_pair(std::string(pin.graph), pin.seed);
    if (graphs.count(key) == 0) {
      graphs[key] = key.first == "random200"
                        ? random_hypergraph(pin.seed)
                        : soc_hypergraph(key.first, pin.seed);
    }
    PartitionConfig config;
    config.seed = pin.seed;
    const Partition p = partition_hypergraph(graphs[key], pin.k, config);
    std::string digits;
    for (const int part : p.part_of) digits += static_cast<char>('0' + part);
    EXPECT_EQ(digits, pin.part_of)
        << pin.graph << " seed " << pin.seed << " k " << pin.k;
  }
}

}  // namespace
}  // namespace sitam
