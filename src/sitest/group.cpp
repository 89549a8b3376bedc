#include "sitest/group.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/obs.h"

namespace sitam {

std::int64_t SiTestSet::total_patterns() const {
  std::int64_t sum = 0;
  for (const SiTestGroup& g : groups) sum += g.patterns;
  return sum;
}

std::int64_t SiTestSet::total_raw_patterns() const {
  std::int64_t sum = 0;
  for (const SiTestGroup& g : groups) sum += g.raw_patterns;
  return sum;
}

void assign_si_power(SiTestSet& set, const Soc& soc,
                     std::int64_t units_per_cell, std::int64_t base_units) {
  if (units_per_cell < 0 || base_units < 0) {
    throw std::invalid_argument("assign_si_power: negative unit");
  }
  for (SiTestGroup& group : set.groups) {
    std::int64_t cells = 0;
    for (const int core : group.cores) {
      if (core < 0 || core >= soc.core_count()) {
        throw std::invalid_argument(
            "assign_si_power: group references a core outside the SOC");
      }
      cells += soc.modules[static_cast<std::size_t>(core)].boundary_cells();
    }
    group.power = base_units + cells * units_per_cell;
  }
}

Hypergraph build_core_hypergraph(std::span<const SiPattern> patterns,
                                 const TerminalSpace& terminals) {
  return build_core_hypergraph(CareSets(patterns, terminals), terminals);
}

Hypergraph build_core_hypergraph(const CareSets& care,
                                 const TerminalSpace& terminals) {
  Hypergraph hg;
  hg.vertex_weights.reserve(
      static_cast<std::size_t>(terminals.core_count()));
  for (int core = 0; core < terminals.core_count(); ++core) {
    hg.vertex_weights.push_back(terminals.woc(core));
  }
  // Sort the patterns by care set and merge runs of equal sets: the same
  // edges, weights and lexicographic order Hypergraph::normalize() gives,
  // without a pin vector per pattern.
  std::vector<std::size_t> order;
  order.reserve(care.size());
  for (std::size_t i = 0; i < care.size(); ++i) {
    if (!care[i].empty()) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&care](std::size_t a, std::size_t b) {
    const std::span<const int> x = care[a];
    const std::span<const int> y = care[b];
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  });
  for (std::size_t k = 0; k < order.size();) {
    const std::span<const int> pins = care[order[k]];
    std::size_t end = k + 1;
    while (end < order.size() && std::ranges::equal(care[order[end]], pins)) {
      ++end;
    }
    hg.edges.push_back(Hyperedge{std::vector<int>(pins.begin(), pins.end()),
                                 static_cast<std::int64_t>(end - k)});
    k = end;
  }
  return hg;
}

SiTestSetBuilder::SiTestSetBuilder(std::span<const SiPattern> patterns,
                                   const TerminalSpace& terminals,
                                   std::span<const int> groupings)
    : patterns_(patterns), terminals_(&terminals) {
  if (std::none_of(groupings.begin(), groupings.end(),
                   [](int parts) { return parts > 1; })) {
    return;
  }
  {
    SITAM_TRACE_SPAN_ARG("sitest.care_sets.build",
                         static_cast<std::int64_t>(patterns.size()));
    care_.emplace(patterns, terminals);
  }
  SITAM_TRACE_SPAN_ARG("sitest.hypergraph.build",
                       static_cast<std::int64_t>(patterns.size()));
  hypergraph_ = build_core_hypergraph(*care_, terminals);
}

SiTestSet SiTestSetBuilder::build(int parts,
                                  const GroupingConfig& config) const {
  if (parts < 1) {
    throw std::invalid_argument("build_si_test_set: parts must be >= 1");
  }
  if (parts > 1 && !care_.has_value()) {
    throw std::invalid_argument(
        "SiTestSetBuilder: grouping " + std::to_string(parts) +
        " needs a builder made for a grouping above 1");
  }
  const TerminalSpace& terminals = *terminals_;
  const int cores = terminals.core_count();

  SiTestSet set;
  set.parts = parts;
  if (patterns_.empty()) return set;

  // Bucket b (b < parts: part b; b == parts: the remainder) holds the
  // pattern indices bucket_index[bucket_start[b], bucket_start[b + 1]), in
  // input order — the order the greedy compaction of a copied bucket saw.
  const auto bucket_count = static_cast<std::size_t>(parts) + 1;
  std::vector<std::uint32_t> bucket_index(patterns_.size());
  std::vector<std::size_t> bucket_start(bucket_count + 1, 0);
  std::vector<bool> bucket_bus(bucket_count, false);
  std::vector<int> part_of(static_cast<std::size_t>(cores), 0);
  if (parts == 1) {
    // Pure vertical compaction: one bucket, every pattern, all cores.
    std::iota(bucket_index.begin(), bucket_index.end(), std::uint32_t{0});
    bucket_start[1] = bucket_start[2] = patterns_.size();
    for (const SiPattern& p : patterns_) {
      if (!p.bus_bits().empty()) bucket_bus[0] = true;
    }
  } else {
    // Partition cores to minimize the (weighted) number of cross-group
    // patterns; then bucket each pattern by the part of its care cores.
    {
      SITAM_TRACE_SPAN_ARG("sitest.hypergraph.partition", parts);
      part_of = partition_hypergraph(hypergraph_, parts, config.partition)
                    .part_of;
    }
    std::vector<std::uint32_t> bucket_of(patterns_.size());
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
      const std::span<const int> care = (*care_)[i];
      // An all-don't-care pattern belongs to no part: it goes to the
      // remainder, where it joins the first compacted pattern.
      std::size_t bucket = static_cast<std::size_t>(parts);
      if (!care.empty()) {
        const int part = part_of[static_cast<std::size_t>(care[0])];
        const bool local = std::all_of(care.begin(), care.end(), [&](int c) {
          return part_of[static_cast<std::size_t>(c)] == part;
        });
        if (local) bucket = static_cast<std::size_t>(part);
      }
      bucket_of[i] = static_cast<std::uint32_t>(bucket);
      ++bucket_start[bucket + 1];
      if (!patterns_[i].bus_bits().empty()) bucket_bus[bucket] = true;
    }
    std::partial_sum(bucket_start.begin(), bucket_start.end(),
                     bucket_start.begin());
    std::vector<std::size_t> fill(bucket_start.begin(),
                                  bucket_start.end() - 1);
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
      bucket_index[fill[bucket_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  for (std::size_t bucket = 0; bucket < bucket_count; ++bucket) {
    const std::span<const std::uint32_t> indices =
        std::span<const std::uint32_t>(bucket_index)
            .subspan(bucket_start[bucket],
                     bucket_start[bucket + 1] - bucket_start[bucket]);
    if (indices.empty()) continue;
    SiTestGroup group;
    if (bucket == static_cast<std::size_t>(parts)) {
      group.label = "rem";
      // Cross-group patterns load every boundary.
      group.cores.resize(static_cast<std::size_t>(cores));
      std::iota(group.cores.begin(), group.cores.end(), 0);
      group.is_remainder = true;
    } else {
      group.label = 'g';
      group.label += std::to_string(bucket + 1);
      for (int core = 0; core < cores; ++core) {
        if (part_of[static_cast<std::size_t>(core)] ==
            static_cast<int>(bucket)) {
          group.cores.push_back(core);
        }
      }
    }
    group.raw_patterns = static_cast<std::int64_t>(indices.size());
    {
      SITAM_TRACE_SPAN_ARG("sitest.bucket.compact", group.raw_patterns);
      group.patterns = static_cast<std::int64_t>(
          compact_greedy_count(patterns_, indices, terminals.total(),
                               config.bus_width, config.compaction));
    }
    group.uses_bus = bucket_bus[bucket];
    set.groups.push_back(std::move(group));
  }
  return set;
}

SiTestSet build_si_test_set(std::span<const SiPattern> patterns,
                            const TerminalSpace& terminals, int parts,
                            const GroupingConfig& config) {
  const int groupings[] = {parts};
  return SiTestSetBuilder(patterns, terminals, groupings).build(parts, config);
}

}  // namespace sitam
