// Output checks and the layer-by-layer replay of build_si_test_set.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include <sys/resource.h>

#include "bench.h"
#include "hypergraph/partition.h"
#include "pattern/compaction.h"
#include "tam/bounds.h"
#include "tam/verify.h"

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Report::op_done(const std::vector<std::string>& problems) {
  ++attempted;
  if (problems.empty()) return;
  ++failed;
  correct = false;
  for (std::size_t i = 0; i < problems.size() && i < 5; ++i) {
    std::cerr << "check failed: " << problems[i] << '\n';
  }
}

void Report::op_error(const std::string& what) {
  ++attempted;
  ++failed;
  std::cerr << "op failed: " << what << '\n';
}

ThreadSampler::ThreadSampler()
    : thread_([this] {
        while (!stop_.load()) {
          const int now = process_threads();
          if (now > peak_.load()) peak_.store(now);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  thread_.join();
}

namespace {

template <typename T>
std::string str(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

void append(std::vector<std::string>& out, const std::string& where,
            const std::vector<std::string>& problems) {
  for (const std::string& p : problems) out.push_back(where + ": " + p);
}

}  // namespace

std::vector<std::string> check_test_set(const sitam::SiTestSet& set, int parts,
                                        std::int64_t n_r) {
  std::vector<std::string> out;
  if (set.parts != parts) {
    out.push_back("test set has parts=" + str(set.parts) + ", asked " +
                  str(parts));
  }
  if (set.total_raw_patterns() != n_r) {
    out.push_back("test set holds " + str(set.total_raw_patterns()) +
                  " raw patterns, N_r=" + str(n_r));
  }
  if (set.total_patterns() > n_r) {
    out.push_back("compaction grew the set to " + str(set.total_patterns()));
  }
  return out;
}

std::vector<std::string> check_optimize(const sitam::Soc& soc,
                                        const sitam::TestTimeTable& table,
                                        const sitam::SiTestSet& tests,
                                        int w_max,
                                        const sitam::OptimizeResult& result,
                                        LayerTimes* layers) {
  std::vector<std::string> out = sitam::verify_evaluation(
      soc, table, tests, result.architecture, result.evaluation);
  append(out, "stats", sitam::verify_stats(result.stats));
  if (result.architecture.total_width() != w_max) {
    out.push_back("rails sum to " + str(result.architecture.total_width()) +
                  ", W_max=" + str(w_max));
  }
  const Clock::time_point start = Clock::now();
  const std::int64_t bound =
      sitam::lower_bounds(soc, table, tests, w_max).t_soc();
  if (layers != nullptr) layers->seconds["tam.bounds_s"] += seconds_since(start);
  if (result.evaluation.t_soc < bound) {
    out.push_back("t_soc " + str(result.evaluation.t_soc) +
                  " below the lower bound " + str(bound));
  }
  return out;
}

std::vector<std::string> check_outcome(const sitam::SiWorkload& workload,
                                       const sitam::ExperimentOutcome& row,
                                       LayerTimes* layers) {
  std::vector<std::string> out;
  const sitam::Soc& soc = workload.soc();
  const sitam::TestTimeTable table(soc, row.w_max);
  const std::vector<int>& groupings = workload.groupings();
  if (row.per_grouping.size() != groupings.size()) {
    out.push_back("W=" + str(row.w_max) + ": " + str(row.per_grouping.size()) +
                  " grouping results for " + str(groupings.size()) +
                  " groupings");
    return out;
  }
  std::int64_t t_min = std::numeric_limits<std::int64_t>::max();
  std::int64_t min_bound = std::numeric_limits<std::int64_t>::max();
  for (std::size_t g = 0; g < groupings.size(); ++g) {
    const sitam::SiTestSet& tests = workload.tests(groupings[g]);
    append(out, "W=" + str(row.w_max) + " i=" + str(groupings[g]),
           check_optimize(soc, table, tests, row.w_max, row.per_grouping[g],
                          layers));
    t_min = std::min(t_min, row.per_grouping[g].evaluation.t_soc);
    min_bound = std::min(
        min_bound, sitam::lower_bounds(soc, table, tests, row.w_max).t_soc());
  }
  if (row.t_min != t_min) {
    out.push_back("W=" + str(row.w_max) + ": T_min " + str(row.t_min) +
                  " is not the minimum " + str(t_min) + " over the groupings");
  }
  if (row.baseline_architecture.total_width() != row.w_max) {
    out.push_back("W=" + str(row.w_max) + ": baseline rails sum to " +
                  str(row.baseline_architecture.total_width()));
  }
  if (row.t_baseline < min_bound) {
    out.push_back("W=" + str(row.w_max) + ": T_[8] " + str(row.t_baseline) +
                  " below every grouping's lower bound");
  }
  return out;
}

std::vector<std::string> check_sweep_shape(const sitam::SweepResult& sweep,
                                           const std::vector<int>& widths,
                                           std::size_t groupings) {
  std::vector<std::string> out;
  if (sweep.rows.size() != widths.size()) {
    out.push_back("sweep has " + str(sweep.rows.size()) + " rows for " +
                  str(widths.size()) + " widths");
    return out;
  }
  for (std::size_t r = 0; r < widths.size(); ++r) {
    const sitam::ExperimentOutcome& row = sweep.rows[r];
    const std::string where = "W=" + str(widths[r]);
    if (row.w_max != widths[r] || row.per_grouping.size() != groupings) {
      out.push_back(where + ": row shape mismatch");
      continue;
    }
    std::int64_t t_min = std::numeric_limits<std::int64_t>::max();
    for (const sitam::OptimizeResult& result : row.per_grouping) {
      t_min = std::min(t_min, result.evaluation.t_soc);
      append(out, where, sitam::verify_stats(result.stats));
      if (result.architecture.total_width() != row.w_max) {
        out.push_back(where + ": rails sum to " +
                      str(result.architecture.total_width()));
      }
    }
    if (row.t_min != t_min) {
      out.push_back(where + ": T_min is not the minimum over the groupings");
    }
  }
  return out;
}

std::vector<std::string> replay_test_set(
    std::span<const sitam::SiPattern> raw,
    const sitam::TerminalSpace& terminals, int parts,
    const sitam::GroupingConfig& grouping, const sitam::SiTestSet& real,
    LayerTimes& layers, double& critical) {
  std::vector<std::string> out;
  std::vector<std::int64_t> sizes;  // compacted size per non-empty bucket
  const auto compact = [&](std::span<const sitam::SiPattern> bucket) {
    const Clock::time_point start = Clock::now();
    const sitam::CompactionResult compacted =
        sitam::compact_greedy(bucket, terminals.total(), grouping.bus_width,
                              grouping.compaction);
    const double took = seconds_since(start);
    layers.seconds["pattern.compact_s"] += took;
    layers.counts["pattern.compact_input"] += static_cast<double>(bucket.size());
    critical = std::max(critical, took);
    if (sitam::first_uncovered(bucket, compacted.patterns) != -1) {
      out.push_back("compact_greedy left a pattern uncovered (parts=" +
                    str(parts) + ")");
    }
    sizes.push_back(static_cast<std::int64_t>(compacted.patterns.size()));
  };

  if (parts == 1) {
    if (!raw.empty()) compact(raw);
  } else {
    const sitam::Hypergraph hg = layers.time("hypergraph.build_s", [&] {
      return sitam::build_core_hypergraph(raw, terminals);
    });
    const sitam::Partition partition =
        layers.time("hypergraph.partition_s", [&] {
          return sitam::partition_hypergraph(hg, parts, grouping.partition);
        });
    // Same bucketing rule as build_si_test_set: a pattern whose care cores
    // all sit in one part goes to that part's bucket, the rest to the
    // remainder; buckets are compacted in part order, remainder last.
    std::vector<std::vector<sitam::SiPattern>> buckets(
        static_cast<std::size_t>(parts) + 1);
    for (const sitam::SiPattern& p : raw) {
      const std::vector<int> care = p.care_cores(terminals);
      const int part = partition.part_of[static_cast<std::size_t>(care[0])];
      bool local = true;
      for (const int c : care) {
        local = local && partition.part_of[static_cast<std::size_t>(c)] == part;
      }
      buckets[local ? static_cast<std::size_t>(part)
                    : static_cast<std::size_t>(parts)]
          .push_back(p);
    }
    for (const auto& bucket : buckets) {
      if (!bucket.empty()) compact(bucket);
    }
  }
  std::vector<std::int64_t> real_sizes;
  for (const sitam::SiTestGroup& g : real.groups) real_sizes.push_back(g.patterns);
  if (sizes != real_sizes) {
    out.push_back("replayed compaction of parts=" + str(parts) +
                  " gives other group sizes than build_si_test_set");
  }
  return out;
}

}  // namespace perfbench
