// Shared pieces of the sitam performance benchmark: run options, the run
// report (attempted/failed ops plus named metrics), timing and sample
// statistics, the per-layer accumulator of traced runs, and the output
// checks every op goes through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/flow.h"
#include "sitest/group.h"
#include "soc/soc.h"
#include "tam/optimizer.h"
#include "wrapper/design.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of this process so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();
/// Current thread count of this process (from /proc/self/status).
[[nodiscard]] int process_threads();

/// Linear-interpolated quantile q in [0,1] of `values` (copied, sorted).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// splitmix64 step: the one derivation of every per-op seed from the
/// workload seed, so the same --seed gives the same inputs.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a fixed number of rounds: every check, in seconds.
  bool smoke = false;
};

/// One run's outcome; printed as the last stdout line by main().
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False once any op produced an output that failed a check (errors
  /// thrown by the program count as failed ops but leave this true).
  bool correct = true;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Informational stdout lines printed before the result line.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Counts one attempted op and, when `problems` is non-empty, one failed
  /// op; the first problems go to stderr.
  void op_done(const std::vector<std::string>& problems);
  /// Counts one attempted op that threw.
  void op_error(const std::string& what);
};

/// Per-layer seconds and counts of a traced run, keyed by metric name.
struct LayerTimes {
  std::map<std::string, double> seconds;
  std::map<std::string, double> counts;

  template <typename F>
  auto time(const std::string& layer, F&& call) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      seconds[layer] += seconds_since(start);
    } else {
      auto result = call();
      seconds[layer] += seconds_since(start);
      return result;
    }
  }
};

/// Samples the process thread count every few milliseconds on one thread
/// of its own (traced runs only); peak() excludes the sampler itself.
class ThreadSampler {
 public:
  ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  ~ThreadSampler();
  [[nodiscard]] int peak() const { return peak_.load() - 1; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

// ---- Output checks (checks.cpp). Each returns human-readable problems,
// empty = verified. They compare against the independent verifier, the
// lower bounds and properties of the method, never against stored output.

/// total_raw_patterns() == N_r, total_patterns() <= N_r, parts as asked.
[[nodiscard]] std::vector<std::string> check_test_set(const sitam::SiTestSet& set,
                                                      int parts,
                                                      std::int64_t n_r);

/// verify_evaluation, verify_stats, rails summing to W_max and
/// t_soc >= lower_bounds(...).t_soc(). The bound's cost is added to
/// `layers` under tam.bounds_s when given.
[[nodiscard]] std::vector<std::string> check_optimize(
    const sitam::Soc& soc, const sitam::TestTimeTable& table,
    const sitam::SiTestSet& tests, int w_max,
    const sitam::OptimizeResult& result, LayerTimes* layers = nullptr);

/// Every grouping through check_optimize, T_min = min over groupings, the
/// baseline architecture's rails summing to W_max and T_[8] no lower than
/// the smallest grouping bound.
[[nodiscard]] std::vector<std::string> check_outcome(
    const sitam::SiWorkload& workload, const sitam::ExperimentOutcome& row,
    LayerTimes* layers = nullptr);

/// The checks that need no test set: one row per width in order, T_min =
/// min over groupings, rails summing to W_max, verify_stats.
[[nodiscard]] std::vector<std::string> check_sweep_shape(
    const sitam::SweepResult& sweep, const std::vector<int>& widths,
    std::size_t groupings);

/// Replays build_si_test_set for `parts` layer by layer through the public
/// calls (build_core_hypergraph, partition_hypergraph, compact_greedy per
/// bucket), timing each into `layers`, checking first_uncovered == -1 on
/// every compacted bucket and that the replay's group sizes equal `real`.
/// `critical` is raised to the longest single bucket compaction.
[[nodiscard]] std::vector<std::string> replay_test_set(
    std::span<const sitam::SiPattern> raw, const sitam::TerminalSpace& terminals,
    int parts, const sitam::GroupingConfig& grouping,
    const sitam::SiTestSet& real, LayerTimes& layers, double& critical);

// ---- Workloads (workloads.cpp).
[[nodiscard]] Report run_paper_table(const RunOptions& options);
[[nodiscard]] Report run_restart_sweep(const RunOptions& options);
[[nodiscard]] Report run_serve_mix(const RunOptions& options);
/// One N_r = 100 000 p93791 paper table, layer by layer, plus the whole-set
/// compaction at 1/2/4 threads on N_r = 30 000 (prints a text profile).
int run_reference_profile();

}  // namespace perfbench
