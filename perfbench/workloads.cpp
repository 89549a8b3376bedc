// The three benchmark workloads. Each runs its set-up several times (the
// median is setup_s), then ops until --seconds have passed at a round
// boundary, checking every op's output outside the timed figures. A traced
// run (--trace 1) runs the same ops and replays each layer through its
// public call to time it; its figures are the per-layer metrics.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "bench.h"
#include "core/context.h"
#include "obs/manifest.h"
#include "obs/trace_verify.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "soc/benchmarks.h"
#include "serve/server.h"
#include "store/import.h"
#include "store/store.h"
#include "tam/bounds.h"
#include "tam/evaluator.h"
#include "tam/verify.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using sitam::ExperimentOutcome;
using sitam::OptimizeResult;
using sitam::SiTestSet;
using sitam::SiWorkload;
using sitam::SiWorkloadConfig;
using sitam::Soc;
using sitam::TestTimeTable;

constexpr int kSetupReps = 3;
/// serve_mix's set-up is short (~0.5 s) and its first repetition in a
/// process runs slow, so it takes the median of more.
constexpr int kServeSetupReps = 5;
/// Seed of every warm-up input. Warm-ups do not depend on --seed, so
/// setup_s measures the same work in every run.
constexpr std::uint64_t kWarmupSeed = 0x5e70b;

std::vector<int> widths_8_to_64() { return {8, 16, 24, 32, 40, 48, 56, 64}; }

void append(std::vector<std::string>& out, std::vector<std::string> more) {
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
}

/// Timed-phase bookkeeping: op latencies, and the wall/CPU time spent on
/// checks, which the throughput and CPU figures leave out.
class Phase {
 public:
  template <typename F>
  void excluded(F&& call) {
    const Clock::time_point start = Clock::now();
    const double cpu = process_cpu_seconds();
    call();
    excluded_cpu_ += process_cpu_seconds() - cpu;
    excluded_wall_ += seconds_since(start);
  }
  [[nodiscard]] double elapsed() const { return seconds_since(start_); }
  void finish() {
    wall = seconds_since(start_) - excluded_wall_;
    cpu = process_cpu_seconds() - cpu_start_ - excluded_cpu_;
    peak_rss_mb = peak_rss_mib();
  }

  std::vector<double> op_seconds;
  double wall = 0.0;  ///< Timed-phase wall seconds, checks excluded.
  double cpu = 0.0;   ///< Timed-phase CPU seconds, checks excluded.
  /// Peak resident set by the end of the timed phase, before any check
  /// that runs after it.
  double peak_rss_mb = 0.0;

 private:
  Clock::time_point start_ = Clock::now();
  double cpu_start_ = process_cpu_seconds();
  double excluded_wall_ = 0.0;
  double excluded_cpu_ = 0.0;
};

void add_end_to_end(Report& report, const std::vector<double>& setups,
                    const Phase& phase) {
  const auto ops = static_cast<double>(phase.op_seconds.size());
  std::string each = "set-up seconds";
  for (const double setup : setups) each += " " + std::to_string(setup);
  report.notes.push_back(each);
  report.add("setup_s", median(setups), "s");
  report.add("op_s_p50", median(phase.op_seconds), "s");
  report.add("request_s_p90", quantile(phase.op_seconds, 0.9), "s");
  report.add("ops_per_s", ops / phase.wall, "1/s");
  report.add("cpu_s_per_op", phase.cpu / ops, "s");
  report.add("peak_rss_mb", phase.peak_rss_mb, "MiB");
}

double get(const std::map<std::string, double>& map, const std::string& key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Emits every per-layer metric in a fixed order. Layer seconds are per
/// timed op, set-up included; counts named tam.* are per op of the first
/// round, so they repeat exactly for a seed; a layer the workload does not
/// exercise reads 0.
void add_per_layer(Report& report, const LayerTimes& layers,
                   const std::vector<double>& op_seconds, int threads_peak) {
  // The traced op wall, for the tracing overhead against op_s_p50.
  report.notes.push_back("traced op_s_p50 " + std::to_string(median(op_seconds)));
  const auto ops = static_cast<double>(op_seconds.size());
  const auto per_op = [&](const char* name) {
    report.add(name, ratio(get(layers.seconds, name), ops), "s/op");
  };
  const auto count = [&](const char* name) { return get(layers.counts, name); };
  per_op("pattern.generate_s");
  per_op("pattern.compact_s");
  report.add("pattern.compact_ns_per_pattern",
             1e9 * ratio(get(layers.seconds, "pattern.compact_s"),
                         count("pattern.compact_input")),
             "ns");
  report.add("pattern.compact_critical_s",
             ratio(get(layers.seconds, "pattern.compact_critical_s"), ops), "s");
  report.add("pattern.compacted_patterns", count("pattern.compacted_patterns"),
             "count");
  per_op("hypergraph.build_s");
  per_op("hypergraph.partition_s");
  per_op("sitest.build_s");
  per_op("wrapper.table_s");
  per_op("tam.optimize_s");
  per_op("tam.baseline_s");
  const double round_ops = count("round_ops");
  report.add("tam.evaluations", ratio(count("tam.evaluations"), round_ops),
             "count/op");
  report.add("tam.full_schedules",
             ratio(count("tam.full_schedules"), round_ops), "count/op");
  report.add("tam.evaluations_per_s",
             ratio(count("tam.replay_evaluations"),
                   get(layers.seconds, "tam.optimize_s")),
             "1/s");
  report.add("tam.delta_hit_rate",
             ratio(count("tam.delta_hits"), count("tam.evaluations")), "ratio");
  report.add("tam.memo_hit_rate",
             ratio(count("tam.memo_hits"), count("tam.evaluations")), "ratio");
  per_op("tam.bounds_s");
  per_op("core.prepare_s");
  per_op("core.sweep_s");
  report.add("core.workload_hit_rate", count("core.workload_hit_rate"), "ratio");
  report.add("core.result_hit_rate", count("core.result_hit_rate"), "ratio");
  report.add("serve.queue_wait_s_p50", count("serve.queue_wait_s_p50"), "s");
  report.add("serve.queue_wait_s_p90", count("serve.queue_wait_s_p90"), "s");
  report.add("serve.service_s_p50", count("serve.service_s_p50"), "s");
  report.add("serve.followers", count("serve.followers"), "count");
  report.add("store.append_s_p50", count("store.append_s_p50"), "s");
  report.add("process.threads_peak", threads_peak, "count");
}

void count_stats(LayerTimes& layers, const sitam::EvaluatorStats& stats) {
  layers.counts["tam.evaluations"] += static_cast<double>(stats.evaluations);
  layers.counts["tam.full_schedules"] += static_cast<double>(stats.cache_misses);
  layers.counts["tam.delta_hits"] += static_cast<double>(stats.delta_hits);
  layers.counts["tam.memo_hits"] += static_cast<double>(stats.cache_hits);
}

/// The paper's §5 workload on one thread: four groupings, serial prepare,
/// serial compaction.
SiWorkloadConfig serial_config(std::int64_t n_r, std::uint64_t seed) {
  SiWorkloadConfig config;
  config.pattern_count = n_r;
  config.seed = seed;
  config.groupings = {1, 2, 4, 8};
  config.parallel_prepare = false;
  config.grouping.compaction.threads = 1;
  return config;
}

/// The grouping knobs SiWorkload::prepare derives from its config; the
/// replay must use them to reproduce the real call.
sitam::GroupingConfig prepared_grouping(const SiWorkloadConfig& config) {
  sitam::GroupingConfig grouping = config.grouping;
  grouping.bus_width = std::max(grouping.bus_width, config.patterns.bus_width);
  grouping.partition.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  if (config.parallel_prepare && config.groupings.size() == 1 &&
      grouping.compaction.threads == 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    grouping.compaction.threads = static_cast<int>(std::clamp(hw, 1u, 8u));
  }
  return grouping;
}

std::vector<std::int64_t> group_sizes(const SiTestSet& set) {
  std::vector<std::int64_t> sizes;
  for (const sitam::SiTestGroup& g : set.groups) sizes.push_back(g.patterns);
  return sizes;
}

/// Prepares `config` and replays every layer under it through the public
/// calls, timing each; returns the real workload and adds every problem the
/// checks find to `problems`.
SiWorkload traced_prepare(const Soc& soc, const SiWorkloadConfig& config,
                          LayerTimes& layers, bool count_patterns,
                          std::vector<std::string>& problems) {
  SiWorkload workload = layers.time(
      "core.prepare_s", [&] { return SiWorkload::prepare(soc, config); });
  const sitam::TerminalSpace terminals(soc);
  sitam::Rng rng(config.seed);
  const std::vector<sitam::SiPattern> raw =
      layers.time("pattern.generate_s", [&] {
        return sitam::generate_random_patterns(
            terminals, config.pattern_count, config.patterns, rng);
      });
  const sitam::GroupingConfig grouping = prepared_grouping(config);
  double critical = 0.0;
  for (const int parts : config.groupings) {
    const SiTestSet& real = workload.tests(parts);
    append(problems, check_test_set(real, parts, config.pattern_count));
    const SiTestSet built = layers.time("sitest.build_s", [&] {
      return sitam::build_si_test_set(raw, terminals, parts, grouping);
    });
    if (group_sizes(built) != group_sizes(real)) {
      problems.push_back("build_si_test_set disagrees with prepare");
    }
    append(problems, replay_test_set(raw, terminals, parts, grouping, real,
                                     layers, critical));
    if (count_patterns) {
      layers.counts["pattern.compacted_patterns"] +=
          static_cast<double>(real.total_patterns());
    }
  }
  layers.seconds["pattern.compact_critical_s"] += critical;
  return workload;
}

/// Replays one run_experiment cell by cell (time table, InTest-only
/// baseline, Algorithm 2 per grouping), timing each layer and checking the
/// replay reproduces `row`.
void traced_experiment(const SiWorkload& workload, const ExperimentOutcome& row,
                       const sitam::OptimizerConfig& optimizer,
                       LayerTimes& layers, std::vector<std::string>& problems) {
  const Soc& soc = workload.soc();
  const TestTimeTable table = layers.time(
      "wrapper.table_s", [&] { return TestTimeTable(soc, row.w_max); });
  const std::vector<int>& groupings = workload.groupings();
  const OptimizeResult baseline = layers.time("tam.baseline_s", [&] {
    return sitam::optimize_intest_only(soc, table,
                                       workload.tests(groupings.front()),
                                       row.w_max, optimizer);
  });
  if (baseline.evaluation.t_soc < row.t_baseline) {
    problems.push_back("optimize_intest_only beats run_experiment's T_[8]");
  }
  for (std::size_t g = 0; g < groupings.size(); ++g) {
    const OptimizeResult result = layers.time("tam.optimize_s", [&] {
      return sitam::optimize_tam(soc, table, workload.tests(groupings[g]),
                                 row.w_max, optimizer);
    });
    layers.counts["tam.replay_evaluations"] +=
        static_cast<double>(result.stats.evaluations);
    if (result.evaluation.t_soc != row.per_grouping[g].evaluation.t_soc) {
      problems.push_back("replayed optimize_tam differs from run_experiment");
    }
  }
}

// ---------------------------------------------------------------- paper_table

/// One full paper table per op: p93791, N_r = 30 000, groupings {1,2,4,8},
/// W_max 8..64, all on one thread; each op has its own pattern seed. The
/// op is SiWorkload::prepare + run_sweep, the work SitamContext::run does
/// for a kSweep request on a fresh context, so the checks can read the
/// test sets; set-up runs that request through SitamContext::run itself.
struct PaperTableSize {
  std::string soc;
  std::int64_t n_r = 0;
  std::vector<int> widths;
};

PaperTableSize paper_table_size(bool smoke) {
  if (smoke) return {"d695", 600, {8, 16}};
  return {"p93791", 30000, widths_8_to_64()};
}

}  // namespace

Report run_paper_table(const RunOptions& options) {
  Report report;
  const PaperTableSize size = paper_table_size(options.smoke);
  sitam::OptimizerConfig optimizer;
  optimizer.threads = 1;

  std::vector<double> setups;
  Soc soc;
  const int reps = options.smoke || options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    soc = sitam::load_benchmark(size.soc);
    sitam::SitamContext context;
    sitam::FlowRequest request;
    request.mode = sitam::FlowMode::kSweep;
    request.soc = context.intern(soc);
    request.workload =
        serial_config(size.n_r, kWarmupSeed);
    request.widths = size.widths;
    request.optimizer = optimizer;
    const sitam::FlowResult warm = context.run(request);
    setups.push_back(seconds_since(start));
    report.op_done(check_sweep_shape(warm.sweep, size.widths, 4));
  }

  LayerTimes layers;
  std::unique_ptr<ThreadSampler> sampler;
  if (options.trace) sampler = std::make_unique<ThreadSampler>();
  Phase phase;
  for (std::uint64_t op = 0;; ++op) {
    const bool done = options.smoke ? op >= 2
                                    : op > 0 && phase.elapsed() >= options.seconds;
    if (done) break;
    const SiWorkloadConfig config =
        serial_config(size.n_r, mix_seed(options.seed, op));
    try {
      std::vector<std::string> problems;
      const Clock::time_point start = Clock::now();
      if (!options.trace) {
        const SiWorkload workload = SiWorkload::prepare(soc, config);
        const sitam::SweepResult sweep =
            sitam::run_sweep(workload, size.widths, optimizer);
        phase.op_seconds.push_back(seconds_since(start));
        phase.excluded([&] {
          for (const int parts : config.groupings) {
            append(problems, check_test_set(workload.tests(parts), parts,
                                            size.n_r));
          }
          append(problems, check_sweep_shape(sweep, size.widths, 4));
          for (const ExperimentOutcome& row : sweep.rows) {
            append(problems, check_outcome(workload, row));
          }
        });
      } else {
        // The op's wall is that of its two real calls; the replays between
        // them are left out, so it compares with the untraced op_s_p50.
        const double before = get(layers.seconds, "core.prepare_s") +
                              get(layers.seconds, "core.sweep_s");
        const SiWorkload workload =
            traced_prepare(soc, config, layers, op == 0, problems);
        const sitam::SweepResult sweep = layers.time("core.sweep_s", [&] {
          return sitam::run_sweep(workload, size.widths, optimizer);
        });
        phase.op_seconds.push_back(get(layers.seconds, "core.prepare_s") +
                                   get(layers.seconds, "core.sweep_s") - before);
        append(problems, check_sweep_shape(sweep, size.widths, 4));
        for (const ExperimentOutcome& row : sweep.rows) {
          append(problems, check_outcome(workload, row, &layers));
          traced_experiment(workload, row, optimizer, layers, problems);
          if (op == 0) {
            for (const OptimizeResult& r : row.per_grouping) {
              count_stats(layers, r.stats);
            }
          }
        }
        if (op == 0) layers.counts["round_ops"] = 1;
      }
      report.op_done(problems);
    } catch (const std::exception& err) {
      report.op_error(err.what());
    }
  }
  phase.finish();
  if (options.trace) {
    add_per_layer(report, layers, phase.op_seconds, sampler->peak());
  } else {
    add_end_to_end(report, setups, phase);
  }
  return report;
}

// -------------------------------------------------------------- restart_sweep

namespace {

/// Algorithm 2 with 8 restarts on 2 threads over one prepared p93791
/// N_r = 10 000 workload; an op is one run_experiment, W cycling 8..64,
/// with a restart seed of its own.
struct RestartSweepSize {
  std::string soc;
  std::int64_t n_r = 0;
  std::vector<int> widths;
  int restarts = 8;
};

RestartSweepSize restart_sweep_size(bool smoke) {
  if (smoke) return {"d695", 1000, {8, 16}, 2};
  return {"p93791", 10000, widths_8_to_64(), 8};
}

}  // namespace

Report run_restart_sweep(const RunOptions& options) {
  Report report;
  const RestartSweepSize size = restart_sweep_size(options.smoke);
  sitam::OptimizerConfig optimizer;
  optimizer.restarts = size.restarts;
  optimizer.threads = 2;
  // The workload is the same in every run, so set-up does the same work;
  // the seed varies the ops through their restart seeds.
  const SiWorkloadConfig config = serial_config(size.n_r, kWarmupSeed);

  LayerTimes layers;
  std::unique_ptr<ThreadSampler> sampler;
  if (options.trace) sampler = std::make_unique<ThreadSampler>();

  std::vector<double> setups;
  std::optional<SiWorkload> workload;
  const int reps = options.smoke || options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::string> problems;
    const Clock::time_point start = Clock::now();
    const Soc soc = sitam::load_benchmark(size.soc);
    if (options.trace) {
      workload.emplace(traced_prepare(soc, config, layers, true, problems));
    } else {
      workload.emplace(SiWorkload::prepare(soc, config));
    }
    // One untimed cycle: the first cycle after a serial prepare runs up to
    // twice as slow (both optimizer threads waking up), which would
    // otherwise weigh on short runs more than on long ones.
    std::vector<ExperimentOutcome> warm;
    for (const int w_max : size.widths) {
      warm.push_back(sitam::run_experiment(*workload, w_max, optimizer));
    }
    setups.push_back(seconds_since(start));
    for (const int parts : config.groupings) {
      append(problems, check_test_set(workload->tests(parts), parts, size.n_r));
    }
    for (const ExperimentOutcome& row : warm) {
      append(problems, check_outcome(*workload, row));
    }
    report.op_done(problems);
  }

  Phase phase;
  std::uint64_t op = 0;
  for (int cycle = 0;; ++cycle) {
    const bool done = options.smoke ? cycle >= 1
                                    : cycle > 0 && phase.elapsed() >= options.seconds;
    if (done) break;
    for (const int w_max : size.widths) {
      sitam::OptimizerConfig op_optimizer = optimizer;
      op_optimizer.restart_seed = mix_seed(options.seed, ++op);
      try {
        std::vector<std::string> problems;
        const Clock::time_point start = Clock::now();
        const ExperimentOutcome row =
            sitam::run_experiment(*workload, w_max, op_optimizer);
        phase.op_seconds.push_back(seconds_since(start));
        if (options.trace) {
          append(problems, check_outcome(*workload, row, &layers));
          traced_experiment(*workload, row, op_optimizer, layers, problems);
          if (cycle == 0) {
            for (const OptimizeResult& r : row.per_grouping) {
              count_stats(layers, r.stats);
            }
            layers.counts["round_ops"] += 1;
          }
        } else {
          phase.excluded(
              [&] { append(problems, check_outcome(*workload, row)); });
        }
        report.op_done(problems);
      } catch (const std::exception& err) {
        report.op_error(err.what());
      }
    }
  }
  phase.finish();
  if (options.trace) {
    add_per_layer(report, layers, phase.op_seconds, sampler->peak());
  } else {
    add_end_to_end(report, setups, phase);
  }
  return report;
}

// ------------------------------------------------------------------ serve_mix

namespace {

struct MixSize {
  std::vector<std::string> socs;
  std::vector<std::int64_t> n_rs;
  std::vector<int> widths;  ///< At least five: a family's requests use distinct widths.
  std::vector<int> parts;
  std::vector<int> restarts;

  /// Requests per round: four for each (soc, N_r) pair. A run sends whole
  /// rounds.
  [[nodiscard]] int round() const {
    return static_cast<int>(4 * socs.size() * n_rs.size());
  }
};

MixSize mix_size(bool smoke) {
  if (smoke) return {{"d695", "p22810"}, {200, 400}, {8, 16, 24, 32, 40}, {1, 2}, {1, 2}};
  return {{"d695", "p22810", "p34392", "p93791"},
          {2000, 5000},
          widths_8_to_64(),
          {1, 2, 4},
          {1, 4}};
}

/// One request of the mix, minus its id.
struct MixSpec {
  bool sweep = false;
  std::string soc;
  std::int64_t n_r = 0;
  std::uint64_t seed = 0;
  int parts = 1;
  std::vector<int> widths;
  int restarts = 1;
  std::string priority = "normal";
  bool trace = false;

  [[nodiscard]] std::string workload_key() const {
    return soc + "/" + std::to_string(n_r) + "/" + std::to_string(seed) + "/" +
           std::to_string(parts);
  }
  /// The request's fields after the id; also its identity for repeats.
  [[nodiscard]] std::string fields() const {
    std::ostringstream os;
    os << ",\"soc\":\"" << soc << "\",\"nr\":" << n_r << ",\"seed\":" << seed
       << ",\"parts\":[" << parts << "]";
    if (sweep) {
      os << ",\"widths\":[";
      for (std::size_t i = 0; i < widths.size(); ++i) {
        os << (i == 0 ? "" : ",") << widths[i];
      }
      os << "]";
    } else {
      os << ",\"wmax\":" << widths.front();
    }
    os << ",\"restarts\":" << restarts << ",\"priority\":\"" << priority
       << "\",\"trace\":" << (trace ? "true" : "false") << "}";
    return os.str();
  }
  [[nodiscard]] std::string line(const std::string& id) const {
    return std::string("{\"op\":\"") + (sweep ? "sweep" : "optimize") +
           "\",\"id\":\"" + id + "\"" + fields();
  }
};

/// The seeded request stream. It is built a round at a time, and every
/// round has the same make-up, so a run's mix does not drift with the seed:
/// - one new workload per (soc, N_r) pair, with a fresh 32-bit pattern
///   seed; its parts rotate through the list from round to round;
/// - four requests per workload: its first use, two reuses at new widths
///   and one exact repeat of one of those three (1/4 new, 1/2 reuse, 1/4
///   repeat);
/// - the first reuse is a three-width sweep on every other pair (1 in 8),
///   the second reuse is traced on every fourth pair (1 in 16), and
///   restarts alternate along the list;
/// - priority `high` 1/8, `low` 1/8, else `normal`, drawn per request.
/// Which pair gets a sweep, a trace or which request repeats rotates with
/// the round; the seed draws the pattern seeds, widths, priorities and the
/// order, a random interleaving of the workloads' request lists.
class MixStream {
 public:
  MixStream(std::uint64_t seed, MixSize size)
      : rng_(mix_seed(seed, 77)), size_(std::move(size)) {}

  MixSpec next() {
    if (next_ == pending_.size()) build_round();
    return pending_[next_++];
  }

 private:
  void build_round() {
    const std::size_t pairs = size_.socs.size() * size_.n_rs.size();
    std::vector<std::vector<MixSpec>> families;
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t turn = p + round_;
      MixSpec base;
      base.soc = size_.socs[p / size_.n_rs.size()];
      base.n_r = size_.n_rs[p % size_.n_rs.size()];
      base.seed = rng_() & 0xffffffffULL;
      base.parts = size_.parts[turn % size_.parts.size()];
      std::vector<int> widths = size_.widths;
      std::shuffle(widths.begin(), widths.end(), rng_);
      std::vector<MixSpec> family(3, base);
      family[0].widths = {widths[0]};
      if (turn % 2 == 0) {
        family[1].sweep = true;
        family[1].widths = {widths[1], widths[2], widths[3]};
        std::sort(family[1].widths.begin(), family[1].widths.end());
      } else {
        family[1].widths = {widths[1]};
      }
      family[2].widths = {widths[4]};
      family[2].trace = turn % 4 == 1;
      for (std::size_t k = 0; k < family.size(); ++k) {
        family[k].restarts = size_.restarts[(k + turn) % size_.restarts.size()];
        const double priority = uniform();
        family[k].priority =
            priority < 0.125 ? "high" : priority < 0.25 ? "low" : "normal";
      }
      family.push_back(family[turn % 3]);
      families.push_back(std::move(family));
    }
    // A uniformly random interleaving that keeps each family's order.
    pending_.clear();
    next_ = 0;
    std::vector<std::size_t> taken(pairs, 0);
    for (std::size_t left = 4 * pairs; left > 0; --left) {
      std::size_t pick = static_cast<std::size_t>(rng_() % left);
      std::size_t f = 0;
      while (pick >= 4 - taken[f]) pick -= 4 - taken[f++];
      pending_.push_back(families[f][taken[f]++]);
    }
    ++round_;
  }
  double uniform() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }

  std::mt19937_64 rng_;
  MixSize size_;
  std::size_t round_ = 0;
  std::vector<MixSpec> pending_;
  std::size_t next_ = 0;
};

/// The deterministic payload of a result line: the observability object
/// dropped and the echoed id blanked.
std::string result_payload(const std::string& line, const std::string& id) {
  std::string payload = line;
  const std::size_t obs = payload.find(",\"observability\":");
  if (obs != std::string::npos) payload = payload.substr(0, obs) + "}";
  const std::string echoed = "\"id\":\"" + id + "\"";
  const std::size_t at = payload.find(echoed);
  if (at != std::string::npos) payload.replace(at, echoed.size(), "\"id\":\"\"");
  return payload;
}

/// "type" and "id" of a response line, read from its fixed prefix
/// ({"type":"...","id":"..."...), as the JSON writer emits it.
std::pair<std::string, std::string> line_type_and_id(const std::string& line) {
  const std::string type_key = "{\"type\":\"";
  if (line.rfind(type_key, 0) != 0) return {};
  const std::size_t type_end = line.find('"', type_key.size());
  std::string type = line.substr(type_key.size(), type_end - type_key.size());
  const std::string id_key = ",\"id\":\"";
  if (line.compare(type_end + 1, id_key.size(), id_key) != 0) return {type, ""};
  const std::size_t id_start = type_end + 1 + id_key.size();
  return {std::move(type), line.substr(id_start, line.find('"', id_start) - id_start)};
}

/// One appended store record per result line, as `sitam sweep-fleet` does.
sitam::store::StoreRecord result_record(const MixSpec& spec,
                                        const std::string& payload) {
  sitam::store::StoreRecord record;
  record.manifest = sitam::obs::RunManifest::collect("perfbench serve_mix");
  record.manifest.scenario = spec.soc;
  record.manifest.seed = spec.seed;
  record.scenario = spec.soc + "/" + spec.workload_key() +
                    (spec.sweep ? "/sweep" : "/w" + std::to_string(spec.widths.front()));
  record.config_hash = sitam::store::store_hash_hex(spec.fields());
  record.result_digest = sitam::store::store_hash_hex(payload);
  sitam::store::flatten_numeric_metrics(sitam::parse_json(payload), "",
                                        record.metrics);
  return record;
}

sitam::EvaluatorStats parse_stats(const sitam::JsonValue& root) {
  sitam::EvaluatorStats stats;
  const sitam::JsonValue* s = root.find("stats");
  if (s == nullptr) return stats;
  const auto field = [&](const char* name) {
    const sitam::JsonValue* v = s->find(name);
    return v == nullptr ? std::int64_t{-1} : v->as_int();
  };
  stats.evaluations = field("evaluations");
  stats.cache_hits = field("cache_hits");
  stats.delta_hits = field("delta_hits");
  stats.cache_misses = field("cache_misses");
  return stats;
}

std::int64_t int_of(const sitam::JsonValue& root, const char* key) {
  const sitam::JsonValue* v = root.find(key);
  return v == nullptr ? -1 : v->as_int();
}

/// Checks one result line against the workload prepared by the checker.
std::vector<std::string> check_result(const MixSpec& spec,
                                      const sitam::JsonValue& root,
                                      const SiWorkload& workload,
                                      LayerTimes* layers) {
  std::vector<std::string> out;
  const Soc& soc = workload.soc();
  const SiTestSet& tests = workload.tests(spec.parts);
  append(out, sitam::verify_stats(parse_stats(root)));
  const auto table_for = [&](int w_max) {
    if (layers == nullptr) return TestTimeTable(soc, w_max);
    return layers->time("wrapper.table_s",
                        [&] { return TestTimeTable(soc, w_max); });
  };
  if (!spec.sweep) {
    const int w_max = spec.widths.front();
    OptimizeResult result;
    for (const sitam::JsonValue& rail : root.find("rails")->as_array()) {
      sitam::TestRail test_rail;
      test_rail.width = static_cast<int>(int_of(rail, "width"));
      for (const sitam::JsonValue& core : rail.find("cores")->as_array()) {
        test_rail.cores.push_back(static_cast<int>(core.as_int()));
      }
      result.architecture.rails.push_back(std::move(test_rail));
    }
    const TestTimeTable table = table_for(w_max);
    result.evaluation =
        sitam::TamEvaluator(soc, table, tests).evaluate(result.architecture);
    result.stats = parse_stats(root);
    if (result.evaluation.t_soc != int_of(root, "t_soc")) {
      out.push_back("returned architecture scores " +
                    std::to_string(result.evaluation.t_soc) +
                    ", the result line claims " +
                    std::to_string(int_of(root, "t_soc")));
    }
    append(out, check_optimize(soc, table, tests, w_max, result, layers));
    return out;
  }
  const auto& rows = root.find("rows")->as_array();
  if (rows.size() != spec.widths.size()) {
    out.push_back("sweep returned " + std::to_string(rows.size()) + " rows");
    return out;
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const int w_max = spec.widths[r];
    const TestTimeTable table = table_for(w_max);
    const Clock::time_point start = Clock::now();
    const std::int64_t bound = sitam::lower_bounds(soc, table, tests, w_max).t_soc();
    if (layers != nullptr) layers->seconds["tam.bounds_s"] += seconds_since(start);
    std::int64_t t_min = std::numeric_limits<std::int64_t>::max();
    for (const sitam::JsonValue& t : rows[r].find("t_g")->as_array()) {
      t_min = std::min(t_min, t.as_int());
      if (t.as_int() < bound) out.push_back("T_g below the lower bound");
    }
    if (int_of(rows[r], "t_min") != t_min) {
      out.push_back("T_min is not the minimum over the groupings");
    }
    if (int_of(rows[r], "t_baseline") < bound) {
      out.push_back("T_[8] below the lower bound");
    }
  }
  return out;
}

}  // namespace

Report run_serve_mix(const RunOptions& options) {
  namespace fs = std::filesystem;
  Report report;
  const MixSize size = mix_size(options.smoke);
  const fs::path scratch = fs::path(".bench_scratch") /
                           ("serve_mix_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const std::string store_path = (scratch / "results.jsonl").string();

  // Shared between the client thread and the server's sink.
  std::mutex mutex;
  std::condition_variable changed;
  int outstanding = 0;                                   // guarded_by(mutex)
  std::map<std::string, Clock::time_point> submitted;    // guarded_by(mutex)
  std::map<std::string, Clock::time_point> progressed;   // guarded_by(mutex)
  std::map<std::string, Clock::time_point> answered;     // guarded_by(mutex)
  std::map<std::string, std::string> lines;              // guarded_by(mutex)
  std::map<std::string, MixSpec> specs;                  // guarded_by(mutex)
  std::vector<double> append_seconds;                    // guarded_by(mutex)
  std::int64_t appended = 0;                             // guarded_by(mutex)
  std::int64_t append_failures = 0;                      // guarded_by(mutex)

  std::unique_ptr<sitam::store::ResultStore> store;
  const auto sink = [&](const std::string& line) {
    const Clock::time_point now = Clock::now();
    auto [type, id] = line_type_and_id(line);
    if (type == "progress") {
      const std::lock_guard<std::mutex> lock(mutex);
      progressed[id] = now;
      return;
    }
    if (type != "result" && type != "error") return;
    double took = 0.0;
    bool stored = false;
    if (type == "result") {
      MixSpec spec;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        spec = specs[id];
      }
      try {
        const sitam::store::StoreRecord record =
            result_record(spec, result_payload(line, id));
        const Clock::time_point start = Clock::now();
        stored = store->append(record);
        took = seconds_since(start);
      } catch (const std::exception& err) {
        std::cerr << "store record for " << id << ": " << err.what() << '\n';
      }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    if (type == "result") {
      append_seconds.push_back(took);
      ++appended;
      if (!stored) ++append_failures;
    }
    answered[id] = now;
    lines[id] = line;
    --outstanding;
    changed.notify_all();
  };

  sitam::serve::ServerOptions server_options;
  server_options.threads = 2;
  server_options.progress = true;

  // Sends one round of the closed loop: kOutstanding requests in flight,
  // the next sent as soon as one is answered.
  constexpr int kOutstanding = 4;
  const auto send_round = [&](sitam::serve::JobServer& target,
                              MixStream& stream, const std::string& prefix,
                              std::vector<std::string>& ids) {
    for (int k = 0; k < size.round(); ++k) {
      const MixSpec spec = stream.next();
      const std::string id = prefix + std::to_string(ids.size());
      {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] { return outstanding < kOutstanding; });
        ++outstanding;
        specs[id] = spec;
        submitted[id] = Clock::now();
      }
      ids.push_back(id);
      target.submit_line(spec.line(id));
    }
  };

  // Set-up: server start, store open and one warm-up round from a stream
  // of its own, each time on a fresh server and store.
  std::vector<double> setups;
  std::unique_ptr<sitam::serve::JobServer> server;
  const int reps = options.smoke || options.trace ? 1 : kServeSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    server.reset();
    store.reset();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      append_seconds.clear();
      appended = 0;
    }
    const Clock::time_point start = Clock::now();
    fs::remove(store_path);
    fs::remove(sitam::store::ResultStore::index_path_for(store_path));
    store = std::make_unique<sitam::store::ResultStore>(store_path);
    server = std::make_unique<sitam::serve::JobServer>(server_options, sink);
    MixStream warm_stream(kWarmupSeed, size);
    std::vector<std::string> warm;
    send_round(*server, warm_stream, "w", warm);
    server->drain();
    setups.push_back(seconds_since(start));
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::string> problems;
    for (const std::string& id : warm) {
      if (lines[id].rfind("{\"type\":\"result\"", 0) != 0) {
        problems.push_back("set-up request failed: " + lines[id]);
      }
      lines.erase(id);
      answered.erase(id);
      progressed.erase(id);
      submitted.erase(id);
      specs.erase(id);
    }
    append_seconds.clear();  // the warm-up's records stay in the store
    report.op_done(problems);
  }

  std::unique_ptr<ThreadSampler> sampler;
  if (options.trace) sampler = std::make_unique<ThreadSampler>();
  MixStream stream(options.seed, size);
  std::vector<std::string> order;  // ids in submission order
  Phase phase;
  do {
    send_round(*server, stream, "r", order);
  } while (!options.smoke && phase.elapsed() < options.seconds);
  server->drain();
  phase.finish();
  const sitam::serve::ServerStats server_stats = server->stats();
  const sitam::ContextStats context_stats = server->context_stats();
  server.reset();
  store.reset();
  // Stop sampling before the checker's own work.
  const int threads_peak = sampler == nullptr ? 0 : sampler->peak();
  sampler.reset();

  for (const std::string& id : order) {
    const auto it = answered.find(id);
    if (it == answered.end()) continue;  // an error line without its id
    phase.op_seconds.push_back(
        std::chrono::duration<double>(it->second - submitted[id]).count());
  }

  // Checks, after the timed phase: one prepared workload per distinct
  // (soc, N_r, seed, parts), made up front on the benchmark's two threads.
  // The traced run makes each through traced_prepare under the server's own
  // settings (its single-grouping prepare compacts on every hardware
  // thread), so the layers are replayed two at a time, as the server's two
  // workers prepare them.
  struct Prepared {
    std::unique_ptr<SiWorkload> workload;
    LayerTimes layers;
    std::vector<std::string> problems;  ///< The replay's, for its first op.
  };
  std::map<std::string, Prepared> workloads;
  std::map<std::string, std::string> first_payload;
  std::set<std::string> round_workloads;
  sitam::EvaluatorStats round_stats;
  const auto prepare_for_check = [](const MixSpec& spec) {
    SiWorkloadConfig config;
    config.pattern_count = spec.n_r;
    config.seed = spec.seed;
    config.groupings = {spec.parts};
    config.parallel_prepare = false;  // bit-identical to the server's
    return std::make_unique<SiWorkload>(
        SiWorkload::prepare(sitam::load_benchmark(spec.soc), config));
  };
  {
    std::vector<std::pair<const MixSpec*, Prepared*>> todo;
    for (const std::string& id : order) {
      const auto [it, fresh] = workloads.try_emplace(specs[id].workload_key());
      if (fresh) todo.emplace_back(&specs[id], &it->second);
    }
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        const MixSpec& spec = *todo[i].first;
        Prepared& prepared = *todo[i].second;
        try {
          if (options.trace) {
            SiWorkloadConfig config;
            config.pattern_count = spec.n_r;
            config.seed = spec.seed;
            config.groupings = {spec.parts};
            prepared.workload = std::make_unique<SiWorkload>(
                traced_prepare(sitam::load_benchmark(spec.soc), config,
                               prepared.layers, false, prepared.problems));
          } else {
            prepared.workload = prepare_for_check(spec);
          }
        } catch (const std::exception&) {
          // Left empty: the loop below prepares it again and reports.
        }
      }
    };
    std::thread helper(worker);
    worker();
    helper.join();
  }
  LayerTimes layers;
  LayerTimes* traced = options.trace ? &layers : nullptr;
  for (const auto& [key, prepared] : workloads) {
    for (const auto& [name, value] : prepared.layers.seconds) layers.seconds[name] += value;
    for (const auto& [name, value] : prepared.layers.counts) layers.counts[name] += value;
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::string& id = order[k];
    const MixSpec& spec = specs[id];
    const std::string& line = lines[id];
    const bool first_round = k < static_cast<std::size_t>(size.round());
    try {
      std::vector<std::string> problems;
      if (line.rfind("{\"type\":\"result\"", 0) != 0) {
        report.op_error(id + ": " + line);
        continue;
      }
      Prepared& prepared = workloads[spec.workload_key()];
      if (prepared.workload == nullptr) prepared.workload = prepare_for_check(spec);
      append(problems, std::exchange(prepared.problems, {}));
      const SiWorkload* workload = prepared.workload.get();
      append(problems, check_test_set(workload->tests(spec.parts), spec.parts,
                                      spec.n_r));
      if (first_round && round_workloads.insert(spec.workload_key()).second) {
        layers.counts["pattern.compacted_patterns"] +=
            static_cast<double>(workload->tests(spec.parts).total_patterns());
      }
      const std::string payload = result_payload(line, id);
      const auto [seen, inserted] = first_payload.emplace(spec.fields(), payload);
      if (!inserted && seen->second != payload) {
        problems.push_back("repeat of an earlier request returned other bytes");
      }
      const sitam::JsonValue root = sitam::parse_json(line);
      append(problems, check_result(spec, root, *workload, traced));
      if (spec.trace) {
        const sitam::JsonValue* observability = root.find("observability");
        const sitam::JsonValue* trace =
            observability == nullptr ? nullptr : observability->find("trace");
        if (trace == nullptr) {
          problems.push_back("traced job without an embedded trace");
        } else {
          const sitam::obs::TraceVerifyResult verified =
              sitam::obs::verify_chrome_trace(trace->dump());
          if (!verified.ok) problems.push_back("trace: " + verified.summary());
        }
      }
      if (first_round) {
        round_stats += parse_stats(root);
        layers.counts["round_ops"] += 1;
      }
      report.op_done(problems);
    } catch (const std::exception& err) {
      report.op_error(id + ": " + err.what());
    }
  }
  std::int64_t skipped = 0;
  const auto records = sitam::store::ResultStore::read_all(store_path, &skipped);
  std::vector<std::string> store_problems;
  if (static_cast<std::int64_t>(records.size()) != appended || skipped != 0 ||
      append_failures != 0) {
    store_problems.push_back("store holds " + std::to_string(records.size()) +
                             " of " + std::to_string(appended) + " records, " +
                             std::to_string(skipped) + " skipped lines");
  }
  report.op_done(store_problems);
  fs::remove_all(scratch);

  if (options.trace) {
    std::vector<double> waits;
    std::vector<double> services;
    for (const std::string& id : order) {
      const auto it = progressed.find(id);
      const auto done = answered.find(id);
      // Followers get no progress line of their own.
      if (it == progressed.end() || done == answered.end()) continue;
      waits.push_back(
          std::chrono::duration<double>(it->second - submitted[id]).count());
      services.push_back(
          std::chrono::duration<double>(done->second - it->second).count());
    }
    count_stats(layers, round_stats);
    layers.counts["serve.queue_wait_s_p50"] = quantile(waits, 0.5);
    layers.counts["serve.queue_wait_s_p90"] = quantile(waits, 0.9);
    layers.counts["serve.service_s_p50"] = quantile(services, 0.5);
    layers.counts["serve.followers"] = static_cast<double>(server_stats.followers);
    layers.counts["store.append_s_p50"] = quantile(append_seconds, 0.5);
    layers.counts["core.workload_hit_rate"] =
        ratio(static_cast<double>(context_stats.workload_hits),
              static_cast<double>(context_stats.workload_hits +
                                  context_stats.workload_misses));
    layers.counts["core.result_hit_rate"] =
        ratio(static_cast<double>(context_stats.result_hits),
              static_cast<double>(context_stats.result_hits +
                                  context_stats.result_misses));
    add_per_layer(report, layers, phase.op_seconds, threads_peak);
  } else {
    add_end_to_end(report, setups, phase);
  }
  return report;
}

// ---------------------------------------------------------- reference profile

int run_reference_profile() {
  const Soc soc = sitam::load_benchmark("p93791");
  const std::vector<int> widths = widths_8_to_64();
  sitam::OptimizerConfig optimizer;
  optimizer.threads = 1;
  LayerTimes layers;
  std::vector<std::string> problems;
  const SiWorkloadConfig config = serial_config(100000, mix_seed(1, 0));
  const SiWorkload workload =
      traced_prepare(soc, config, layers, true, problems);
  const sitam::SweepResult sweep = layers.time(
      "core.sweep_s", [&] { return sitam::run_sweep(workload, widths, optimizer); });
  for (const ExperimentOutcome& row : sweep.rows) {
    append(problems, check_outcome(workload, row, &layers));
    traced_experiment(workload, row, optimizer, layers, problems);
  }
  std::cout << "p93791 N_r=100000, groupings {1,2,4,8}, W_max 8..64, one "
               "thread (seconds per layer call total)\n";
  for (const auto& [name, value] : layers.seconds) {
    std::cout << "  " << name << " " << value << '\n';
  }
  std::cout << "  pattern.compacted_patterns "
            << get(layers.counts, "pattern.compacted_patterns") << '\n';

  // Whole-set compaction (grouping 1) at 1/2/4 threads, N_r = 30 000.
  const sitam::TerminalSpace terminals(soc);
  sitam::Rng rng(mix_seed(1, 1));
  const std::vector<sitam::SiPattern> raw = sitam::generate_random_patterns(
      terminals, 30000, sitam::RandomPatternConfig{}, rng);
  std::size_t serial_count = 0;
  for (const int threads : {1, 2, 4, 1, 2, 4}) {
    sitam::CompactionConfig compaction;
    compaction.threads = threads;
    const Clock::time_point start = Clock::now();
    const sitam::CompactionResult result =
        sitam::compact_greedy(raw, terminals.total(), 32, compaction);
    const double took = seconds_since(start);
    if (threads == 1) serial_count = result.patterns.size();
    if (result.patterns.size() != serial_count) {
      problems.push_back("compact_greedy output depends on the thread count");
    }
    std::cout << "compact_greedy p93791 N_r=30000 threads=" << threads << ": "
              << took << " s, " << result.patterns.size() << " patterns\n";
  }
  for (const std::string& p : problems) std::cerr << "check failed: " << p << '\n';
  return problems.empty() ? 0 : 1;
}

}  // namespace perfbench
