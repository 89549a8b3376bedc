// SitamContext: the reentrant front door to the whole optimization flow.
//
// Everything the flow used to pick up ambiently (a freshly prepared
// workload per CLI invocation, per-process caches) is owned here
// explicitly: the SOC model arena (structurally identical SOCs are
// interned and shared), the bounded WorkloadMemoryCache, and a bounded
// result memo keyed by a content hash of the full request. There are no
// hidden statics — two contexts are fully independent, and one context is
// safe to share across request threads (the job server in src/serve runs
// every worker against a single context).
//
// The unit of work is a FlowRequest -> FlowResult round trip:
//
//   SitamContext context;
//   FlowRequest request;
//   request.soc = context.intern(load_benchmark("d695"));
//   request.workload.groupings = {4};
//   FlowResult result = context.run(request);
//
// Identical requests (same SOC structure, workload config, widths,
// optimizer knobs) hit the result memo and return the stored FlowResult
// verbatim; the hit counters in ContextStats make the reuse observable.
// Cancellation is cooperative: a request carries a non-owning CancelToken
// that unwinds the prepare and optimize loops with sitam::Cancelled,
// leaving every cache untouched by the cancelled run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cache.h"
#include "core/flow.h"
#include "tam/area.h"
#include "util/cancel.h"

namespace sitam {

/// What the request asks the flow to do.
enum class FlowMode {
  kOptimize,  ///< One width, one grouping: Algorithm 2 + bounds + area.
  kSweep,     ///< Full §5 protocol: every width x every grouping.
};

/// One self-contained unit of flow work. Everything that affects the
/// result is inside the request (and hashed into its identity key);
/// `cancel` is control-flow, not identity, and is excluded from the key.
struct FlowRequest {
  FlowMode mode = FlowMode::kOptimize;
  /// The SOC under test; intern() it through the context so identical
  /// models share one arena entry. Must not be null.
  std::shared_ptr<const Soc> soc;
  /// Workload generation/compaction knobs. kOptimize uses the *first*
  /// grouping only; kSweep uses all of them.
  SiWorkloadConfig workload;
  /// TAM widths: kOptimize uses the first entry as W_max; kSweep runs one
  /// experiment per entry. Must not be empty.
  std::vector<int> widths = {32};
  /// Algorithm 2 knobs. `optimizer.threads` and `optimizer.cancel` are
  /// excluded from the request key (documented to never change results).
  OptimizerConfig optimizer;
  /// Non-owning cooperative cancellation token for this request (nullptr =
  /// never cancelled). Overrides optimizer.cancel for the whole flow —
  /// workload preparation and every optimizer loop check the same token.
  const CancelToken* cancel = nullptr;
};

/// The flow's answer. Which members are meaningful depends on `mode`.
struct FlowResult {
  FlowMode mode = FlowMode::kOptimize;

  // kOptimize:
  OptimizeResult optimize;     ///< Architecture, evaluation, stats.
  SiTestSet tests;             ///< The SI test set the run scored against.
  std::int64_t lower_bound = 0;  ///< Architecture-independent bound (cc).
  WrapperArea area;            ///< SI wrapper cost of the winner.

  // kSweep:
  SweepResult sweep;           ///< One ExperimentOutcome row per width.
};

/// Every evaluation the flow made for `result`: the optimization's stats
/// for kOptimize; for kSweep each row's baseline_stats plus every
/// per-grouping optimization's stats. The evaluator counters
/// (tam.evaluator.*) of a traced run record the same totals; the CLI and
/// the job server print this one sum.
[[nodiscard]] EvaluatorStats total_stats(const FlowResult& result);

/// Monotonic counters proving (or disproving) cache reuse; readable at any
/// time via SitamContext::stats(). hits + misses == lookups per tier.
struct ContextStats {
  std::int64_t requests = 0;        ///< run() calls that got past lookup.
  std::int64_t result_hits = 0;     ///< Served verbatim from the memo.
  std::int64_t result_misses = 0;   ///< Computed end to end.
  std::int64_t workload_hits = 0;   ///< Prepared workload reused.
  std::int64_t workload_misses = 0; ///< Workload generated + compacted.
  std::int64_t cancelled = 0;       ///< Requests unwound by Cancelled.
  std::int64_t socs_interned = 0;   ///< Distinct models in the arena.
};

/// Reentrant flow engine; see the file comment. Thread-safe: any number of
/// threads may call run()/intern()/stats() concurrently. Heavy work
/// (prepare, optimize) runs outside the context lock, so concurrent
/// distinct requests do not serialize; concurrent *identical* requests may
/// both compute (last insert wins — the results are bit-identical, so this
/// only costs time; the job server dedupes in-flight requests above this
/// layer).
class SitamContext {
 public:
  struct Options {
    /// Prepared workloads kept in memory (LRU beyond this). >= 1.
    std::size_t workload_capacity = 16;
    /// FlowResults kept in the memo (LRU beyond this). >= 1.
    std::size_t result_capacity = 64;
    /// Disk tier for prepared workloads; "" = memory-only (the default —
    /// a long-running context should not touch the filesystem per miss).
    std::string cache_directory;
  };

  SitamContext();
  explicit SitamContext(Options options);

  SitamContext(const SitamContext&) = delete;
  SitamContext& operator=(const SitamContext&) = delete;

  /// Canonical shared instance for `soc`: structurally identical models
  /// (same name, modules, scan chains, pattern counts) map to one arena
  /// entry. The arena is bounded by the result memo capacity and evicted
  /// LRU; eviction only drops the arena's own reference — outstanding
  /// shared_ptrs stay valid.
  [[nodiscard]] std::shared_ptr<const Soc> intern(Soc soc);

  /// Runs the flow for `request`, consulting the result memo first and the
  /// workload cache second. Throws sitam::Cancelled if request.cancel was
  /// triggered (the caches are left exactly as before the call), and
  /// std::invalid_argument for a malformed request (null SOC, empty
  /// widths/groupings).
  [[nodiscard]] FlowResult run(const FlowRequest& request);

  /// Snapshot of the reuse counters.
  [[nodiscard]] ContextStats stats() const;

  /// Drops every cached workload, memoized result and arena entry.
  void clear();

  /// Content hash identifying `request` up to result equality: mixes the
  /// SOC structure, workload config, widths, mode and every
  /// result-affecting optimizer knob. Deliberately excludes
  /// optimizer.threads, workload.parallel_prepare and the cancel token —
  /// all documented to be bit-identical switches.
  [[nodiscard]] static std::uint64_t request_key(const FlowRequest& request);

 private:
  struct ResultEntry {
    FlowResult result;
    std::uint64_t last_used = 0;
  };
  struct ArenaEntry {
    std::shared_ptr<const Soc> soc;
    std::uint64_t last_used = 0;
  };

  /// Computes a FlowResult end to end (workload tier + optimize/sweep).
  [[nodiscard]] FlowResult compute(const FlowRequest& request);

  /// Evicts the least recently used entries down to the capacity. Caller
  /// holds mutex_.
  void trim_results_locked();
  void trim_arena_locked();

  const Options options_;
  WorkloadMemoryCache workloads_;  ///< Internally locked.

  mutable std::mutex mutex_;
  std::uint64_t tick_ = 0;                          // guarded_by(mutex_)
  std::map<std::uint64_t, ResultEntry> results_;    // guarded_by(mutex_)
  std::map<std::uint64_t, ArenaEntry> arena_;       // guarded_by(mutex_)
  ContextStats stats_;                              // guarded_by(mutex_)
};

}  // namespace sitam
