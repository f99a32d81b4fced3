// Copyright (c) the XKeyword authors.
//
// The optimized top-k execution algorithm of Section 6: nested-loops joins
// whose inner subtrees are memoized in a fixed-size cache keyed by their join
// bindings — "when evaluating CTSSN2 for t2, the innermost loop should not be
// executed since it will produce the same results as before". Disabling the
// cache yields the naive algorithm of DISCOVER/DBXplorer (naive_executor.h).
//
// One plan loop (RunTopKPlans) serves both engines: it walks the plan-DAG
// schedule on the calling thread, smallest networks first, and stops at
// global_k — exact by construction, because plans finish in schedule order.
// A multi-step plan runs as partitions of its step-0 driver rows (contiguous
// morsels in the single engine, slice groups in the sharded one); up to
// QueryOptions::num_threads partitions run at once on the process-wide pool,
// each runner with its own evaluator, and a position-ordered gather under a
// k-th-position watermark keeps exactly the serial result prefix.
//
// Semi-join keyword pruning: per plan step, the keyword filter sets are
// intersected and the join columns later steps probe are summarized into
// Bloom filters, letting ForEachMatch reject dead-end partial assignments
// without touching the table.

#ifndef XK_ENGINE_TOPK_EXECUTOR_H_
#define XK_ENGINE_TOPK_EXECUTOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "engine/progress_budget.h"
#include "engine/query_context.h"
#include "engine/result_sink.h"
#include "exec/subplan_source.h"
#include "opt/plan_dag.h"
#include "opt/subplan_cache.h"
#include "present/mtton.h"

namespace xk::engine {

/// Emit callback: a complete binding (object per CTSSN occurrence) of plan
/// `plan_index`. Return false to stop that plan's execution.
using MttonSink = std::function<bool(int plan_index,
                                     const std::vector<storage::ObjectId>& objects)>;

/// How a step's semi-join Bloom filter collects its keys. Every path yields
/// a bit-identical filter (a Bloom filter's bits do not depend on insertion
/// order); they differ only in the rows they touch.
enum class BloomBuild {
  /// No local filters on a frozen table: the table's whole-column filter,
  /// built once and shared by every later query (storage::Table::ColumnBloom).
  kMemo,
  /// One index probe per value of the step's smallest keyword set S: its
  /// column leads an index (clustering key, composite or hash index) and
  /// |S|·⌈log2 N⌉ < N for the N-row table.
  kProbe,
  /// One full scan of the table applying the step's local filters.
  kScan,
};

/// The path BloomCache takes for `step`. With `use_indexes` false (the
/// query's exec::ExecOptions, e.g. the MinNClustNIndx policy) filtered steps
/// always scan.
BloomBuild ChooseBloomBuild(const exec::JoinStep& step, bool use_indexes);

/// A fresh filter over `column` values of the rows of `step.table` passing
/// the step's local filters, collected along `path`: kScan, or kProbe for a
/// step with a keyword set (correct on any step that has one; cheap where
/// ChooseBloomBuild picks it). `stats` (nullable) receives the rows touched.
std::unique_ptr<storage::BloomFilter> BuildStepBloom(const exec::JoinStep& step,
                                                     int column, BloomBuild path,
                                                     exec::ProbeStats* stats);

/// Cache of semi-join Bloom filters shared across the plans of one query.
/// Keyed by (step signature, column): plans frequently share steps (same
/// relation + local keyword filters), so each filtered filter is built — by
/// index probes or one filtered scan — at most once per query. Unfiltered
/// steps are served from the table's memo and never built per query.
/// Thread-safe.
class BloomCache {
 public:
  /// `use_indexes`: the query's exec::ExecOptions::use_indexes.
  explicit BloomCache(bool use_indexes) : use_indexes_(use_indexes) {}

  /// The filter over `column` values of rows of `step.table` passing the
  /// step's local filters; built on first use. `build_stats` (nullable)
  /// receives the rows the build touched (0 for a memo hit).
  const storage::BloomFilter* GetOrBuild(const exec::JoinStep& step,
                                         const std::string& signature, int column,
                                         ExecutionStats* build_stats);

 private:
  const bool use_indexes_;
  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<storage::BloomFilter>> filters_;
};

/// Immutable per-plan precomputation shared by every evaluator shard of one
/// plan: step dependencies, occurrence bindings, same-segment groups, plus the
/// semi-join structures — per-step keyword filters intersected down to one set
/// per column, and per-step Bloom filters over the probed join columns.
class PlanLayout {
 public:
  /// `bloom_cache` may be null (disables pruning, as does
  /// `enable_semijoin_pruning = false`).
  PlanLayout(const opt::CtssnPlan* plan, bool enable_semijoin_pruning,
             BloomCache* bloom_cache, ExecutionStats* build_stats);

  const opt::CtssnPlan& plan() const { return *plan_; }
  /// Per-step prune filters, usable with exec::ForEachMatch or
  /// exec::NestedLoopExecutor::set_step_blooms.
  const std::vector<std::vector<exec::ColumnBloom>>& step_blooms() const {
    return step_blooms_;
  }
  /// Per-step keyword filters with same-column sets intersected.
  const std::vector<exec::ColumnInSet>& step_filters(size_t step) const {
    return step_filters_[step];
  }

 private:
  friend class PlanEvaluator;

  const opt::CtssnPlan* plan_;
  // Per step i: deps (earlier columns read by steps >= i), CTSSN nodes first
  // bound at step i, and nodes bound at steps >= i.
  std::vector<std::vector<exec::ColumnRef>> deps_;
  std::vector<std::vector<std::pair<int, int>>> nodes_at_;  // (ctssn node, col)
  std::vector<std::vector<int>> suffix_nodes_;
  /// Occurrence groups sharing a segment (only groups of size >= 2).
  std::vector<std::vector<int>> same_segment_groups_;
  std::vector<std::vector<exec::ColumnInSet>> step_filters_;
  std::deque<storage::IdSet> owned_sets_;  // stable storage for intersections
  std::vector<std::vector<exec::ColumnBloom>> step_blooms_;
};

/// The work of one multi-step plan, cut into partitions for the plan loop.
/// Items are step-0 driver rows, or rows of a materialized shared prefix when
/// `prefix` is set, listed partition by partition; each partition's items
/// ascend in serial enumeration order.
struct PlanPartitions {
  /// Driver rows (empty when replaying `prefix` or scanning lazily).
  std::vector<storage::RowId> driver;
  const exec::MaterializedSubplan* prefix = nullptr;
  /// One partition of one item, the whole plan: step 0 is scanned as the
  /// nested loops go, so an early stop also cuts the driver scan short.
  bool scan_driver = false;
  /// Partition i holds items [bounds[i], bounds[i + 1]).
  std::vector<size_t> bounds;
  /// Serial position of item j: its driver row id when set (the partitions
  /// interleave in row order), else j itself (contiguous partitions).
  bool row_positions = false;

  size_t num_partitions() const { return bounds.empty() ? 0 : bounds.size() - 1; }
  uint64_t Position(size_t j) const { return row_positions ? driver[j] : j; }
};

/// Evaluates one CTSSN plan by depth-first nested loops with optional suffix
/// memoization. Not thread-safe: each partition runner of the plan loop owns
/// one evaluator (its own caches and stats) over a shared PlanLayout.
class PlanEvaluator {
 public:
  PlanEvaluator(const PlanLayout* layout, exec::ExecOptions exec_options,
                bool enable_cache, size_t cache_capacity);

  /// Evaluates item `j` of `work`: binds its step-0 driver row — or, for a
  /// replayed shared prefix, the prefix steps from the stored row ids (no
  /// probes); nothing for a lazy driver scan — then runs the nested loops
  /// over the remaining steps. Output order equals the serial nested-loop
  /// order. Returns false once `emit` declined or a cancel or dry row gate
  /// cut the run.
  bool RunItem(const PlanPartitions& work, size_t j,
               const std::function<bool(const std::vector<storage::ObjectId>&)>& emit);

  const ExecutionStats& stats() const { return stats_; }

  /// Installs a shared scan-row allowance (not owned, may be null). When it
  /// runs dry the evaluator unwinds exactly like a cancellation — as if the
  /// sink declined — so no truncated suffix enumeration is ever cached.
  /// Consumption is reported in batches, so the gate may overrun slightly.
  void set_row_gate(RowGate* gate) { row_gate_ = gate; }

 private:
  struct Collector {
    size_t level;
    std::vector<std::vector<storage::ObjectId>> completions;
  };

  bool Eval(size_t i, std::vector<storage::TupleView>* rows,
            std::vector<storage::ObjectId>* objs,
            const std::function<bool(const std::vector<storage::ObjectId>&)>& emit);

  void ProjectToCollectors(const std::vector<storage::ObjectId>& objs);
  std::string CacheKey(size_t i, const std::vector<storage::TupleView>& rows) const;
  /// MTNNs are trees of distinct nodes: occurrences of one segment must bind
  /// distinct objects (checked per full assignment; cached suffixes cannot
  /// pre-check against future prefixes).
  bool DistinctAcrossSegments(const std::vector<storage::ObjectId>& objs) const;

  const PlanLayout* layout_;
  const opt::CtssnPlan* plan_;
  exec::ExecOptions exec_options_;
  bool enable_cache_;

  // One cache per step level (level 0 has no dependencies, never cached).
  std::vector<std::unique_ptr<
      LruCache<std::string, std::vector<std::vector<storage::ObjectId>>>>>
      caches_;
  std::vector<Collector*> active_collectors_;
  /// Anytime scan-row allowance; checked (and consumption reported) at every
  /// Eval entry. Null = unlimited.
  RowGate* row_gate_ = nullptr;
  uint64_t gate_reported_rows_ = 0;
  ExecutionStats stats_;
  /// Per-depth probe bindings, reused across outer rows (Eval runs once per
  /// outer row — rebuilding this vector there was a hot-loop allocation).
  std::vector<std::vector<exec::ColumnBinding>> binding_scratch_;
  /// Per-depth row copies for the disk backend (RowInto): a depth's view must
  /// stay valid while deeper steps recurse, so each depth owns its scratch.
  std::vector<storage::Tuple> row_scratch_;
  /// The current assignment: bound row per step, object per occurrence.
  std::vector<storage::TupleView> rows_;
  std::vector<storage::ObjectId> objs_;
};

/// Step-0 matches of `plan` in probe order — the driver rows the plan loop
/// partitions. Scan counters go to `stats` (nullable).
std::vector<storage::RowId> EnumerateDriverMatches(const PlanLayout& layout,
                                                   const exec::ExecOptions& options,
                                                   ExecutionStats* stats);

/// Materializes the join prefix steps [0, depth] of `layout`'s plan into
/// `out` (one row of per-step base-table row ids per prefix match, serial
/// nested-loop order). `base` (nullable) is an already-materialized shallower
/// prefix of the same plan to stack on instead of re-enumerating its steps.
/// Returns false — with `out` truncated — when cancellation tripped or the
/// materialization exceeded `max_bytes`; callers must then discard `out` and
/// fall back to direct execution. Probe counters go to `stats` (nullable).
bool MaterializePrefixRows(const PlanLayout& layout, int depth,
                           const exec::ExecOptions& options,
                           const exec::MaterializedSubplan* base, size_t max_bytes,
                           ExecutionStats* stats, exec::MaterializedSubplan* out);

/// Cuts a multi-step plan's work into partitions for RunTopKPlans.
class PlanPartitioner {
 public:
  virtual ~PlanPartitioner() = default;

  /// Whether Cut can partition the rows of a materialized shared prefix;
  /// when false the plan loop never materializes one.
  virtual bool replays_prefixes() const = 0;

  /// The partitions of `layout`'s plan: of `prefix`'s rows when non-null,
  /// else of its step-0 driver rows. Runs on the plan loop's thread; scan
  /// counters go to `stats`.
  virtual PlanPartitions Cut(const PlanLayout& layout, const QueryOptions& options,
                             const exec::ExecOptions& exec_options,
                             const exec::MaterializedSubplan* prefix,
                             ExecutionStats* stats) const = 0;
};

/// The single-instance partitioner: contiguous morsels of `morsel_size`
/// items when num_threads > 1; otherwise one partition, which scans step 0
/// lazily unless it replays a prefix.
class MorselPartitioner : public PlanPartitioner {
 public:
  bool replays_prefixes() const override { return true; }
  PlanPartitions Cut(const PlanLayout& layout, const QueryOptions& options,
                     const exec::ExecOptions& exec_options,
                     const exec::MaterializedSubplan* prefix,
                     ExecutionStats* stats) const override;
};

/// The top-k plan loop (Section 6): runs the plans of a prepared query in
/// plan-DAG schedule order on the calling thread — smallest networks first,
/// cost-ordered inside a size class — collecting up to per_network_k results
/// per network and stopping once global_k exist. In one place it handles
/// admission and the anytime budget (ProgressBudget, a pluggable policy:
/// whole plans the budget cannot afford are skipped, and `coverage`
/// (nullable) reports the quality bound), single-object plans, shared
/// subplans, the result caps, and finalized-prefix streaming to `sink`
/// (nullable; see engine/result_sink.h). Each multi-step plan is cut by
/// `partitioner` and gathered in serial position order, so the result list is
/// byte-identical for every partitioner and every num_threads.
std::vector<present::Mtton> RunTopKPlans(const PreparedQuery& query,
                                         const QueryOptions& options,
                                         const PlanPartitioner& partitioner,
                                         ExecutionStats* stats, Coverage* coverage,
                                         ResultSink* sink);

/// The single-instance top-k executor: RunTopKPlans over morsels.
class TopKExecutor {
 public:
  TopKExecutor() = default;

  Result<std::vector<present::Mtton>> Run(const PreparedQuery& query,
                                          const QueryOptions& options,
                                          ExecutionStats* stats = nullptr,
                                          Coverage* coverage = nullptr,
                                          ResultSink* sink = nullptr);
};

/// Evaluates a single-object network (no joins): intersects the occurrence's
/// keyword filter sets and emits each object. Shared by all executors.
/// `stats` (nullable) counts the intersection scan and emitted results.
void EvaluateSingleObjectPlan(
    const PreparedQuery& query, size_t plan_index,
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit,
    ExecutionStats* stats = nullptr);

/// Final ranking of every executor: stable sort by (score, ctssn_index,
/// objects) — a total order on distinct values, so any execution order that
/// produces the correct result multiset sorts to byte-identical output.
void SortMttons(std::vector<present::Mtton>* results);

}  // namespace xk::engine

#endif  // XK_ENGINE_TOPK_EXECUTOR_H_
