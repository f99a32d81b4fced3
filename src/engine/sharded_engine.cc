#include "engine/sharded_engine.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "engine/full_executor.h"
#include "engine/progress_budget.h"
#include "engine/thread_pool.h"
#include "engine/topk_executor.h"
#include "opt/reuse.h"

namespace xk::engine {

namespace {

/// Contiguous [begin, end) slice-index groups: `groups` (clamped to
/// num_slices) ranges of nearly equal size, in slice order. Slice ranges are
/// themselves contiguous ascending ID ranges, so each group owns one
/// contiguous ID range too.
std::vector<std::pair<size_t, size_t>> SliceGroups(size_t num_slices,
                                                   int groups) {
  const size_t g =
      std::min<size_t>(std::max(groups, 1), num_slices == 0 ? 1 : num_slices);
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(g);
  const size_t base = num_slices / g;
  const size_t rem = num_slices % g;
  size_t begin = 0;
  for (size_t i = 0; i < g; ++i) {
    const size_t len = base + (i < rem ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

/// Partitions a plan's step-0 driver rows by anchor ownership: one partition
/// per slice group, holding the rows its slices own in ascending global row
/// order. Positions are global driver row ids — unique per row and ascending
/// within each partition — so the plan loop's position-ordered gather
/// reconstructs the single engine's serial order. Shared subplans are not
/// replayed here: prefix rows are not partitioned by owner.
class SlicePartitioner : public PlanPartitioner {
 public:
  SlicePartitioner(const std::vector<std::unique_ptr<ShardLocalEngine>>* shards,
                   std::vector<std::pair<size_t, size_t>> groups)
      : shards_(shards), groups_(std::move(groups)) {}

  bool replays_prefixes() const override { return false; }

  PlanPartitions Cut(const PlanLayout& layout, const QueryOptions& /*options*/,
                     const exec::ExecOptions& exec_options,
                     const exec::MaterializedSubplan* prefix,
                     ExecutionStats* stats) const override {
    XK_CHECK(prefix == nullptr);
    PlanPartitions work;
    work.row_positions = true;
    work.bounds.push_back(0);
    for (const auto& [first, last] : groups_) {
      const size_t begin = work.driver.size();
      for (size_t s = first; s < last; ++s) {
        std::vector<storage::RowId> part =
            (*shards_)[s]->DriverMatches(layout, exec_options, stats);
        work.driver.insert(work.driver.end(), part.begin(), part.end());
      }
      // Each member list is ascending, but members interleave in row order
      // when the table is not clustered on the anchor (row ids are unique
      // across members — ranges are disjoint).
      if (last - first > 1) {
        std::sort(work.driver.begin() + static_cast<std::ptrdiff_t>(begin),
                  work.driver.end());
      }
      work.bounds.push_back(work.driver.size());
    }
    return work;
  }

 private:
  const std::vector<std::unique_ptr<ShardLocalEngine>>* shards_;
  std::vector<std::pair<size_t, size_t>> groups_;
};

}  // namespace

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Load(
    const xml::XmlGraph* graph, const schema::SchemaGraph* schema,
    const schema::TssGraph* tss, ShardedEngineOptions options) {
  XK_ASSIGN_OR_RETURN(std::unique_ptr<XKeyword> inner,
                      XKeyword::Load(graph, schema, tss, options.storage));
  const storage::ObjectId num_objects = inner->data().objects.NumObjects();
  storage::ObjectId slices = std::max(options.num_slices, 1);
  slices = std::max<storage::ObjectId>(
      1, std::min<storage::ObjectId>(slices, num_objects));

  std::vector<std::unique_ptr<ShardLocalEngine>> shards;
  std::vector<SlicedShard*> sliced;
  if (slices == 1) {
    shards.push_back(std::make_unique<WholeInstanceShard>(&inner->data()));
  } else {
    const storage::ObjectId base = num_objects / slices;
    const storage::ObjectId rem = num_objects % slices;
    storage::ObjectId begin = 0;
    for (storage::ObjectId s = 0; s < slices; ++s) {
      const storage::ObjectId len = base + (s < rem ? 1 : 0);
      auto shard = std::make_unique<SlicedShard>(
          &inner->data(), ShardRange{begin, begin + len});
      begin += len;
      sliced.push_back(shard.get());
      shards.push_back(std::move(shard));
    }
    XK_CHECK_EQ(begin, num_objects);
    // Slice any tables that predate the shards (none through the regular load
    // stage today — connection relations only appear with decompositions —
    // but a future bulk-load path must not silently skip them).
    for (const std::string& name : inner->catalog().TableNames()) {
      XK_ASSIGN_OR_RETURN(const storage::Table* table,
                          inner->catalog().GetTable(name));
      for (SlicedShard* shard : sliced) {
        XK_RETURN_NOT_OK(shard->AddTableSlice(table));
      }
    }
  }
  return std::unique_ptr<ShardedEngine>(new ShardedEngine(
      std::move(inner), std::move(shards), std::move(sliced)));
}

Status ShardedEngine::AddDecomposition(decomp::Decomposition d) {
  std::vector<std::string> before = inner_->catalog().TableNames();
  std::unordered_set<std::string> had(before.begin(), before.end());
  XK_RETURN_NOT_OK(inner_->AddDecomposition(std::move(d)));
  for (const std::string& name : inner_->catalog().TableNames()) {
    if (had.contains(name)) continue;
    XK_ASSIGN_OR_RETURN(const storage::Table* table,
                        inner_->catalog().GetTable(name));
    for (SlicedShard* shard : sliced_) {
      XK_RETURN_NOT_OK(shard->AddTableSlice(table));
    }
  }
  return Status::OK();
}

size_t ShardedEngine::ShardMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->MemoryBytes();
  return bytes;
}

Result<QueryResponse> ShardedEngine::Run(const QueryRequest& request,
                                         CancelToken* token,
                                         ResultSink* sink) const {
  // Degenerate cases run the inner engine unchanged: a single shard group is
  // by definition the whole instance, and the naive executor exists to model
  // the unoptimized baseline, which sharding would misrepresent.
  if (request.options.num_shards <= 1 || request.mode == QueryMode::kNaive) {
    return inner_->Run(request, token, sink);
  }
  CancelToken local_token;
  CancelToken* tok = token != nullptr ? token : &local_token;
  if (request.deadline.count() > 0 && !tok->has_deadline()) {
    tok->SetDeadlineAfter(request.deadline);
  }

  QueryOptions options = request.options;
  options.cancel = tok;
  if (sink != nullptr) sink->BindCancelToken(tok);
  // Zero the coordinator thread's page counters so the post-run drain below
  // attributes only this query's disk traffic (Prepare included).
  (void)storage::BufferPool::DrainThreadCounters();
  XK_ASSIGN_OR_RETURN(PreparedQuery q, inner_->Prepare(request.keywords,
                                                       request.decomposition,
                                                       options));

  QueryResponse response;
  if (tok->StopRequested()) {
    // The budget ran out during preparation: nothing was covered at all.
    response.status = tok->ToStatus();
    response.completeness = Completeness::kFailed;
    response.coverage.cns_skipped = static_cast<uint32_t>(q.plans.size());
    response.coverage.interrupted = true;
    return response;
  }

  const int groups =
      std::min<int>(options.num_shards, static_cast<int>(shards_.size()));
  switch (request.mode) {
    case QueryMode::kTopK:
      response.mttons = RunTopKPlans(
          q, options,
          SlicePartitioner(&shards_, SliceGroups(shards_.size(), groups)),
          &response.stats, &response.coverage, sink);
      break;
    case QueryMode::kAll:
      RunShardedAll(q, options, groups, &response);
      break;
    case QueryMode::kNaive:
      XK_CHECK(false);  // delegated above
      break;
  }
  // Coordinator disk traffic (partition runners drained into their stats
  // already).
  DrainPageCounters(&response.stats);
  response.stats.simd_isa = static_cast<uint32_t>(simd::KernelLevel(
      options.kernel_dispatch == KernelDispatch::kForceScalar));
  if (tok->StopRequested()) {
    response.status = tok->ToStatus();
    // Conservative: the trip may have landed after the coordinator's last
    // poll — never report kComplete alongside a non-OK status.
    response.coverage.interrupted = true;
  }
  response.completeness =
      DeriveCompleteness(response.coverage, !response.mttons.empty());
  return response;
}

void ShardedEngine::RunShardedAll(const PreparedQuery& query,
                                  const QueryOptions& options, int groups,
                                  QueryResponse* response) const {
  std::vector<present::Mtton> results;
  ExecutionStats* stats = &response->stats;
  const CancelToken* cancel = options.cancel;
  exec::ExecOptions exec_options = query.exec_options;
  exec_options.cancel = cancel;

  auto stop_requested = [&] {
    return cancel != nullptr && cancel->StopRequested();
  };

  // Outcome ledger only, like FullExecutor: kAll is never budgeted, but a
  // deadline/cancel trip still yields an honest coverage report.
  std::vector<bool> active(query.plans.size(), false);
  for (size_t p = 0; p < query.plans.size(); ++p) {
    active[p] = options.max_network_size <= 0 ||
                query.ctssns[p].tree.size() <=
                    static_cast<size_t>(options.max_network_size);
  }
  QueryOptions ledger_options = options;
  ledger_options.enable_anytime = false;
  ProgressBudget ledger(query, active, ledger_options);

  // Keyword-filtered scans of the probe steps (>= 1) are whole-instance state
  // shared by every shard task, computed once per distinct step signature
  // (scan reuse is always on here — the cache also keeps the scans alive for
  // the tasks). Step 0 is shard-private: each task scans the slice rows it
  // owns, so the task outputs partition the full result multiset, and the
  // final total-order sort makes the union byte-identical to the single
  // engine. Always a hash join: the INLJ path enumerates the same multiset
  // in a different order, which the sort erases anyway.
  opt::MaterializedViewCache view_cache;
  const std::vector<std::pair<size_t, size_t>> slice_groups =
      SliceGroups(shards_.size(), groups);

  for (size_t p = 0; p < query.plans.size(); ++p) {
    if (stop_requested()) break;  // unvisited plans stay "skipped"
    const opt::CtssnPlan& plan = query.plans[p];
    if (!active[p]) continue;
    const int score = query.ctssns[p].cn_size;

    if (plan.query.steps.empty()) {
      EvaluateSingleObjectPlan(
          query, p,
          [&](const std::vector<storage::ObjectId>& objs) {
            results.push_back(
                present::Mtton{static_cast<int>(p), objs, score});
            return true;
          },
          stats);
      ledger.OnPlanComplete(p, 0, 0);
      continue;
    }

    const size_t num_steps = plan.query.steps.size();
    std::vector<const std::vector<storage::Tuple>*> shared(num_steps, nullptr);
    for (size_t i = 1; i < num_steps; ++i) {
      const std::string& sig = plan.step_signatures[i];
      const std::vector<storage::Tuple>* scan = view_cache.Get(sig);
      if (scan == nullptr) {
        scan = view_cache.Put(
            sig, FilteredScanTuples(*plan.query.steps[i].table,
                                    plan.query.steps[i], stats));
      }
      shared[i] = scan;
    }

    std::vector<std::vector<present::Mtton>> outs(slice_groups.size());
    std::vector<ExecutionStats> task_stats(slice_groups.size());
    ParallelFor(slice_groups.size(), options.num_threads, [&](size_t g, size_t) {
      std::vector<storage::Tuple> anchor;
      for (size_t s = slice_groups[g].first; s < slice_groups[g].second; ++s) {
        std::vector<storage::Tuple> part =
            shards_[s]->AnchorScan(plan.query.steps[0], &task_stats[g]);
        if (anchor.empty()) {
          anchor = std::move(part);
        } else {
          anchor.insert(anchor.end(), std::make_move_iterator(part.begin()),
                        std::make_move_iterator(part.end()));
        }
      }
      std::vector<const std::vector<storage::Tuple>*> scans = shared;
      scans[0] = &anchor;
      RunHashJoinOnScans(plan, scans, exec_options, &task_stats[g],
                         [&](const std::vector<storage::ObjectId>& objs) {
                           outs[g].push_back(present::Mtton{
                               static_cast<int>(p), objs, score});
                           return true;
                         });
      DrainPageCounters(&task_stats[g]);
    });

    stats->shard_fanout += slice_groups.size();
    for (size_t g = 0; g < slice_groups.size(); ++g) {
      stats->Add(task_stats[g]);
      results.insert(results.end(),
                     std::make_move_iterator(outs[g].begin()),
                     std::make_move_iterator(outs[g].end()));
    }
    // A stop observed right after the scatter may have landed mid-task:
    // report the plan as interrupted, never as complete.
    if (stop_requested()) {
      ledger.OnPlanInterrupted(p);
    } else {
      ledger.OnPlanComplete(p, 0, 0);
    }
  }

  SortMttons(&results);
  stats->results = results.size();
  stats->reuse_hits += view_cache.hits();
  stats->reuse_misses += view_cache.misses();
  response->mttons = std::move(results);
  response->coverage = ledger.Finish();
}

}  // namespace xk::engine
