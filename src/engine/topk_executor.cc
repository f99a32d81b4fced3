#include "engine/topk_executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <span>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/thread_pool.h"

namespace xk::engine {

// --- BloomCache ----------------------------------------------------------

namespace {

/// The step's keyword set with the fewest ids, or null when it has none.
const exec::ColumnInSet* SmallestInFilter(const exec::JoinStep& step) {
  const exec::ColumnInSet* smallest = nullptr;
  for (const exec::ColumnInSet& f : step.in_filters) {
    if (smallest == nullptr || f.set->size() < smallest->set->size()) {
      smallest = &f;
    }
  }
  return smallest;
}

}  // namespace

BloomBuild ChooseBloomBuild(const exec::JoinStep& step, bool use_indexes) {
  if (step.const_filters.empty() && step.in_filters.empty()) {
    return step.table->frozen() ? BloomBuild::kMemo : BloomBuild::kScan;
  }
  const exec::ColumnInSet* smallest = SmallestInFilter(step);
  if (!use_indexes || smallest == nullptr) return BloomBuild::kScan;
  const storage::Table& table = *step.table;
  const exec::ExecOptions opts;
  if (exec::ChooseAccessPath(table, {{smallest->column, storage::kInvalidId}},
                             opts) == exec::AccessPathKind::kFullScan) {
    return BloomBuild::kScan;
  }
  // |S| lookups of ~log2 N comparisons each against one pass over N rows.
  const uint64_t n = table.NumRows();
  const uint64_t log2_n = n > 1 ? std::bit_width(n - 1) : 1;
  return smallest->set->size() * log2_n < n ? BloomBuild::kProbe
                                            : BloomBuild::kScan;
}

std::unique_ptr<storage::BloomFilter> BuildStepBloom(const exec::JoinStep& step,
                                                     int column, BloomBuild path,
                                                     exec::ProbeStats* stats) {
  XK_CHECK(path != BloomBuild::kMemo);
  const storage::Table& table = *step.table;
  auto filter = std::make_unique<storage::BloomFilter>(table.NumRows());
  // No cancel token: a truncated filter would reject live probes.
  storage::TableReadCursor rows(table);
  auto add = [&](storage::RowId r) {
    filter->Add(rows.At(r, column));
    return true;
  };
  if (path == BloomBuild::kScan) {
    exec::ExecOptions no_index{.use_indexes = false};
    exec::ForEachMatch(table, step.const_filters, step.in_filters, no_index, add,
                       stats);
    return filter;
  }
  // Each row whose column holds a value of S matches exactly one probe, so
  // the probes visit exactly the rows the scan keeps.
  const exec::ColumnInSet* smallest = SmallestInFilter(step);
  XK_CHECK(smallest != nullptr);
  std::vector<exec::ColumnBinding> bindings = step.const_filters;
  bindings.push_back({smallest->column, storage::kInvalidId});
  const exec::ExecOptions with_index;
  for (storage::ObjectId v : *smallest->set) {
    bindings.back().value = v;
    exec::ForEachMatch(table, bindings, step.in_filters, with_index, add, stats);
  }
  return filter;
}

const storage::BloomFilter* BloomCache::GetOrBuild(const exec::JoinStep& step,
                                                   const std::string& signature,
                                                   int column,
                                                   ExecutionStats* build_stats) {
  const BloomBuild path = ChooseBloomBuild(step, use_indexes_);
  if (path == BloomBuild::kMemo) {
    uint64_t rows = 0;
    const storage::BloomFilter* memo = &step.table->ColumnBloom(column, &rows);
    if (build_stats != nullptr) build_stats->bloom_build_rows += rows;
    return memo;
  }
  std::string key = signature;
  key.push_back('#');
  key += std::to_string(column);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = filters_.find(key);
  if (it != filters_.end()) return it->second.get();

  exec::ProbeStats build;
  auto filter = BuildStepBloom(step, column, path, &build);
  if (build_stats != nullptr) build_stats->bloom_build_rows += build.rows_scanned;
  return filters_.emplace(std::move(key), std::move(filter)).first->second.get();
}

// --- PlanLayout ----------------------------------------------------------

PlanLayout::PlanLayout(const opt::CtssnPlan* plan, bool enable_semijoin_pruning,
                       BloomCache* bloom_cache, ExecutionStats* build_stats)
    : plan_(plan) {
  XK_CHECK(plan != nullptr);
  const size_t num_steps = plan->query.steps.size();
  const size_t num_nodes = plan->node_source.size();

  deps_.resize(num_steps);
  nodes_at_.resize(num_steps);
  suffix_nodes_.resize(num_steps);
  step_filters_.resize(num_steps);
  step_blooms_.resize(num_steps);

  for (size_t i = 0; i < num_steps; ++i) {
    // Dependencies: earlier-step columns referenced by steps >= i.
    std::vector<exec::ColumnRef> deps;
    for (size_t j = i; j < num_steps; ++j) {
      for (const auto& [col, ref] : plan->query.steps[j].eq) {
        (void)col;
        if (static_cast<size_t>(ref.step) < i) deps.push_back(ref);
      }
    }
    std::sort(deps.begin(), deps.end(), [](const exec::ColumnRef& a,
                                           const exec::ColumnRef& b) {
      return std::tie(a.step, a.column) < std::tie(b.step, b.column);
    });
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    deps_[i] = std::move(deps);

    for (size_t node = 0; node < num_nodes; ++node) {
      const exec::ColumnRef& src = plan->node_source[node];
      if (src.step == static_cast<int>(i)) {
        nodes_at_[i].push_back({static_cast<int>(node), src.column});
      }
      if (src.step >= static_cast<int>(i)) {
        suffix_nodes_[i].push_back(static_cast<int>(node));
      }
    }

    // Keyword filters, same-column sets intersected down to one set each: a
    // row is checked against one compact set instead of k overlapping ones.
    const exec::JoinStep& step = plan->query.steps[i];
    for (size_t a = 0; a < step.in_filters.size(); ++a) {
      const exec::ColumnInSet& f = step.in_filters[a];
      bool first_for_column = true;
      for (size_t b = 0; b < a; ++b) {
        if (step.in_filters[b].column == f.column) {
          first_for_column = false;
          break;
        }
      }
      if (!first_for_column) continue;
      std::vector<const storage::IdSet*> sets;
      for (const exec::ColumnInSet& g : step.in_filters) {
        if (g.column == f.column) sets.push_back(g.set);
      }
      if (sets.size() == 1) {
        step_filters_[i].push_back(f);
        continue;
      }
      // Intersect: iterate the smallest set, require membership in the rest.
      const storage::IdSet* smallest = sets[0];
      for (const storage::IdSet* s : sets) {
        if (s->size() < smallest->size()) smallest = s;
      }
      storage::IdSet merged;
      for (storage::ObjectId id : *smallest) {
        bool ok = true;
        for (const storage::IdSet* s : sets) {
          if (s != smallest && !s->contains(id)) {
            ok = false;
            break;
          }
        }
        if (ok) merged.insert(id);
      }
      owned_sets_.push_back(std::move(merged));
      step_filters_[i].push_back(exec::ColumnInSet{f.column, &owned_sets_.back()});
    }

    // Semi-join prune filters: one Bloom per join column this step is probed
    // on, summarizing values among rows passing the step's local filters.
    if (enable_semijoin_pruning && bloom_cache != nullptr && i > 0) {
      for (const auto& [col, ref] : step.eq) {
        (void)ref;
        bool duplicate = false;
        for (const exec::ColumnBloom& existing : step_blooms_[i]) {
          if (existing.column == col) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        step_blooms_[i].push_back(exec::ColumnBloom{
            col, bloom_cache->GetOrBuild(step, plan->step_signatures[i], col,
                                         build_stats)});
      }
    }
  }

  // Occurrences sharing a segment must bind distinct objects.
  if (plan->ctssn != nullptr) {
    std::map<schema::TssId, std::vector<int>> by_segment;
    for (int v = 0; v < plan->ctssn->num_nodes(); ++v) {
      by_segment[plan->ctssn->tree.nodes[static_cast<size_t>(v)]].push_back(v);
    }
    for (auto& [seg, occs] : by_segment) {
      (void)seg;
      if (occs.size() >= 2) same_segment_groups_.push_back(std::move(occs));
    }
  }
}

// --- PlanEvaluator -------------------------------------------------------

PlanEvaluator::PlanEvaluator(const PlanLayout* layout,
                             exec::ExecOptions exec_options, bool enable_cache,
                             size_t cache_capacity)
    : layout_(layout),
      plan_(&layout->plan()),
      exec_options_(exec_options),
      enable_cache_(enable_cache) {
  const size_t num_steps = plan_->query.steps.size();
  caches_.resize(num_steps);
  binding_scratch_.resize(num_steps);
  row_scratch_.resize(num_steps);
  rows_.resize(num_steps);
  objs_.assign(plan_->node_source.size(), storage::kInvalidId);
  if (enable_cache_ && num_steps > 1) {
    size_t per_level = std::max<size_t>(cache_capacity / (num_steps - 1), 16);
    for (size_t i = 1; i < num_steps; ++i) {
      caches_[i] = std::make_unique<
          LruCache<std::string, std::vector<std::vector<storage::ObjectId>>>>(
          per_level);
    }
  }
}

std::string PlanEvaluator::CacheKey(
    size_t i, const std::vector<storage::TupleView>& rows) const {
  const std::vector<exec::ColumnRef>& deps = layout_->deps_[i];
  std::string key;
  key.resize(deps.size() * sizeof(storage::ObjectId));
  char* out = key.data();
  for (const exec::ColumnRef& ref : deps) {
    storage::ObjectId v =
        rows[static_cast<size_t>(ref.step)][static_cast<size_t>(ref.column)];
    std::memcpy(out, &v, sizeof(v));
    out += sizeof(v);
  }
  return key;
}

void PlanEvaluator::ProjectToCollectors(const std::vector<storage::ObjectId>& objs) {
  for (Collector* c : active_collectors_) {
    std::vector<storage::ObjectId> projection;
    projection.reserve(layout_->suffix_nodes_[c->level].size());
    for (int node : layout_->suffix_nodes_[c->level]) {
      projection.push_back(objs[static_cast<size_t>(node)]);
    }
    c->completions.push_back(std::move(projection));
  }
}

bool PlanEvaluator::Eval(
    size_t i, std::vector<storage::TupleView>* rows,
    std::vector<storage::ObjectId>* objs,
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit) {
  // Cooperative stop: unwind as if the sink declined, so no truncated suffix
  // enumeration is ever cached (the keep_going guard below skips the Put).
  if (exec_options_.cancel != nullptr && exec_options_.cancel->StopRequested()) {
    return false;
  }
  // Anytime scan-row allowance, same unwind semantics. Consumption is
  // reported in batches to keep the shared atomic off the hot path.
  if (row_gate_ != nullptr) {
    const uint64_t scanned = stats_.probes.rows_scanned;
    if (scanned - gate_reported_rows_ >= 1024) {
      row_gate_->Consume(scanned - gate_reported_rows_);
      gate_reported_rows_ = scanned;
    }
    if (row_gate_->Exhausted()) return false;
  }
  const std::vector<exec::JoinStep>& steps = plan_->query.steps;
  if (i == steps.size()) {
    ProjectToCollectors(*objs);
    if (!DistinctAcrossSegments(*objs)) return true;
    ++stats_.results;
    return emit(*objs);
  }

  auto* cache = caches_[i].get();
  std::string key;
  if (cache != nullptr) {
    key = CacheKey(i, *rows);
    const std::vector<std::vector<storage::ObjectId>>* hit = cache->Get(key);
    if (hit != nullptr) {
      ++stats_.cache_hits;
      // Replay the memoized suffix: each completion is a full assignment of
      // the remaining occurrences.
      for (const std::vector<storage::ObjectId>& completion : *hit) {
        for (size_t x = 0; x < completion.size(); ++x) {
          (*objs)[static_cast<size_t>(layout_->suffix_nodes_[i][x])] =
              completion[x];
        }
        ProjectToCollectors(*objs);
        if (!DistinctAcrossSegments(*objs)) continue;
        ++stats_.results;
        if (!emit(*objs)) return false;
      }
      return true;
    }
    ++stats_.cache_misses;
  }

  Collector collector{i, {}};
  if (cache != nullptr) active_collectors_.push_back(&collector);

  const exec::JoinStep& step = steps[i];
  std::vector<exec::ColumnBinding>& bindings = binding_scratch_[i];
  bindings.assign(step.const_filters.begin(), step.const_filters.end());
  bindings.reserve(bindings.size() + step.eq.size());
  for (const auto& [col, ref] : step.eq) {
    bindings.push_back(exec::ColumnBinding{
        col, (*rows)[static_cast<size_t>(ref.step)][static_cast<size_t>(ref.column)]});
  }

  bool keep_going = true;
  exec::ForEachMatch(*step.table, bindings, layout_->step_filters_[i],
                     layout_->step_blooms_[i], exec_options_,
                     [&](storage::RowId r) {
                       (*rows)[i] = step.table->RowInto(r, &row_scratch_[i]);
                       for (const auto& [node, col] : layout_->nodes_at_[i]) {
                         (*objs)[static_cast<size_t>(node)] =
                             (*rows)[i][static_cast<size_t>(col)];
                       }
                       keep_going = Eval(i + 1, rows, objs, emit);
                       return keep_going;
                     },
                     &stats_.probes);

  if (cache != nullptr) {
    XK_CHECK(active_collectors_.back() == &collector);
    active_collectors_.pop_back();
    // Only complete enumerations are reusable.
    if (keep_going) cache->Put(key, std::move(collector.completions));
  }
  return keep_going;
}

bool PlanEvaluator::DistinctAcrossSegments(
    const std::vector<storage::ObjectId>& objs) const {
  for (const std::vector<int>& group : layout_->same_segment_groups_) {
    for (size_t a = 0; a < group.size(); ++a) {
      for (size_t b = a + 1; b < group.size(); ++b) {
        if (objs[static_cast<size_t>(group[a])] ==
            objs[static_cast<size_t>(group[b])]) {
          return false;
        }
      }
    }
  }
  return true;
}

bool PlanEvaluator::RunItem(
    const PlanPartitions& work, size_t j,
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit) {
  // Steps bound by the item itself: every step of a replayed shared prefix,
  // step 0 for a driver row, none when Eval scans the driver itself.
  const size_t bound = work.prefix != nullptr
                           ? static_cast<size_t>(work.prefix->arity())
                           : (work.scan_driver ? 0 : 1);
  XK_CHECK_LE(bound, plan_->query.steps.size());
  for (size_t c = 0; c < bound; ++c) {
    const exec::JoinStep& step = plan_->query.steps[c];
    const storage::RowId r = work.prefix != nullptr
                                 ? work.prefix->At(j, static_cast<int>(c))
                                 : work.driver[j];
    rows_[c] = step.table->RowInto(r, &row_scratch_[c]);
    for (const auto& [node, col] : layout_->nodes_at_[c]) {
      objs_[static_cast<size_t>(node)] = rows_[c][static_cast<size_t>(col)];
    }
  }
  return Eval(bound, &rows_, &objs_, emit);
}

std::vector<storage::RowId> EnumerateDriverMatches(const PlanLayout& layout,
                                                   const exec::ExecOptions& options,
                                                   ExecutionStats* stats) {
  const exec::JoinStep& step = layout.plan().query.steps[0];
  std::vector<storage::RowId> rows;
  exec::ForEachMatch(*step.table, step.const_filters, layout.step_filters(0),
                     layout.step_blooms()[0], options,
                     [&](storage::RowId r) {
                       rows.push_back(r);
                       return true;
                     },
                     stats != nullptr ? &stats->probes : nullptr);
  return rows;
}

bool MaterializePrefixRows(const PlanLayout& layout, int depth,
                           const exec::ExecOptions& options,
                           const exec::MaterializedSubplan* base, size_t max_bytes,
                           ExecutionStats* stats, exec::MaterializedSubplan* out) {
  const std::vector<exec::JoinStep>& steps = layout.plan().query.steps;
  XK_CHECK(depth >= 0 && static_cast<size_t>(depth) < steps.size());
  XK_CHECK(out != nullptr && out->arity() == depth + 1);
  const CancelToken* cancel = options.cancel;
  std::vector<storage::TupleView> rows(static_cast<size_t>(depth) + 1);
  std::vector<storage::RowId> row_ids(static_cast<size_t>(depth) + 1);
  std::vector<std::vector<exec::ColumnBinding>> binding_scratch(
      static_cast<size_t>(depth) + 1);
  std::vector<storage::Tuple> row_scratch(static_cast<size_t>(depth) + 1);

  bool ok = true;  // false = truncated (cancel / byte budget)
  std::function<bool(size_t)> descend = [&](size_t i) -> bool {
    if (cancel != nullptr && cancel->StopRequested()) {
      ok = false;
      return false;
    }
    if (i > static_cast<size_t>(depth)) {
      out->Append(row_ids.data());
      if (out->bytes() > max_bytes) {
        ok = false;
        return false;
      }
      return true;
    }
    const exec::JoinStep& step = steps[i];
    std::vector<exec::ColumnBinding>& bindings = binding_scratch[i];
    bindings.assign(step.const_filters.begin(), step.const_filters.end());
    for (const auto& [col, ref] : step.eq) {
      bindings.push_back(exec::ColumnBinding{
          col,
          rows[static_cast<size_t>(ref.step)][static_cast<size_t>(ref.column)]});
    }
    bool keep = true;
    exec::ForEachMatch(*step.table, bindings, layout.step_filters(i),
                       layout.step_blooms()[i], options,
                       [&](storage::RowId r) {
                         rows[i] = step.table->RowInto(r, &row_scratch[i]);
                         row_ids[i] = r;
                         keep = descend(i + 1);
                         return keep;
                       },
                       stats != nullptr ? &stats->probes : nullptr);
    return keep;
  };

  if (base == nullptr) {
    descend(0);
    return ok;
  }
  // Stack on the shallower materialization: its rows are exactly the serial
  // enumeration of steps [0, base->arity()), so extending each in order
  // reproduces the full serial enumeration.
  const size_t start = static_cast<size_t>(base->arity());
  XK_CHECK_LE(start, static_cast<size_t>(depth));
  for (size_t r = 0; r < base->num_rows(); ++r) {
    for (size_t c = 0; c < start; ++c) {
      row_ids[c] = base->At(r, static_cast<int>(c));
      rows[c] = steps[c].table->RowInto(row_ids[c], &row_scratch[c]);
    }
    if (!descend(start)) break;
  }
  return ok;
}

// --- Single-object plans -------------------------------------------------

void EvaluateSingleObjectPlan(
    const PreparedQuery& query, size_t plan_index,
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit,
    ExecutionStats* stats) {
  const opt::NodeFilters& filters = query.node_filters[plan_index];
  XK_CHECK_EQ(filters.size(), 1u);
  const std::vector<const storage::IdSet*>& sets = filters[0];
  XK_CHECK(!sets.empty());
  // Intersect: iterate the smallest set, check the others.
  const storage::IdSet* smallest = sets[0];
  for (const storage::IdSet* s : sets) {
    if (s->size() < smallest->size()) smallest = s;
  }
  std::vector<storage::ObjectId> ids(smallest->begin(), smallest->end());
  std::sort(ids.begin(), ids.end());  // deterministic order
  if (stats != nullptr) {
    ++stats->probes.probes;
    stats->probes.rows_scanned += ids.size();
  }
  std::vector<storage::ObjectId> objs(1);
  for (storage::ObjectId id : ids) {
    bool ok = true;
    for (const storage::IdSet* s : sets) {
      if (s != smallest && !s->contains(id)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    objs[0] = id;
    if (stats != nullptr) {
      ++stats->probes.rows_matched;
      ++stats->results;
    }
    if (!emit(objs)) return;
  }
}


void SortMttons(std::vector<present::Mtton>* results) {
  std::stable_sort(results->begin(), results->end(),
                   [](const present::Mtton& a, const present::Mtton& b) {
                     if (a.score != b.score) return a.score < b.score;
                     if (a.ctssn_index != b.ctssn_index) {
                       return a.ctssn_index < b.ctssn_index;
                     }
                     return a.objects < b.objects;
                   });
}

// --- The plan loop -------------------------------------------------------

namespace {

/// Serial-order cap on one plan's output given the results accumulated by the
/// plans scheduled before it: the first `cap` results in driver/nested-loop
/// order (per_network_k = 0 behaves like 1: the emit that trips the cap is
/// kept).
size_t PlanResultCap(const QueryOptions& options, size_t results_so_far) {
  size_t cap = std::max<size_t>(options.per_network_k, 1);
  if (options.global_k != 0) {
    cap = std::min(cap, options.global_k - results_so_far);
  }
  return cap;
}

/// The k-th-position watermark the partitions of one plan share. Each
/// finished item publishes its serial position once per result it produced;
/// the bound is the k-th smallest published position once k results exist.
/// Published results are a subset of the plan's full result stream, so the
/// bound only ever overestimates the final k-th position: an item at
/// position >= bound already has `limit` results strictly preceding it in
/// serial order and can never reach the top k.
class ShardBoundWatermark {
 public:
  explicit ShardBoundWatermark(size_t limit) : limit_(limit) {}

  /// Publishes `count` results at `position`.
  void Publish(uint64_t position, size_t count) {
    if (count == 0 || Prunes(position)) return;  // cannot tighten the bound
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < count; ++i) {
      if (heap_.size() < limit_) {
        heap_.push_back(position);
        std::push_heap(heap_.begin(), heap_.end());
      } else if (position < heap_.front()) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.back() = position;
        std::push_heap(heap_.begin(), heap_.end());
      } else {
        break;
      }
    }
    if (heap_.size() == limit_) {
      bound_.store(heap_.front(), std::memory_order_release);
    }
  }

  /// Whether a result at `position` can no longer enter the top `limit`.
  bool Prunes(uint64_t position) const {
    return position >= bound_.load(std::memory_order_acquire);
  }

 private:
  const size_t limit_;
  std::mutex mutex_;
  std::vector<uint64_t> heap_;  // max-heap of the `limit_` smallest positions
  std::atomic<uint64_t> bound_{std::numeric_limits<uint64_t>::max()};
};

/// One partition's output: position-tagged results plus gather counters.
struct PartitionOut {
  std::vector<std::pair<uint64_t, std::vector<storage::ObjectId>>> rows;
  uint64_t prunes = 0;      // items skipped via the watermark
  bool early_stop = false;  // stopped before exhausting its items
};

/// Evaluates partition `part` of `work`, keeping at most `limit` results and
/// stopping once `watermark` (nullable) proves the remaining items cannot
/// reach the plan's first `limit` results. A cancel or dry row gate also
/// stops it; the plan loop reports that as an interruption.
void RunPartition(const PlanPartitions& work, size_t part, size_t limit,
                  ShardBoundWatermark* watermark, PlanEvaluator* evaluator,
                  PartitionOut* out) {
  const size_t end = work.bounds[part + 1];
  for (size_t j = work.bounds[part]; j < end; ++j) {
    const uint64_t position = work.Position(j);
    if (watermark != nullptr && watermark->Prunes(position)) {
      out->prunes += end - j;
      out->early_stop = true;
      return;
    }
    const size_t before = out->rows.size();
    auto emit = [&](const std::vector<storage::ObjectId>& objs) {
      out->rows.emplace_back(position, objs);
      return out->rows.size() < limit &&
             !(watermark != nullptr && watermark->Prunes(position));
    };
    const bool finished = evaluator->RunItem(work, j, emit);
    // One publication per item keeps the lock off the per-result path.
    if (watermark != nullptr) {
      watermark->Publish(position, out->rows.size() - before);
    }
    if (finished) continue;
    if (out->rows.size() >= limit) {
      out->early_stop = j + 1 < end;
      return;
    }
    // The watermark cut this item short: the next iteration counts the
    // pruned remainder. Anything else was a cancel or a dry row gate.
    if (watermark == nullptr || !watermark->Prunes(position)) return;
  }
}

}  // namespace

PlanPartitions MorselPartitioner::Cut(const PlanLayout& layout,
                                      const QueryOptions& options,
                                      const exec::ExecOptions& exec_options,
                                      const exec::MaterializedSubplan* prefix,
                                      ExecutionStats* stats) const {
  PlanPartitions work;
  work.prefix = prefix;
  if (options.num_threads <= 1 && prefix == nullptr) {
    work.scan_driver = true;
    work.bounds = {0, 1};
    return work;
  }
  size_t items;
  if (prefix != nullptr) {
    items = prefix->num_rows();
  } else {
    work.driver = EnumerateDriverMatches(layout, exec_options, stats);
    items = work.driver.size();
  }
  const size_t morsel = options.num_threads <= 1
                            ? std::max<size_t>(items, 1)
                            : std::max<size_t>(options.morsel_size, 1);
  for (size_t begin = 0; begin < items; begin += morsel) {
    work.bounds.push_back(begin);
  }
  work.bounds.push_back(items);
  return work;
}

std::vector<present::Mtton> RunTopKPlans(const PreparedQuery& query,
                                         const QueryOptions& options,
                                         const PlanPartitioner& partitioner,
                                         ExecutionStats* stats, Coverage* coverage,
                                         ResultSink* sink) {
  std::vector<present::Mtton> results;
  std::vector<ExecutionStats> per_plan_stats(query.plans.size());
  BloomCache bloom_cache(query.exec_options.use_indexes);
  BloomCache* bloom_cache_ptr =
      options.enable_semijoin_pruning ? &bloom_cache : nullptr;

  // Deadline/cancel token, threaded into every probe via the exec options.
  const CancelToken* cancel = options.cancel;
  exec::ExecOptions exec_options = query.exec_options;
  exec_options.cancel = cancel;
  // Run-time knob wins over the Prepare-time snapshot, so one prepared query
  // can be executed both row-at-a-time and vectorized (the benches A/B this).
  exec_options.vectorized = options.vectorized;
  exec_options.force_scalar_kernels =
      options.kernel_dispatch == KernelDispatch::kForceScalar;

  auto stop_requested = [&] {
    return cancel != nullptr && cancel->StopRequested();
  };

  // Plan DAG: execution order (nondecreasing network size — smaller networks
  // answer first and rank higher — cost-ordered inside a size class) plus the
  // shared join prefixes among the plans that will actually run.
  std::vector<bool> active(query.plans.size());
  for (size_t p = 0; p < query.plans.size(); ++p) {
    active[p] = options.max_network_size <= 0 ||
                query.ctssns[p].tree.size() <= options.max_network_size;
  }
  opt::PlanDagOptions dag_options;
  dag_options.cost_ordered = options.cost_ordered_scheduling;
  dag_options.share_subplans = options.enable_subplan_reuse;
  const opt::PlanDag dag = opt::BuildPlanDag(query.plans, active, dag_options);

  // Anytime budget + per-plan outcome ledger. With no cost budget and no
  // armed deadline (or enable_anytime off) every plan is admitted and the
  // run is byte-identical to the pre-anytime engine; the ledger then only
  // backs the coverage report.
  ProgressBudget budget(query, active, options);
  budget.PreAdmit(dag.schedule);

  // Finalized-prefix streaming (engine/result_sink.h): per CN size class, the
  // number of scheduled plans that can still append results. When a plan is
  // done for good — completed, capped, budget-skipped, or interrupted — its
  // class count drops; once every class <= W has drained, all results with
  // score <= W are final and their sorted form is the prefix of the eventual
  // response, so the delta past what was already streamed goes to the sink.
  // Plans left unvisited by a global stop never decrement: the watermark
  // simply stalls and the tail rides the final response.
  std::map<int, size_t> stream_pending;
  size_t streamed = 0;
  if (sink != nullptr) {
    for (size_t p = 0; p < query.plans.size(); ++p) {
      if (active[p]) ++stream_pending[query.ctssns[p].cn_size];
    }
  }
  auto stream_plan_done = [&](size_t p) {
    if (sink == nullptr) return;
    auto it = stream_pending.find(query.ctssns[p].cn_size);
    XK_CHECK(it != stream_pending.end() && it->second > 0);
    if (--it->second == 0) stream_pending.erase(it);
    const int watermark = stream_pending.empty()
                              ? std::numeric_limits<int>::max()
                              : stream_pending.begin()->first - 1;
    std::vector<present::Mtton> finalized;
    for (const present::Mtton& m : results) {
      if (m.score <= watermark) finalized.push_back(m);
    }
    SortMttons(&finalized);
    if (options.global_k != 0 && finalized.size() > options.global_k) {
      finalized.resize(options.global_k);
    }
    if (finalized.size() > streamed) {
      sink->OnBatch(
          std::span<const present::Mtton>(finalized).subspan(streamed));
      streamed = finalized.size();
    }
  };

  std::unique_ptr<opt::SubplanCache> subplan_cache;
  if (partitioner.replays_prefixes() && options.enable_subplan_reuse &&
      !dag.subplans.empty()) {
    subplan_cache =
        std::make_unique<opt::SubplanCache>(options.subplan_cache_budget_bytes);
  }

  // The materialized prefix assigned to plan `p`, produced on first use;
  // nullptr when the plan has no shared prefix or the production failed
  // (fall back to direct execution).
  auto acquire_prefix = [&](size_t p, const PlanLayout& layout)
      -> opt::SubplanCache::SubplanPtr {
    if (subplan_cache == nullptr || dag.shared_subplan[p] < 0) return nullptr;
    const opt::SharedSubplan& node =
        dag.subplans[static_cast<size_t>(dag.shared_subplan[p])];
    return subplan_cache->GetOrCompute(
        node.signature, node.consumers,
        [&]() -> opt::SubplanCache::SubplanPtr {
          auto sub = std::make_shared<exec::MaterializedSubplan>(node.depth + 1);
          // Stack on the deepest already-materialized shallower prefix.
          opt::SubplanCache::SubplanPtr base;
          const std::vector<std::string>& sigs = query.plans[p].prefix_signatures;
          for (int d = node.depth - 1; d >= 0; --d) {
            base = subplan_cache->Peek(sigs[static_cast<size_t>(d)]);
            if (base != nullptr) break;
          }
          if (!MaterializePrefixRows(layout, node.depth, exec_options,
                                     base.get(), subplan_cache->budget_bytes(),
                                     &per_plan_stats[p], sub.get())) {
            return nullptr;
          }
          return sub;
        });
  };
  auto release_prefix = [&](size_t p) {
    if (subplan_cache == nullptr || dag.shared_subplan[p] < 0) return;
    subplan_cache->Release(
        dag.subplans[static_cast<size_t>(dag.shared_subplan[p])].signature);
  };

  for (size_t p : dag.schedule) {
    if (stop_requested()) break;  // unvisited plans stay "skipped"
    if (!active[p]) continue;
    if (options.global_k != 0 && results.size() >= options.global_k) {
      // The answer needs nothing from the plans not yet visited.
      budget.MarkUnreachedComplete();
      break;
    }
    if (!budget.AdmitPlan(p)) {  // skip whole CN, try the next
      stream_plan_done(p);
      continue;
    }
    Stopwatch plan_timer;
    ExecutionStats& plan_stats = per_plan_stats[p];
    const uint64_t rows_before = plan_stats.probes.rows_scanned;
    const size_t limit = PlanResultCap(options, results.size());
    const int score = query.ctssns[p].cn_size;
    bool interrupted = false;

    if (query.plans[p].query.steps.empty()) {
      size_t taken = 0;
      EvaluateSingleObjectPlan(
          query, p,
          [&](const std::vector<storage::ObjectId>& objs) {
            results.push_back(present::Mtton{static_cast<int>(p), objs, score});
            return ++taken < limit;
          },
          &plan_stats);
    } else {
      PlanLayout layout(&query.plans[p], options.enable_semijoin_pruning,
                        bloom_cache_ptr, &plan_stats);
      opt::SubplanCache::SubplanPtr prefix = acquire_prefix(p, layout);
      const PlanPartitions work = partitioner.Cut(layout, options, exec_options,
                                                  prefix.get(), &plan_stats);
      const size_t parts = work.num_partitions();
      std::optional<ShardBoundWatermark> watermark;
      if (parts > 1) watermark.emplace(limit);
      std::shared_ptr<RowGate> gate = budget.MakeRowGate();

      // Runners: each owns an evaluator (suffix caches and stats) and a slot
      // for the buffer-pool traffic of the thread it runs on.
      const size_t runners = std::min<size_t>(std::max(options.num_threads, 1),
                                              std::max<size_t>(parts, 1));
      std::vector<std::unique_ptr<PlanEvaluator>> evaluators(runners);
      std::vector<ExecutionStats> runner_pages(runners);
      std::vector<PartitionOut> outs(parts);
      ParallelFor(parts, options.num_threads, [&](size_t part, size_t runner) {
        std::unique_ptr<PlanEvaluator>& evaluator = evaluators[runner];
        if (evaluator == nullptr) {
          evaluator = std::make_unique<PlanEvaluator>(
              &layout, exec_options, options.enable_cache, options.cache_capacity);
          evaluator->set_row_gate(gate.get());
        }
        if (!stop_requested()) {
          RunPartition(work, part, limit, watermark ? &*watermark : nullptr,
                       evaluator.get(), &outs[part]);
        }
        DrainPageCounters(&runner_pages[runner]);
      });
      for (size_t r = 0; r < runners; ++r) {
        if (evaluators[r] != nullptr) plan_stats.Add(evaluators[r]->stats());
        plan_stats.Add(runner_pages[r]);
      }
      release_prefix(p);

      // Gather: ascending serial position reconstructs the serial
      // enumeration order (stable — the results of one item live in one
      // partition, in emission order); the first `limit` are the serial
      // prefix.
      std::vector<std::pair<uint64_t, std::vector<storage::ObjectId>>> gathered;
      for (PartitionOut& out : outs) {
        gathered.insert(gathered.end(), std::make_move_iterator(out.rows.begin()),
                        std::make_move_iterator(out.rows.end()));
      }
      if (parts > 1) {
        std::stable_sort(gathered.begin(), gathered.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         });
        plan_stats.shard_fanout += parts;
        for (const PartitionOut& out : outs) {
          plan_stats.shard_bound_prunes += out.prunes;
          if (out.early_stop) ++plan_stats.shard_early_stops;
        }
      }
      gathered.resize(std::min(limit, gathered.size()));
      for (auto& [position, objs] : gathered) {
        results.push_back(
            present::Mtton{static_cast<int>(p), std::move(objs), score});
      }
      // A result cap is a complete outcome; only a deadline/cancel trip or a
      // dry row gate marks the plan interrupted.
      interrupted = stop_requested() || (gate != nullptr && gate->Exhausted());
    }

    if (interrupted) {
      budget.OnPlanInterrupted(p);
    } else {
      budget.OnPlanComplete(p, plan_stats.probes.rows_scanned - rows_before,
                            static_cast<uint64_t>(plan_timer.ElapsedNanos()));
    }
    stream_plan_done(p);
  }

  SortMttons(&results);
  if (options.global_k != 0 && results.size() > options.global_k) {
    results.resize(options.global_k);
  }
  if (coverage != nullptr) *coverage = budget.Finish();
  if (stats != nullptr) {
    for (const ExecutionStats& s : per_plan_stats) stats->Add(s);
    if (subplan_cache != nullptr) {
      const opt::SubplanCacheStats cs = subplan_cache->stats();
      stats->subplan_hits += cs.hits;
      stats->subplan_misses += cs.misses;
      stats->subplan_bytes =
          std::max(stats->subplan_bytes, static_cast<uint64_t>(cs.bytes_peak));
      stats->dedup_saved_rows += cs.dedup_saved_rows;
    }
    stats->results = results.size();
  }
  return results;
}

Result<std::vector<present::Mtton>> TopKExecutor::Run(const PreparedQuery& query,
                                                      const QueryOptions& options,
                                                      ExecutionStats* stats,
                                                      Coverage* coverage,
                                                      ResultSink* sink) {
  return RunTopKPlans(query, options, MorselPartitioner(), stats, coverage, sink);
}

}  // namespace xk::engine
