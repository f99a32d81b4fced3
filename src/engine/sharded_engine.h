// Copyright (c) the XKeyword authors.
//
// ShardedEngine: the scale-out data plane. Partitions the loaded instance by
// target-object ID range into N shard slices (ShardLocalEngine) at load time;
// each query's plans are evaluated per slice group and merged back into the
// serial order of the single-instance engine.
//
// Correctness oracle: for every option combination, results are byte-identical
// to XKeyword::Run with the same options. The mechanism per mode:
//
//  * kTopK — the shared top-k plan loop (RunTopKPlans) with a partitioner
//    that cuts each plan's step-0 driver rows by anchor ownership, one
//    partition per slice group. Every result is tagged with its global
//    driver-row position; the loop's gather sorts by position and keeps the
//    first `limit` — exactly the serial nested-loop prefix — and its
//    k-th-position watermark stops partitions that can no longer contribute.
//    Schedule, global_k accounting, anytime budget and streaming are the
//    single engine's, because the loop is.
//  * kAll — the complete output is order-insensitive before the final total
//    sort, so shards run a hash join whose step-0 scan is shard-private (the
//    anchor rows they own) and whose later scans are shared globals; the
//    union of the per-shard outputs is the global result multiset.
//  * kNaive and num_shards <= 1 delegate to the inner XKeyword unchanged —
//    the degenerate single-shard case.
//
// Knobs: QueryOptions::num_shards, plus num_threads for how many slice groups
// run at once (on the process-wide pool).
// The engine loads `ShardedEngineOptions::num_slices` physical slices once; a
// query's num_shards groups them into at most that many contiguous ranges, so
// one loaded engine serves every shard count up to num_slices.

#ifndef XK_ENGINE_SHARDED_ENGINE_H_
#define XK_ENGINE_SHARDED_ENGINE_H_

#include <memory>
#include <vector>

#include "engine/query_engine.h"
#include "engine/shard_local_engine.h"
#include "engine/xkeyword.h"

namespace xk::engine {

struct ShardedEngineOptions {
  /// Physical slices built at load time (>= 1; clamped to the number of
  /// target objects). Queries can scatter to at most this many shards.
  int num_slices = 4;
  /// Storage backend of the inner engine (and, transitively, the slice
  /// tables built over it). One tier serves the whole process.
  storage::StorageOptions storage;
};

class ShardedEngine : public QueryEngine {
 public:
  /// Loads the database through the regular load stage, then slices it. The
  /// graph, schema and TSS graph must outlive the returned object.
  static Result<std::unique_ptr<ShardedEngine>> Load(
      const xml::XmlGraph* graph, const schema::SchemaGraph* schema,
      const schema::TssGraph* tss, ShardedEngineOptions options = {});

  /// Materializes a decomposition in the inner engine, then partitions every
  /// newly created connection relation across the slices.
  Status AddDecomposition(decomp::Decomposition d);

  /// `sink` streams finalized top-k prefixes exactly as XKeyword::Run does;
  /// kAll never streams. The response is identical either way.
  Result<QueryResponse> Run(const QueryRequest& request,
                            CancelToken* token = nullptr,
                            ResultSink* sink = nullptr) const override;

  uint64_t data_generation() const override { return inner_->data_generation(); }

  // --- Introspection (tests, benches) -----------------------------------

  const XKeyword& inner() const { return *inner_; }
  int num_slices() const { return static_cast<int>(shards_.size()); }
  const ShardLocalEngine& shard(int i) const {
    return *shards_[static_cast<size_t>(i)];
  }
  /// Footprint of the shard-owned slices (on top of the inner instance).
  size_t ShardMemoryBytes() const;

 private:
  ShardedEngine(std::unique_ptr<XKeyword> inner,
                std::vector<std::unique_ptr<ShardLocalEngine>> shards,
                std::vector<SlicedShard*> sliced)
      : inner_(std::move(inner)),
        shards_(std::move(shards)),
        sliced_(std::move(sliced)) {}

  void RunShardedAll(const PreparedQuery& query, const QueryOptions& options,
                     int groups, QueryResponse* response) const;

  std::unique_ptr<XKeyword> inner_;
  std::vector<std::unique_ptr<ShardLocalEngine>> shards_;
  /// The shards of shards_ that hold materialized slices (empty in the
  /// degenerate whole-instance case); AddDecomposition feeds new tables here.
  std::vector<SlicedShard*> sliced_;
};

}  // namespace xk::engine

#endif  // XK_ENGINE_SHARDED_ENGINE_H_
