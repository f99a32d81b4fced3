// Differential harness for the sharded scale-out data plane: for randomized
// DBLP instances (TEST_P over generator seeds) and the hand-built Figure-1
// TPC-H instance, ShardedEngine must return results BYTE-IDENTICAL to the
// single-instance XKeyword oracle — same Mtton vectors, element for element —
// across shard counts {1,2,3,4,8,16}, both kTopK and kAll, and every
// result-affecting knob combination (vectorized on/off, subplan reuse +
// cost-ordered scheduling on/off, default and four partition runners,
// per-network and global k bounds). Plus partition invariants of the slices
// themselves, the shard counters' plumbing, and a check that no query
// creates threads.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "datagen/dblp_gen.h"
#include "engine/sharded_engine.h"
#include "engine/xkeyword.h"
#include "test_util.h"

namespace xk {
namespace {

using engine::QueryMode;
using engine::QueryOptions;
using engine::QueryRequest;
using engine::QueryResponse;
using engine::ShardedEngine;
using engine::ShardedEngineOptions;
using engine::XKeyword;
using present::Mtton;

QueryRequest MakeRequest(const std::vector<std::string>& keywords,
                         QueryMode mode, const QueryOptions& options) {
  QueryRequest request;
  request.keywords = keywords;
  request.decomposition = "XKeyword";
  request.mode = mode;
  request.options = options;
  return request;
}

/// Runs `request` on both engines and expects byte-identical Mtton vectors.
void ExpectIdentical(const XKeyword& oracle, const ShardedEngine& sharded,
                     const QueryRequest& request, const std::string& what) {
  auto expected = oracle.Run(request);
  auto actual = sharded.Run(request);
  ASSERT_TRUE(expected.ok()) << what << ": " << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << what << ": " << actual.status().ToString();
  ASSERT_TRUE(expected.value().status.ok()) << what;
  ASSERT_TRUE(actual.value().status.ok()) << what;
  EXPECT_EQ(expected.value().mttons, actual.value().mttons) << what;
}

class ShardedDifferential : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    datagen::DblpConfig config;
    config.num_conferences = 3;
    config.years_per_conference = 3;
    config.avg_papers_per_year = 6;
    config.avg_citations_per_paper = 3.0;
    config.author_vocab = 25;
    config.title_vocab = 30;
    config.seed = static_cast<uint64_t>(GetParam());
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe();
    oracle_ = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
                  .MoveValueUnsafe();
    XK_ASSERT_OK(oracle_->AddDecomposition(
        decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/4).MoveValueUnsafe()));
    for (int slices : {1, 2, 4, 8}) {
      ShardedEngineOptions options;
      options.num_slices = slices;
      auto sharded = ShardedEngine::Load(&db_->graph(), &db_->schema(),
                                         &db_->tss(), options)
                         .MoveValueUnsafe();
      XK_ASSERT_OK(sharded->AddDecomposition(
          decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/4).MoveValueUnsafe()));
      sharded_[slices] = std::move(sharded);
    }

    Random rng(config.seed * 31 + 7);
    for (int i = 0; i < 3; ++i) {
      queries_.push_back(
          {rng.Pick(db_->author_names()), rng.Pick(db_->title_words())});
    }
  }

  std::unique_ptr<datagen::DblpDatabase> db_;
  std::unique_ptr<XKeyword> oracle_;
  std::map<int, std::unique_ptr<ShardedEngine>> sharded_;
  std::vector<std::vector<std::string>> queries_;
};

/// The core matrix on the 8-slice engine: shard counts that divide, group
/// (3 groups of 8 slices), exceed (16 > 8) the slice count, times both modes,
/// both k bounds, and the default versus four partition runners on both
/// engines. Plans finish in schedule order, so a global_k budget is exact
/// under every runner count.
TEST_P(ShardedDifferential, MatchesOracleAcrossShardCounts) {
  for (const auto& q : queries_) {
    for (int num_shards : {1, 2, 3, 4, 8, 16}) {
      for (size_t per_network_k : {size_t{10}, size_t{100}}) {
        for (size_t global_k : {size_t{0}, size_t{7}}) {
          for (int threads : {QueryOptions().num_threads, 4}) {
          QueryOptions options;
          options.max_size_z = 4;
          options.num_threads = threads;
          options.per_network_k = per_network_k;
          options.global_k = global_k;
          options.num_shards = num_shards;
          const std::string what =
              q[0] + " " + q[1] + " shards=" + std::to_string(num_shards) +
              " k=" + std::to_string(per_network_k) +
              " g=" + std::to_string(global_k) +
              " threads=" + std::to_string(threads);
          ExpectIdentical(*oracle_, *sharded_[8],
                          MakeRequest(q, QueryMode::kTopK, options),
                          what + " topk");
          ExpectIdentical(*oracle_, *sharded_[8],
                          MakeRequest(q, QueryMode::kAll, options),
                          what + " all");
          }
        }
      }
    }
  }
}

/// Every loaded slice count against the oracle, default-ish options.
TEST_P(ShardedDifferential, MatchesOracleAcrossSliceCounts) {
  for (const auto& q : queries_) {
    for (const auto& [slices, engine] : sharded_) {
      QueryOptions options;
      options.max_size_z = 4;
      options.num_shards = slices;
      const std::string what =
          q[0] + " " + q[1] + " slices=" + std::to_string(slices);
      ExpectIdentical(*oracle_, *engine,
                      MakeRequest(q, QueryMode::kTopK, options), what + " topk");
      ExpectIdentical(*oracle_, *engine,
                      MakeRequest(q, QueryMode::kAll, options), what + " all");
    }
  }
}

/// Result-affecting knobs A/B'd one at a time on the 4-slice engine: the
/// sharded plan schedule must track the oracle's under every combination.
TEST_P(ShardedDifferential, MatchesOracleAcrossKnobs) {
  struct Variant {
    const char* name;
    void (*apply)(QueryOptions*);
  };
  const Variant variants[] = {
      {"row_at_a_time", [](QueryOptions* o) { o->vectorized = false; }},
      {"no_reuse", [](QueryOptions* o) { o->enable_subplan_reuse = false; }},
      {"legacy_schedule",
       [](QueryOptions* o) { o->cost_ordered_scheduling = false; }},
      {"no_cache", [](QueryOptions* o) { o->enable_cache = false; }},
      {"no_bloom",
       [](QueryOptions* o) { o->enable_semijoin_pruning = false; }},
      {"four_runners",
       [](QueryOptions* o) { o->num_threads = 4; o->morsel_size = 8; }},
      {"two_runners_global_k",
       [](QueryOptions* o) { o->num_threads = 2; o->global_k = 3; }},
      {"tight_global_k", [](QueryOptions* o) { o->global_k = 3; }},
  };
  for (const auto& q : queries_) {
    for (const Variant& v : variants) {
      QueryOptions options;
      options.max_size_z = 4;
      options.num_shards = 4;
      v.apply(&options);
      const std::string what = q[0] + " " + q[1] + " " + v.name;
      ExpectIdentical(*oracle_, *sharded_[4],
                      MakeRequest(q, QueryMode::kTopK, options), what + " topk");
      ExpectIdentical(*oracle_, *sharded_[4],
                      MakeRequest(q, QueryMode::kAll, options), what + " all");
    }
  }
}

/// The slices partition the instance: contiguous ID ranges covering the
/// object space; master-index postings and BLOBs land in exactly the owning
/// shard; every connection relation's rows split by anchor with ascending,
/// disjoint row maps that reassemble the global row sequence.
TEST_P(ShardedDifferential, SlicesPartitionTheInstance) {
  const ShardedEngine& se = *sharded_[4];
  const XKeyword& inner = se.inner();
  const storage::ObjectId num_objects = inner.objects().NumObjects();

  storage::ObjectId expect_begin = 0;
  size_t postings = 0;
  size_t blobs = 0;
  for (int s = 0; s < se.num_slices(); ++s) {
    const engine::ShardLocalEngine& shard = se.shard(s);
    EXPECT_EQ(shard.range().begin, expect_begin);
    EXPECT_LT(shard.range().begin, shard.range().end);
    expect_begin = shard.range().end;
    postings += shard.master_index().NumPostings();
    for (storage::ObjectId id = shard.range().begin; id < shard.range().end;
         ++id) {
      if (inner.catalog().blob_store().Contains(id)) {
        EXPECT_TRUE(shard.blob_store().Contains(id));
        ++blobs;
      }
    }
  }
  EXPECT_EQ(expect_begin, num_objects);
  EXPECT_EQ(postings, inner.master_index().NumPostings());
  size_t global_blobs = 0;
  for (storage::ObjectId id = 0; id < num_objects; ++id) {
    if (inner.catalog().blob_store().Contains(id)) ++global_blobs;
  }
  EXPECT_EQ(blobs, global_blobs);

  for (const std::string& name : inner.catalog().TableNames()) {
    XK_ASSERT_OK_AND_ASSIGN(const storage::Table* table,
                            inner.catalog().GetTable(name));
    std::vector<storage::RowId> reassembled;
    for (int s = 0; s < se.num_slices(); ++s) {
      const auto& shard =
          dynamic_cast<const engine::SlicedShard&>(se.shard(s));
      const storage::Table* slice = shard.SliceOf(table);
      ASSERT_NE(slice, nullptr) << name;
      auto row_map = shard.RowMapOf(table);
      ASSERT_EQ(slice->NumRows(), row_map.size()) << name;
      storage::Tuple slice_scratch, global_scratch;
      for (size_t r = 0; r < row_map.size(); ++r) {
        if (r > 0) {
          EXPECT_LT(row_map[r - 1], row_map[r]) << name;
        }
        // Slice row r is the global row it maps to, and its anchor is owned.
        const storage::TupleView sv =
            slice->RowInto(static_cast<storage::RowId>(r), &slice_scratch);
        const storage::TupleView gv =
            table->RowInto(row_map[r], &global_scratch);
        EXPECT_EQ(storage::Tuple(sv.begin(), sv.end()),
                  storage::Tuple(gv.begin(), gv.end()))
            << name;
        EXPECT_TRUE(shard.range().Contains(sv[0])) << name;
        reassembled.push_back(row_map[r]);
      }
    }
    std::vector<storage::RowId> all(table->NumRows());
    for (size_t r = 0; r < all.size(); ++r) all[r] = static_cast<storage::RowId>(r);
    std::sort(reassembled.begin(), reassembled.end());
    EXPECT_EQ(reassembled, all) << name;
  }
}

/// The gather counters flow through ExecutionStats: fan-out counts slice
/// groups per evaluated plan, and with a tight bound the watermark prunes
/// driver rows; the single-partition oracle reports none of them.
TEST_P(ShardedDifferential, ShardCountersAreWired) {
  QueryOptions options;
  options.max_size_z = 4;
  options.num_shards = 4;
  options.per_network_k = 1;  // tight bound => the watermark actually bites
  uint64_t prunes = 0;
  for (const auto& q : queries_) {
    XK_ASSERT_OK_AND_ASSIGN(
        QueryResponse response,
        sharded_[4]->Run(MakeRequest(q, QueryMode::kTopK, options)));
    XK_ASSERT_OK_AND_ASSIGN(
        QueryResponse single,
        oracle_->Run(MakeRequest(q, QueryMode::kTopK, options)));
    EXPECT_EQ(response.mttons, single.mttons);
    EXPECT_EQ(single.stats.shard_fanout, 0u);
    EXPECT_EQ(single.stats.shard_bound_prunes, 0u);
    if (response.mttons.empty()) continue;
    EXPECT_GT(response.stats.shard_fanout, 0u);
    prunes += response.stats.shard_bound_prunes;
  }
  EXPECT_GT(prunes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferential, ::testing::Values(7, 42));

// --- Figure-1 (TPC-H) dataset --------------------------------------------

TEST(ShardedFigure1Test, MatchesOracleOnTpchInstance) {
  auto db = testing::MakeFigure1Database();
  auto oracle =
      XKeyword::Load(&db->graph, &db->schema, db->tss.get()).MoveValueUnsafe();
  XK_ASSERT_OK(oracle->AddDecomposition(
      decomp::MakeXKeyword(*db->tss, /*B=*/2, /*M=*/4).MoveValueUnsafe()));
  ShardedEngineOptions engine_options;
  engine_options.num_slices = 8;
  auto sharded = ShardedEngine::Load(&db->graph, &db->schema, db->tss.get(),
                                     engine_options)
                     .MoveValueUnsafe();
  XK_ASSERT_OK(sharded->AddDecomposition(
      decomp::MakeXKeyword(*db->tss, /*B=*/2, /*M=*/4).MoveValueUnsafe()));

  const std::vector<std::vector<std::string>> queries = {
      {"john", "vcr"}, {"john", "tv"}, {"mike", "vcr"}};
  for (const auto& q : queries) {
    for (int num_shards : {2, 4, 8}) {
      QueryOptions options;
      options.max_size_z = 8;  // the paper's "John, VCR" results have sizes 6, 8
      options.per_network_k = 100;
      options.num_shards = num_shards;
      const std::string what =
          q[0] + " " + q[1] + " shards=" + std::to_string(num_shards);
      XK_ASSERT_OK_AND_ASSIGN(
          QueryResponse expected,
          oracle->Run(MakeRequest(q, QueryMode::kTopK, options)));
      EXPECT_FALSE(expected.mttons.empty()) << what;
      ExpectIdentical(*oracle, *sharded,
                      MakeRequest(q, QueryMode::kTopK, options), what + " topk");
      ExpectIdentical(*oracle, *sharded,
                      MakeRequest(q, QueryMode::kAll, options), what + " all");
    }
  }
}

TEST(ShardedFigure1Test, SingleShardAndNaiveDelegateToInner) {
  auto db = testing::MakeFigure1Database();
  auto sharded = ShardedEngine::Load(&db->graph, &db->schema, db->tss.get())
                     .MoveValueUnsafe();
  XK_ASSERT_OK(sharded->AddDecomposition(
      decomp::MakeXKeyword(*db->tss, /*B=*/2, /*M=*/4).MoveValueUnsafe()));

  QueryOptions options;
  options.max_size_z = 8;  // the paper's "John, VCR" results have sizes 6, 8
  QueryRequest request =
      MakeRequest({"john", "vcr"}, QueryMode::kTopK, options);
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse one, sharded->Run(request));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse inner, sharded->inner().Run(request));
  EXPECT_FALSE(inner.mttons.empty());
  EXPECT_EQ(one.mttons, inner.mttons);
  EXPECT_EQ(one.stats.shard_fanout, 0u);  // delegated, never scattered

  request.mode = QueryMode::kNaive;
  request.options.num_shards = 4;
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse naive, sharded->Run(request));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse naive_inner,
                          sharded->inner().Run(request));
  EXPECT_EQ(naive.mttons, naive_inner.mttons);
  EXPECT_EQ(naive.stats.shard_fanout, 0u);
}

TEST(ShardedFigure1Test, ValidateRejectsBadShardOptions) {
  auto db = testing::MakeFigure1Database();
  auto sharded = ShardedEngine::Load(&db->graph, &db->schema, db->tss.get())
                     .MoveValueUnsafe();
  XK_ASSERT_OK(sharded->AddDecomposition(
      decomp::MakeXKeyword(*db->tss, /*B=*/2, /*M=*/4).MoveValueUnsafe()));

  QueryOptions bad_shards;
  bad_shards.num_shards = 0;
  EXPECT_TRUE(bad_shards.Validate().IsInvalidArgument());
  QueryOptions bad_threads;
  bad_threads.num_threads = -1;
  EXPECT_TRUE(bad_threads.Validate().IsInvalidArgument());

  // The full Run path rejects them in Prepare, before any work happens.
  QueryRequest request = MakeRequest({"john", "vcr"}, QueryMode::kTopK, {});
  request.options.num_shards = 2;  // sharded path...
  request.options.num_threads = -1;  // ...with a nonsensical runner count
  EXPECT_TRUE(sharded->Run(request).status().IsInvalidArgument());
  request.options.num_threads = 1;
  request.options.num_shards = -3;
  EXPECT_TRUE(sharded->inner().Run(request).status().IsInvalidArgument());
}

/// Live threads of this process.
size_t LiveThreads() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Partitions run on the process-wide pool, so after one warm-up query no
/// query creates a thread: a watcher samples the live thread count while 50
/// partitioned queries run on the single engine, sharded top-k and sharded
/// kAll, and the count never rises above its baseline.
TEST(ShardedFigure1Test, QueriesCreateNoThreads) {
  auto db = testing::MakeFigure1Database();
  ShardedEngineOptions engine_options;
  engine_options.num_slices = 4;
  auto sharded = ShardedEngine::Load(&db->graph, &db->schema, db->tss.get(),
                                     engine_options)
                     .MoveValueUnsafe();
  XK_ASSERT_OK(sharded->AddDecomposition(
      decomp::MakeXKeyword(*db->tss, /*B=*/2, /*M=*/4).MoveValueUnsafe()));

  QueryOptions options;
  options.max_size_z = 8;  // the paper's "John, VCR" results have sizes 6, 8
  options.num_threads = 4;
  options.morsel_size = 1;  // many partitions on the single engine too
  QueryRequest single = MakeRequest({"john", "vcr"}, QueryMode::kTopK, options);
  QueryRequest topk = single;
  topk.options.num_shards = 4;
  QueryRequest all = topk;
  all.mode = QueryMode::kAll;
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse warm_up, sharded->Run(topk));
  ASSERT_FALSE(warm_up.mttons.empty());
  ASSERT_GT(warm_up.stats.shard_fanout, 0u);  // partitions really ran

  std::atomic<bool> done{false};
  std::atomic<size_t> peak{0};
  std::thread watcher([&] {
    while (!done.load()) {
      size_t now = LiveThreads();
      size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::yield();
    }
  });
  const size_t baseline = LiveThreads();
  for (int i = 0; i < 50; ++i) {
    XK_ASSERT_OK(sharded->inner().Run(single).status());
    XK_ASSERT_OK(sharded->Run(topk).status());
    XK_ASSERT_OK(sharded->Run(all).status());
  }
  done.store(true);
  watcher.join();
  EXPECT_LE(peak.load(), baseline);
  EXPECT_LT(LiveThreads(), baseline);  // the watcher is gone
}

}  // namespace
}  // namespace xk
