// Tests for the semi-join Bloom build paths: the per-table column memo, the
// keyword-set index probe and the filtered scan build bit-identical filters
// on every fixture, storage backend and decomposition policy; steps served
// from the memo cost a repeated query no build rows; and racing first callers
// of Table::ColumnBloom share one build.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dblp_gen.h"
#include "datagen/tpch_gen.h"
#include "decomp/decomposition.h"
#include "engine/topk_executor.h"
#include "engine/xkeyword.h"
#include "storage/storage_tier.h"
#include "test_util.h"

namespace xk::engine {
namespace {

using storage::BloomFilter;

const char* PathName(BloomBuild path) {
  switch (path) {
    case BloomBuild::kMemo: return "memo";
    case BloomBuild::kProbe: return "probe";
    case BloomBuild::kScan: return "scan";
  }
  return "?";
}

/// The query-serving decomposition policies of Sections 5 and 7 (Inlined
/// serves on-demand expansion and cannot cover every network; Maximal is
/// exponential). MinNClustNIndx has no index and forbids index use at run
/// time, so its filtered steps must keep the scan build.
std::vector<decomp::Decomposition> AllPolicies(const schema::TssGraph& tss) {
  std::vector<decomp::Decomposition> out;
  out.push_back(decomp::MakeMinimal(tss, decomp::PhysicalDesign::kClusterPerDirection));
  out.push_back(decomp::MakeMinimal(tss, decomp::PhysicalDesign::kHashIndexPerColumn));
  out.push_back(decomp::MakeMinimal(tss, decomp::PhysicalDesign::kNone,
                                    /*use_indexes_at_runtime=*/false));
  out.push_back(decomp::MakeXKeyword(tss, 2, 6).MoveValueUnsafe());
  out.push_back(decomp::MakeComplete(tss, 2).MoveValueUnsafe());
  return out;
}

struct Fixture {
  std::string name;
  const xml::XmlGraph* graph;
  const schema::SchemaGraph* schema;
  const schema::TssGraph* tss;
  const std::vector<decomp::Decomposition>* policies;
  std::vector<std::vector<std::string>> queries;
};

class BloomBuildTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DblpConfig dblp;
    dblp.seed = 2003;
    dblp.avg_papers_per_year = 15.0;  // tables large enough for probes to pay off
    dblp_ = datagen::DblpDatabase::Generate(dblp).MoveValueUnsafe().release();
    datagen::TpchConfig tpch;
    tpch.seed = 77;
    tpch_ = datagen::TpchDatabase::Generate(tpch).MoveValueUnsafe().release();
    // Enumerating the decompositions costs more than loading; do it once.
    dblp_policies_ = new std::vector<decomp::Decomposition>(AllPolicies(dblp_->tss()));
    tpch_policies_ = new std::vector<decomp::Decomposition>(AllPolicies(tpch_->tss()));
  }

  static void TearDownTestSuite() {
    delete dblp_policies_;
    dblp_policies_ = nullptr;
    delete tpch_policies_;
    tpch_policies_ = nullptr;
    delete dblp_;
    dblp_ = nullptr;
    delete tpch_;
    tpch_ = nullptr;
  }

  static std::vector<Fixture> Fixtures() {
    return {
        {"dblp", &dblp_->graph(), &dblp_->schema(), &dblp_->tss(), dblp_policies_,
         {{"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}}},
        {"tpch", &tpch_->graph(), &tpch_->schema(), &tpch_->tss(), tpch_policies_,
         {{"john", "tv"}, {"vcr", "dvd"}, {"mike", "radio"}, {"us", "tv"}}},
    };
  }

  static datagen::DblpDatabase* dblp_;
  static datagen::TpchDatabase* tpch_;
  static std::vector<decomp::Decomposition>* dblp_policies_;
  static std::vector<decomp::Decomposition>* tpch_policies_;
};

datagen::DblpDatabase* BloomBuildTest::dblp_ = nullptr;
datagen::TpchDatabase* BloomBuildTest::tpch_ = nullptr;
std::vector<decomp::Decomposition>* BloomBuildTest::dblp_policies_ = nullptr;
std::vector<decomp::Decomposition>* BloomBuildTest::tpch_policies_ = nullptr;

// For every probed column of every plan step: the filter BloomCache returns
// (memo, probe or scan, as the step dictates) equals the reference full-scan
// build bit for bit; so does a forced probe build wherever the step has a
// keyword set and an index to probe. Identical filters give identical
// bloom_skips and answers, so this is what keeps pruning byte-identical.
TEST_F(BloomBuildTest, PathsBuildBitIdenticalFilters) {
  for (const Fixture& fx : Fixtures()) {
    for (storage::StorageBackend backend :
         {storage::StorageBackend::kMemory, storage::StorageBackend::kDisk}) {
      storage::StorageOptions storage_options;
      storage_options.backend = backend;
      storage_options.buffer_pool_bytes = 256 << 10;
      XK_ASSERT_OK_AND_ASSIGN(
          std::unique_ptr<XKeyword> xk,
          XKeyword::Load(fx.graph, fx.schema, fx.tss, storage_options));
      std::vector<std::string> names;
      for (const decomp::Decomposition& d : *fx.policies) {
        names.push_back(d.name);
        XK_ASSERT_OK(xk->AddDecomposition(d));
      }

      std::map<BloomBuild, int> chosen;
      int forced_probes = 0;
      for (const std::string& policy : names) {
        for (const auto& keywords : fx.queries) {
          QueryOptions options;
          options.max_size_z = 6;
          XK_ASSERT_OK_AND_ASSIGN(PreparedQuery query,
                                  xk->Prepare(keywords, policy, options));
          const bool use_indexes = query.exec_options.use_indexes;
          BloomCache cache(use_indexes);
          for (const opt::CtssnPlan& plan : query.plans) {
            for (size_t i = 1; i < plan.query.steps.size(); ++i) {
              const exec::JoinStep& step = plan.query.steps[i];
              const bool filtered =
                  !step.in_filters.empty() || !step.const_filters.empty();
              for (const auto& [column, ref] : step.eq) {
                (void)ref;
                const BloomBuild path = ChooseBloomBuild(step, use_indexes);
                ++chosen[path];
                const std::string where =
                    fx.name + (backend == storage::StorageBackend::kDisk ? "/disk/"
                                                                         : "/memory/") +
                    policy + " " + keywords[0] + "," + keywords[1] + " " +
                    step.table->name() + " col " + std::to_string(column) + " " +
                    PathName(path);
                EXPECT_EQ(path == BloomBuild::kMemo, !filtered) << where;
                if (!use_indexes) EXPECT_NE(path, BloomBuild::kProbe) << where;

                std::unique_ptr<BloomFilter> scan =
                    BuildStepBloom(step, column, BloomBuild::kScan, nullptr);
                const BloomFilter* got = cache.GetOrBuild(
                    step, plan.step_signatures[i], column, nullptr);
                ASSERT_NE(got, nullptr) << where;
                EXPECT_TRUE(*got == *scan) << where;
                if (path == BloomBuild::kMemo) {
                  EXPECT_EQ(got, &step.table->ColumnBloom(column)) << where;
                }
                const bool indexed =
                    step.table->IsClustered() || step.table->HasAnyIndex();
                if (use_indexes && indexed && !step.in_filters.empty()) {
                  std::unique_ptr<BloomFilter> probe =
                      BuildStepBloom(step, column, BloomBuild::kProbe, nullptr);
                  EXPECT_TRUE(*probe == *scan) << where;
                  ++forced_probes;
                }
              }
            }
          }
        }
      }
      EXPECT_GT(chosen[BloomBuild::kMemo], 0) << fx.name;
      EXPECT_GT(chosen[BloomBuild::kScan], 0) << fx.name;
      EXPECT_GT(forced_probes, 0) << fx.name;
      if (fx.name == "dblp") EXPECT_GT(chosen[BloomBuild::kProbe], 0);
    }
  }
}

// Steps without local filters read the table's memo: a second query whose
// only Bloom-using steps (every step after the first) are unfiltered builds
// nothing, while the first query on a fresh load counts the memo builds it
// triggered. The two runs skip the same probes and answer identically. The
// unfiltered query is a prepared query with the keyword sets of its later
// steps dropped.
TEST_F(BloomBuildTest, MemoizedStepsAddNoBuildRows) {
  for (storage::StorageBackend backend :
       {storage::StorageBackend::kMemory, storage::StorageBackend::kDisk}) {
    storage::StorageOptions storage_options;
    storage_options.backend = backend;
    storage_options.buffer_pool_bytes = 256 << 10;
    XK_ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<XKeyword> xk,
        XKeyword::Load(&dblp_->graph(), &dblp_->schema(), &dblp_->tss(),
                       storage_options));
    for (const decomp::Decomposition& d : *dblp_policies_) {
      if (d.name == "XKeyword") XK_ASSERT_OK(xk->AddDecomposition(d));
    }

    QueryOptions options;
    options.max_size_z = 6;
    options.per_network_k = 20;
    options.enable_semijoin_pruning = true;
    XK_ASSERT_OK_AND_ASSIGN(PreparedQuery query,
                            xk->Prepare({"ullman", "widom"}, "XKeyword", options));
    size_t joins = 0;
    for (opt::CtssnPlan& plan : query.plans) {
      for (size_t i = 1; i < plan.query.steps.size(); ++i) {
        plan.query.steps[i].in_filters.clear();
        plan.query.steps[i].const_filters.clear();
        joins += plan.query.steps[i].eq.size();
      }
    }
    ASSERT_GT(joins, 0u);

    TopKExecutor executor;
    ExecutionStats first, second;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<present::Mtton> first_results,
                            executor.Run(query, options, &first));
    XK_ASSERT_OK_AND_ASSIGN(std::vector<present::Mtton> second_results,
                            executor.Run(query, options, &second));
    EXPECT_GT(first.bloom_build_rows, 0u);
    EXPECT_EQ(second.bloom_build_rows, 0u);
    EXPECT_EQ(second.probes.bloom_skips, first.probes.bloom_skips);
    EXPECT_EQ(second_results, first_results);
  }
}

// Eight threads race the first ColumnBloom call on one column: exactly one
// builds (the rows reported across all callers sum to one scan), all get the
// same filter, it equals a hand-built one, and MemoryBytes counts it.
TEST(ColumnBloomTest, RacingFirstCallsShareOneBuild) {
  storage::Table table("T", {"a", "b"});
  for (storage::ObjectId i = 0; i < 20000; ++i) {
    XK_ASSERT_OK(table.Append(storage::Tuple{i, (i * 7) % 1009}));
  }
  table.Freeze();
  BloomFilter expected(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    expected.Add(table.At(static_cast<storage::RowId>(r), 1));
  }
  const size_t bytes_before = table.MemoryBytes();

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<uint64_t> rows{0};
  std::vector<const BloomFilter*> got(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      uint64_t mine = 0;
      got[static_cast<size_t>(t)] = &table.ColumnBloom(1, &mine);
      rows.fetch_add(mine);
    });
  }
  for (std::thread& th : threads) th.join();

  for (const BloomFilter* g : got) EXPECT_EQ(g, got[0]);
  EXPECT_TRUE(*got[0] == expected);
  EXPECT_EQ(rows.load(), table.NumRows());
  EXPECT_EQ(table.MemoryBytes(), bytes_before + got[0]->MemoryBytes());

  uint64_t again = 0;
  EXPECT_EQ(&table.ColumnBloom(1, &again), got[0]);
  EXPECT_EQ(again, 0u);
  EXPECT_FALSE(table.ColumnBloom(0) == *got[0]);  // columns keep apart memos
}

}  // namespace
}  // namespace xk::engine
