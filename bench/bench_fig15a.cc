// Figure 15(a): average time to output the top-K results of each candidate
// network, per decomposition. The paper's series: XKeyword fastest, then
// MinClust; Complete slower than MinClust despite fewer joins (huge MVD
// relations); non-clustered decompositions poor (MinNClustNIndx is an order
// of magnitude worse still and omitted there, included here for reference).
//
// Workload: DBLP, 2-keyword author queries, Z = 8 (paper Section 7).
//
// Two engine-side series beyond the paper's figure:
//   Fig15aPar/*    — partitioned plans (T = num_threads, morsels of the
//                    step-0 driver rows in flight), byte-identical results
//                    to T = 1;
//   Fig15aPrune/*  — semi-join Bloom pruning on/off (rows_scanned drops,
//                    bloom_skips counts rejected probes).
//
// And the layer under pruning, the per-query semi-join Bloom builds:
//   BM_BloomBuildScan  — every filter by one filtered full scan (the build
//                        before the table memo and the probe build);
//   BM_BloomBuildMemo  — unfiltered steps from the table's column memo,
//                        filtered steps still scanned;
//   BM_BloomBuildProbe — the engine's build: the memo, plus index probes of
//                        the smallest keyword set where ChooseBloomBuild
//                        picks them.
// All three build bit-identical filters; build_rows/query is the rows the
// builds touch (engine counter bloom_build_rows).

#include <benchmark/benchmark.h>

#include <set>

#include "bench_util.h"
#include "engine/topk_executor.h"

namespace {

struct TopKSetup {
  std::string decomposition;
  int num_threads = 1;
  bool semijoin_pruning = true;
  bool vectorized = true;
};

void BM_TopK(benchmark::State& state, const TopKSetup& setup, size_t k,
             const std::string& label) {
  auto& fixture = xk::bench::DblpBench::Get();
  const auto& prepared = fixture.Prepared(setup.decomposition, /*z=*/8);

  xk::engine::QueryOptions options;
  options.max_size_z = 8;
  // The paper's setting: CTSSN sizes up to M = f(Z) = 6. (Our reduction can
  // emit a few size-7 shapes from Z = 8 networks; they explode fruitlessly.)
  options.max_network_size = 6;
  options.per_network_k = k;
  options.num_threads = setup.num_threads;
  options.enable_semijoin_pruning = setup.semijoin_pruning;
  options.vectorized = setup.vectorized;

  uint64_t results = 0;
  uint64_t probes = 0;
  uint64_t rows_scanned = 0;
  uint64_t bloom_skips = 0;
  for (auto _ : state) {
    for (const xk::engine::PreparedQuery& q : prepared) {
      xk::engine::ExecutionStats stats;
      xk::engine::TopKExecutor executor;
      auto r = executor.Run(q, options, &stats);
      benchmark::DoNotOptimize(r);
      results += stats.results;
      probes += stats.probes.probes;
      rows_scanned += stats.probes.rows_scanned;
      bloom_skips += stats.probes.bloom_skips;
    }
  }
  const double per_query =
      static_cast<double>(state.iterations() * prepared.size());
  state.counters["results/query"] =
      benchmark::Counter(static_cast<double>(results) / per_query);
  state.counters["probes/query"] =
      benchmark::Counter(static_cast<double>(probes) / per_query);
  state.counters["rows_scanned"] =
      benchmark::Counter(static_cast<double>(rows_scanned) / per_query);
  state.counters["bloom_skips"] =
      benchmark::Counter(static_cast<double>(bloom_skips) / per_query);
  state.SetLabel(label);
}

enum class BloomBuildSeries { kScan, kMemo, kProbe };

void BM_BloomBuild(benchmark::State& state, BloomBuildSeries series) {
  using xk::engine::BloomBuild;
  auto& fixture = xk::bench::DblpBench::Get();
  const auto& prepared = fixture.Prepared("XKeyword", /*z=*/8);

  // The filters one query builds: one per probed column of every step >= 1,
  // once per step signature — what the engine's per-query BloomCache asks for.
  struct Build {
    const xk::exec::JoinStep* step;
    int column;
    BloomBuild path;
  };
  std::vector<std::vector<Build>> query_builds;
  for (const xk::engine::PreparedQuery& q : prepared) {
    std::vector<Build>& builds = query_builds.emplace_back();
    std::set<std::string> seen;
    for (const xk::opt::CtssnPlan& plan : q.plans) {
      for (size_t i = 1; i < plan.query.steps.size(); ++i) {
        const xk::exec::JoinStep& step = plan.query.steps[i];
        for (const auto& [column, ref] : step.eq) {
          (void)ref;
          if (!seen.insert(plan.step_signatures[i] + "#" + std::to_string(column))
                   .second) {
            continue;
          }
          BloomBuild path =
              xk::engine::ChooseBloomBuild(step, q.exec_options.use_indexes);
          if (series == BloomBuildSeries::kScan ||
              (series == BloomBuildSeries::kMemo && path == BloomBuild::kProbe)) {
            path = BloomBuild::kScan;
          }
          // Steady state: the one-time memo build is not a per-query cost.
          if (path == BloomBuild::kMemo) (void)step.table->ColumnBloom(column);
          builds.push_back({&step, column, path});
        }
      }
    }
  }

  uint64_t rows = 0;
  uint64_t filters = 0;
  for (auto _ : state) {
    for (const std::vector<Build>& builds : query_builds) {
      for (const Build& b : builds) {
        if (b.path == BloomBuild::kMemo) {
          benchmark::DoNotOptimize(&b.step->table->ColumnBloom(b.column, &rows));
        } else {
          xk::exec::ProbeStats stats;
          auto filter = xk::engine::BuildStepBloom(*b.step, b.column, b.path, &stats);
          benchmark::DoNotOptimize(filter);
          rows += stats.rows_scanned;
        }
        ++filters;
      }
    }
  }
  const double per_query =
      static_cast<double>(state.iterations() * prepared.size());
  state.counters["build_rows/query"] =
      benchmark::Counter(static_cast<double>(rows) / per_query);
  state.counters["filters/query"] =
      benchmark::Counter(static_cast<double>(filters) / per_query);
}

void RegisterAll() {
  // MinNClustNIndx is omitted exactly as in the paper ("the results for
  // MinNClustNIndx are not shown, because they are worse by an order of
  // magnitude"); bench_fig15b includes it where it wins.
  for (const char* decomposition :
       {"XKeyword", "Complete", "MinClust", "MinNClustIndx"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("Fig15a/") + decomposition).c_str(),
        [decomposition](benchmark::State& state) {
          BM_TopK(state, TopKSetup{decomposition},
                  static_cast<size_t>(state.range(0)), decomposition);
        });
    b->ArgName("K");
    for (int k : {1, 5, 10, 20, 50, 100}) b->Arg(k);
    b->Unit(benchmark::kMillisecond);
    b->Iterations(3);
  }

  // Partitioned plans on T runners, deep per-network result streams
  // (big K keeps every plan busy long enough for the fan-out to pay off).
  for (const char* decomposition : {"MinClust", "MinNClustIndx"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("Fig15aPar/") + decomposition).c_str(),
        [decomposition](benchmark::State& state) {
          TopKSetup setup{decomposition};
          setup.num_threads = static_cast<int>(state.range(0));
          BM_TopK(state, setup, /*k=*/5000, decomposition);
        });
    b->ArgName("T");
    for (int t : {1, 2, 4}) b->Arg(t);
    b->Unit(benchmark::kMillisecond);
    b->Iterations(2);
  }

  // Vectorized batch execution ablation at K = 100: V:0 is the row-at-a-time
  // engine, V:1 the RowBlock path (results byte-identical).
  for (const char* decomposition : {"MinClust", "MinNClustIndx"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("Fig15aVec/") + decomposition).c_str(),
        [decomposition](benchmark::State& state) {
          TopKSetup setup{decomposition};
          setup.vectorized = state.range(0) != 0;
          BM_TopK(state, setup, /*k=*/100,
                  setup.vectorized ? "block" : "row");
        });
    b->ArgName("V");
    b->Arg(0);
    b->Arg(1);
    b->Unit(benchmark::kMillisecond);
    b->Iterations(3);
  }

  // Semi-join Bloom pruning ablation at the paper's K = 100 point.
  for (bool prune : {false, true}) {
    auto* b = benchmark::RegisterBenchmark(
        prune ? "Fig15aPrune/on" : "Fig15aPrune/off",
        [prune](benchmark::State& state) {
          TopKSetup setup{"MinClust"};
          setup.semijoin_pruning = prune;
          BM_TopK(state, setup, /*k=*/100, prune ? "pruned" : "unpruned");
        });
    b->Unit(benchmark::kMillisecond);
    b->Iterations(3);
  }

  for (const auto& [name, series] :
       {std::pair{"BM_BloomBuildScan/XKeyword", BloomBuildSeries::kScan},
        std::pair{"BM_BloomBuildMemo/XKeyword", BloomBuildSeries::kMemo},
        std::pair{"BM_BloomBuildProbe/XKeyword", BloomBuildSeries::kProbe}}) {
    auto* b = benchmark::RegisterBenchmark(
        name, [series](benchmark::State& state) { BM_BloomBuild(state, series); });
    b->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return xk::bench::RunBenchMain("fig15a", argc, argv);
}
