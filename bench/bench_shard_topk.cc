// Sharded scatter-gather top-k bench: the standard DBLP author workload run
// through engine::ShardedEngine (8 physical slices). Reported per series
// point (and in BENCH_shard_topk.json):
//
//   qps               — queries per wall-clock second
//   rows_per_query    — probe rows examined per query (scan + join work)
//   prunes_per_query  — step-0 driver rows the gather watermark proved
//                       irrelevant, so the shards never evaluated them
//   early_stops       — shard loops that terminated before exhausting their
//                       driver slice, per query
//
// Series:
//   ShardTopK/S:{1,2,4,8} — the shard-count scaling curve at per_network_k =
//                           100 (enumeration-heavy, so the partitions have
//                           parallel work to win on), with num_threads = S:
//                           every slice group of a plan in flight at once.
//                           S:1 is the single-engine serial baseline the
//                           others' qps is compared against.
//
// A summary table after the runs prints the speedup of each shard count over
// S:1 and appends it to the JSON sidecar. (The watermark is always on; its
// last on/off A/B is EXPERIMENTS.md A9.)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/sharded_engine.h"

namespace {

using xk::bench::BenchJsonWriter;
using xk::bench::DblpBench;
using xk::bench::JsonTeeReporter;
using xk::bench::ShardedDblpBench;
using xk::engine::QueryMode;
using xk::engine::QueryRequest;
using xk::engine::QueryResponse;

QueryRequest MakeRequest(const std::vector<std::string>& keywords,
                         int num_shards, size_t per_network_k) {
  QueryRequest request;
  request.keywords = keywords;
  request.decomposition = "XKeyword";
  request.mode = QueryMode::kTopK;
  request.options.max_size_z = 6;
  request.options.per_network_k = per_network_k;
  // One runner per slice group; S:1 delegates to the single engine, which
  // runs serially at one runner.
  request.options.num_threads = num_shards;
  request.options.num_shards = num_shards;
  return request;
}

struct Point {
  double qps = 0;
  double rows_per_query = 0;
};
std::map<int, Point> g_scaling;  // shard count -> point

void BM_ShardTopK(benchmark::State& state, int num_shards,
                  size_t per_network_k) {
  const auto& engine = ShardedDblpBench::Get().engine();
  const auto& queries = DblpBench::Get().queries();

  uint64_t executed = 0;
  uint64_t rows = 0, prunes = 0, early_stops = 0, results = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (const auto& q : queries) {
      auto response =
          engine.Run(MakeRequest(q, num_shards, per_network_k));
      XK_CHECK(response.ok());
      const QueryResponse& r = response.value();
      rows += r.stats.probes.rows_scanned;
      prunes += r.stats.shard_bound_prunes;
      early_stops += r.stats.shard_early_stops;
      results += r.stats.results;
      ++executed;
      benchmark::DoNotOptimize(r.mttons.size());
    }
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const double n = static_cast<double>(executed);
  state.counters["qps"] =
      benchmark::Counter(n, benchmark::Counter::kIsRate);
  state.counters["rows_per_query"] =
      benchmark::Counter(n > 0 ? static_cast<double>(rows) / n : 0);
  state.counters["prunes_per_query"] =
      benchmark::Counter(n > 0 ? static_cast<double>(prunes) / n : 0);
  state.counters["early_stops"] =
      benchmark::Counter(n > 0 ? static_cast<double>(early_stops) / n : 0);
  state.counters["results_per_query"] =
      benchmark::Counter(n > 0 ? static_cast<double>(results) / n : 0);

  // Wall-clock rates for the summary table (benchmark's own rate counters
  // cover the sidecar; the table compares arms, so one consistent clock
  // spanning each arm's full run is what matters).
  Point point;
  point.qps = seconds > 0 ? n / seconds : 0;
  point.rows_per_query = n > 0 ? static_cast<double>(rows) / n : 0;
  g_scaling[num_shards] = point;
}

void RegisterAll() {
  for (int shards : {1, 2, 4, 8}) {
    auto* b = benchmark::RegisterBenchmark(
        ("ShardTopK/S:" + std::to_string(shards)).c_str(),
        [shards](benchmark::State& state) {
          BM_ShardTopK(state, shards, /*per_network_k=*/100);
        });
    b->Unit(benchmark::kMillisecond);
    b->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchJsonWriter writer("shard_topk");
  JsonTeeReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Scaling summary: speedup of each shard count over the serial S:1 arm.
  if (g_scaling.count(1) != 0 && g_scaling[1].qps > 0) {
    std::printf("\nShard scaling — top-k throughput vs the serial engine:\n");
    std::printf("%-8s %14s %14s\n", "shards", "speedup", "rows/query");
    for (const auto& [shards, p] : g_scaling) {
      const double speedup = p.qps / g_scaling[1].qps;
      std::printf("%-8d %13.2fx %14.0f\n", shards, speedup, p.rows_per_query);
      writer.AddRecord("ShardScaling/S:" + std::to_string(shards), 0,
                       {{"speedup", speedup},
                        {"rows_per_query", p.rows_per_query}});
    }
  }
  writer.WriteFile();
  benchmark::Shutdown();
  return 0;
}
