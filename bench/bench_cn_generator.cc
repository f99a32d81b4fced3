// Ablation A2 — candidate network generation (the DISCOVER-extension of
// Section 4): throughput and network counts versus the size bound Z and the
// number of keywords, on the DBLP schema, plus the CN template cache's miss
// and hit cost at the same points.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cn/cn_generator.h"
#include "cn/cn_template_cache.h"
#include "cn/ctssn.h"

namespace {

/// Per-keyword schema nodes: author names, and author-or-title for every
/// second keyword.
std::vector<std::vector<xk::schema::SchemaNodeId>> KeywordNodes(
    const xk::schema::SchemaGraph& schema, int keywords) {
  xk::schema::SchemaNodeId author = *schema.NodeByUniqueLabel("author");
  xk::schema::SchemaNodeId title = *schema.NodeByUniqueLabel("title");
  std::vector<std::vector<xk::schema::SchemaNodeId>> keyword_nodes;
  for (int k = 0; k < keywords; ++k) {
    keyword_nodes.push_back(k % 2 == 0 ? std::vector<xk::schema::SchemaNodeId>{author}
                                       : std::vector<xk::schema::SchemaNodeId>{
                                             author, title});
  }
  return keyword_nodes;
}

void BM_Generate(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const int z = static_cast<int>(state.range(0));
  const xk::schema::SchemaGraph& schema = fixture.db().schema();
  const auto keyword_nodes = KeywordNodes(schema, static_cast<int>(state.range(1)));

  xk::cn::CnGeneratorOptions options;
  options.max_size = z;
  xk::cn::CnGenerator generator(&schema, options);

  size_t networks = 0;
  for (auto _ : state) {
    auto cns = generator.Generate(keyword_nodes);
    benchmark::DoNotOptimize(cns);
    networks = cns.ok() ? cns->size() : 0;
  }
  state.counters["networks"] = benchmark::Counter(static_cast<double>(networks));
}

// The CN template cache that XKeyword::Prepare draws from. A miss pays
// generation + reduction + the insert into an empty cache; a hit is the
// lookup alone (Prepare then copies the template).
void BM_TemplateCacheMiss(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const int z = static_cast<int>(state.range(0));
  const auto keyword_nodes =
      KeywordNodes(fixture.db().schema(), static_cast<int>(state.range(1)));
  size_t networks = 0;
  for (auto _ : state) {
    xk::cn::CnTemplateCache cache(&fixture.db().schema(), &fixture.db().tss());
    auto templ = cache.Get(keyword_nodes, z);
    XK_CHECK(templ.ok());
    networks = (*templ)->networks.size();
  }
  state.counters["networks"] = benchmark::Counter(static_cast<double>(networks));
}

void BM_TemplateCacheHit(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const int z = static_cast<int>(state.range(0));
  const auto keyword_nodes =
      KeywordNodes(fixture.db().schema(), static_cast<int>(state.range(1)));
  xk::cn::CnTemplateCache cache(&fixture.db().schema(), &fixture.db().tss());
  XK_CHECK(cache.Get(keyword_nodes, z).ok());
  size_t networks = 0;
  for (auto _ : state) {
    auto templ = cache.Get(keyword_nodes, z);
    benchmark::DoNotOptimize(templ);
    networks = (*templ)->networks.size();
  }
  const xk::cn::CnTemplateCache::Stats stats = cache.stats();
  state.counters["networks"] = benchmark::Counter(static_cast<double>(networks));
  state.counters["template_bytes"] =
      benchmark::Counter(static_cast<double>(stats.bytes));
  XK_CHECK(stats.misses == 1);
}

void BM_Reduce(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const xk::schema::SchemaGraph& schema = fixture.db().schema();
  xk::schema::SchemaNodeId author = *schema.NodeByUniqueLabel("author");
  xk::cn::CnGeneratorOptions options;
  options.max_size = static_cast<int>(state.range(0));
  xk::cn::CnGenerator generator(&schema, options);
  auto cns = generator.Generate({{author}, {author}});
  XK_CHECK(cns.ok());

  for (auto _ : state) {
    for (const xk::cn::CandidateNetwork& cn : *cns) {
      auto reduced = xk::cn::ReduceToCtssn(cn, schema, fixture.db().tss());
      benchmark::DoNotOptimize(reduced);
    }
  }
  state.counters["networks"] = benchmark::Counter(static_cast<double>(cns->size()));
}

}  // namespace

BENCHMARK(BM_Generate)
    ->ArgNames({"Z", "keywords"})
    ->Args({4, 2})
    ->Args({6, 2})
    ->Args({8, 2})
    ->Args({4, 3})
    ->Args({6, 3})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TemplateCacheMiss)
    ->ArgNames({"Z", "keywords"})
    ->Args({4, 2})
    ->Args({6, 2})
    ->Args({6, 3})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TemplateCacheHit)
    ->ArgNames({"Z", "keywords"})
    ->Args({4, 2})
    ->Args({6, 2})
    ->Args({6, 3})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_Reduce)->ArgName("Z")->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return xk::bench::RunBenchMain("cn_generator", argc, argv);
}
