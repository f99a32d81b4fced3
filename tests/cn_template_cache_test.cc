// Tests for the CN template cache (cn/cn_template_cache.h) and its use in
// XKeyword::Prepare: the cache is bounded and keyword-order sensitive, never
// stores errors, and the networks and CTSSNs Prepare returns — on the miss
// that fills an entry and on every later hit — equal the direct
// CnGenerator::Generate + ReduceToCtssn output. Answers from a warm engine,
// single or sharded, are byte-identical to those of a fresh engine, also when
// eight threads prepare overlapping signatures at once.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cn/cn_generator.h"
#include "cn/cn_template_cache.h"
#include "datagen/dblp_gen.h"
#include "decomp/decomposition.h"
#include "engine/sharded_engine.h"
#include "engine/xkeyword.h"
#include "test_util.h"

namespace xk {
namespace {

using cn::CnTemplate;
using cn::CnTemplateCache;
using engine::QueryRequest;
using engine::QueryResponse;
using engine::XKeyword;
using schema::SchemaNodeId;

using KeywordNodes = std::vector<std::vector<SchemaNodeId>>;
using Bag = std::vector<std::string>;

/// The uncached reference: generation, then reduction keeping the networks
/// whose CTSSN exists.
CnTemplate Reference(const schema::SchemaGraph& schema,
                     const schema::TssGraph& tss, const KeywordNodes& nodes,
                     int z) {
  cn::CnGeneratorOptions options;
  options.max_size = z;
  auto networks = cn::CnGenerator(&schema, options).Generate(nodes);
  XK_CHECK(networks.ok());
  CnTemplate out;
  for (cn::CandidateNetwork& network : *networks) {
    auto reduced = cn::ReduceToCtssn(network, schema, tss);
    if (!reduced.ok()) continue;
    out.networks.push_back(std::move(network));
    out.ctssns.push_back(reduced.MoveValueUnsafe());
  }
  return out;
}

KeywordNodes NodesOf(const XKeyword& xk, const Bag& bag) {
  KeywordNodes nodes;
  for (const std::string& k : bag) {
    nodes.push_back(xk.master_index().SchemaNodesContaining(k));
  }
  return nodes;
}

std::unique_ptr<datagen::DblpDatabase> MakeDblp() {
  datagen::DblpConfig config;
  config.num_conferences = 3;
  config.years_per_conference = 3;
  config.avg_papers_per_year = 8;
  config.avg_citations_per_paper = 4.0;
  config.author_vocab = 30;
  config.title_vocab = 30;
  config.seed = 2003;
  return datagen::DblpDatabase::Generate(config).MoveValueUnsafe();
}

/// The answer bytes that must agree: results, completeness, status code.
void ExpectSameAnswer(const QueryResponse& got, const QueryResponse& want,
                      const std::string& what) {
  EXPECT_EQ(got.status.code(), want.status.code()) << what;
  EXPECT_EQ(got.completeness, want.completeness) << what;
  EXPECT_EQ(got.mttons, want.mttons) << what;
}

std::string Describe(const Bag& bag, int z) {
  std::string out = "z=" + std::to_string(z) + " {";
  for (const std::string& k : bag) out += " " + k;
  return out + " }";
}

/// A loaded engine over one of the two fixtures, with its bags: 1–3
/// keywords, permuted orders, a duplicate keyword and a keyword found
/// nowhere.
struct Fixture {
  std::unique_ptr<datagen::DblpDatabase> dblp;
  std::unique_ptr<testing::Figure1Database> tpch;
  const xml::XmlGraph* graph = nullptr;
  const schema::SchemaGraph* schema = nullptr;
  const schema::TssGraph* tss = nullptr;
  int m = 0;  // XKeyword decomposition parameter M
  std::vector<Bag> bags;

  static Fixture Dblp() {
    Fixture f;
    f.dblp = MakeDblp();
    f.graph = &f.dblp->graph();
    f.schema = &f.dblp->schema();
    f.tss = &f.dblp->tss();
    f.m = 4;
    f.bags = {{"gray"},
              {"gray", "codd"},
              {"codd", "gray"},
              {"gray", "xml"},
              {"xml", "gray"},
              {"gray", "gray"},
              {"gray", "xml", "conf1"},
              {"conf1", "gray", "xml"},
              {"gray", "nosuchkeyword"}};
    return f;
  }

  static Fixture Tpch() {
    Fixture f;
    f.tpch = testing::MakeFigure1Database();
    f.graph = &f.tpch->graph;
    f.schema = &f.tpch->schema;
    f.tss = f.tpch->tss.get();
    f.m = 4;
    f.bags = {{"john"},
              {"mike"},
              {"john", "vcr"},
              {"vcr", "john"},
              {"john", "dvd"},
              {"dvd", "john"},
              {"vcr", "vcr"},
              {"john", "vcr", "mike"},
              {"mike", "john", "vcr"},
              {"john", "nosuchkeyword"}};
    return f;
  }

  decomp::Decomposition Decomposition() const {
    return decomp::MakeXKeyword(*tss, /*B=*/2, m).MoveValueUnsafe();
  }

  std::unique_ptr<XKeyword> LoadEngine() const {
    auto xk = XKeyword::Load(graph, schema, tss).MoveValueUnsafe();
    XK_CHECK(xk->AddDecomposition(Decomposition()).ok());
    return xk;
  }

  std::unique_ptr<engine::ShardedEngine> LoadSharded() const {
    auto sharded =
        engine::ShardedEngine::Load(graph, schema, tss).MoveValueUnsafe();
    XK_CHECK(sharded->AddDecomposition(Decomposition()).ok());
    return sharded;
  }
};

QueryRequest MakeRequest(const Bag& bag, int z, int num_shards = 1) {
  QueryRequest request;
  request.keywords = bag;
  request.decomposition = "XKeyword";
  request.options.max_size_z = z;
  request.options.num_shards = num_shards;
  return request;
}

constexpr int kZs[] = {2, 4, 6};

// --- The cache class -----------------------------------------------------

TEST(CnTemplateCacheTest, StaysUnderBudgetAndEvicts) {
  const Fixture f = Fixture::Dblp();
  const SchemaNodeId author = *f.schema->NodeByUniqueLabel("author");
  const SchemaNodeId title = *f.schema->NodeByUniqueLabel("title");
  std::vector<std::pair<KeywordNodes, int>> signatures;
  for (int z = 1; z <= 5; ++z) {
    signatures.push_back({{{author}}, z});
    signatures.push_back({{{title}}, z});
    signatures.push_back({{{author}, {author}}, z});
    signatures.push_back({{{author}, {title}}, z});
    signatures.push_back({{{title}, {author}}, z});
  }
  // Size the budget from the entries themselves: every entry fits, but all
  // of them together do not.
  size_t max_entry = 0;
  size_t total = 0;
  for (const auto& [nodes, z] : signatures) {
    CnTemplateCache probe(f.schema, f.tss);
    XK_ASSERT_OK(probe.Get(nodes, z).status());
    max_entry = std::max(max_entry, probe.stats().bytes);
    total += probe.stats().bytes;
  }
  const size_t budget = 2 * max_entry;
  ASSERT_LT(budget, total);

  CnTemplateCache cache(f.schema, f.tss, budget, /*num_shards=*/1);
  for (const auto& [nodes, z] : signatures) {
    XK_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const CnTemplate> templ,
                            cache.Get(nodes, z));
    const CnTemplate want = Reference(*f.schema, *f.tss, nodes, z);
    EXPECT_EQ(templ->networks, want.networks);
    EXPECT_EQ(templ->ctssns, want.ctssns);
    EXPECT_LE(cache.stats().bytes, budget);
  }
  const CnTemplateCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, signatures.size());
  EXPECT_EQ(stats.misses, signatures.size());
  EXPECT_LE(stats.bytes, budget);
}

TEST(CnTemplateCacheTest, HitReturnsTheSharedEntry) {
  const Fixture f = Fixture::Dblp();
  const SchemaNodeId author = *f.schema->NodeByUniqueLabel("author");
  CnTemplateCache cache(f.schema, f.tss);
  XK_ASSERT_OK_AND_ASSIGN(auto first, cache.Get({{author}, {author}}, 4));
  XK_ASSERT_OK_AND_ASSIGN(auto second, cache.Get({{author}, {author}}, 4));
  EXPECT_EQ(first.get(), second.get());
  const CnTemplateCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(CnTemplateCacheTest, KeyIsKeywordOrderSensitive) {
  const Fixture f = Fixture::Dblp();
  const SchemaNodeId author = *f.schema->NodeByUniqueLabel("author");
  const SchemaNodeId title = *f.schema->NodeByUniqueLabel("title");
  CnTemplateCache cache(f.schema, f.tss);
  XK_ASSERT_OK_AND_ASSIGN(auto ab, cache.Get({{author}, {author, title}}, 4));
  XK_ASSERT_OK_AND_ASSIGN(auto ba, cache.Get({{author, title}, {author}}, 4));
  EXPECT_NE(ab.get(), ba.get());
  EXPECT_NE(ab->networks, ba->networks);  // annotations are positions
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CnTemplateCacheTest, ErrorsAreNotCached) {
  const Fixture f = Fixture::Dblp();
  CnTemplateCache cache(f.schema, f.tss);
  const SchemaNodeId bad = static_cast<SchemaNodeId>(f.schema->NumNodes() + 7);
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_FALSE(cache.Get({{bad}}, 4).ok());
    EXPECT_FALSE(cache.Get({}, 4).ok());  // no keywords
  }
  const CnTemplateCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

// --- Prepare against the direct generator --------------------------------

/// Prepares every bag at every Z twice and checks the networks and CTSSNs
/// against the uncached reference, and the cache counters against the set
/// of signatures seen so far.
void CheckPrepareMatchesGenerator(const Fixture& f) {
  auto xk = f.LoadEngine();
  std::set<std::pair<KeywordNodes, int>> seen;
  for (int z : kZs) {
    for (const Bag& bag : f.bags) {
      const std::string what = Describe(bag, z);
      const KeywordNodes nodes = NodesOf(*xk, bag);
      const CnTemplate want = Reference(*f.schema, *f.tss, nodes, z);
      engine::QueryOptions options;
      options.max_size_z = z;
      const bool is_new = seen.insert({nodes, z}).second;
      for (int call = 0; call < 2; ++call) {
        const CnTemplateCache::Stats before = xk->cn_template_stats();
        XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery q,
                                xk->Prepare(bag, "XKeyword", options));
        const CnTemplateCache::Stats after = xk->cn_template_stats();
        EXPECT_EQ(q.networks, want.networks) << what << " call " << call;
        EXPECT_EQ(q.ctssns, want.ctssns) << what << " call " << call;
        EXPECT_EQ(q.plans.size(), q.ctssns.size()) << what;
        const bool miss = call == 0 && is_new;
        EXPECT_EQ(after.misses - before.misses, miss ? 1u : 0u) << what;
        EXPECT_EQ(after.hits - before.hits, miss ? 0u : 1u) << what;
      }
    }
  }
  const CnTemplateCache::Stats stats = xk->cn_template_stats();
  EXPECT_EQ(stats.entries, seen.size());
  EXPECT_EQ(stats.misses, seen.size());
  // Some bags share a signature (a permuted bag of same-node keywords, or
  // two keywords on one node), so there are fewer entries than bags.
  EXPECT_LT(seen.size(), f.bags.size() * std::size(kZs));
}

TEST(CnTemplatePrepareTest, DblpMatchesGeneratorOnMissAndHit) {
  CheckPrepareMatchesGenerator(Fixture::Dblp());
}

TEST(CnTemplatePrepareTest, TpchMatchesGeneratorOnMissAndHit) {
  CheckPrepareMatchesGenerator(Fixture::Tpch());
}

// --- Warm answers against fresh ones -------------------------------------

/// For each bag, a fresh engine answers at every Z (each a template miss);
/// a warm single engine and a warm sharded engine, having answered every
/// bag once already, must answer byte-identically.
void CheckWarmAnswersMatchFresh(const Fixture& f) {
  auto warm = f.LoadEngine();
  auto sharded = f.LoadSharded();
  for (int round = 0; round < 2; ++round) {
    for (const Bag& bag : f.bags) {
      for (int z : kZs) {
        XK_ASSERT_OK(warm->Run(MakeRequest(bag, z)).status());
        XK_ASSERT_OK(sharded->Run(MakeRequest(bag, z, 4)).status());
      }
    }
  }
  EXPECT_GT(warm->cn_template_stats().hits, 0u);
  EXPECT_GT(sharded->inner().cn_template_stats().hits, 0u);

  for (const Bag& bag : f.bags) {
    auto fresh = f.LoadEngine();
    for (int z : kZs) {
      const std::string what = Describe(bag, z);
      XK_ASSERT_OK_AND_ASSIGN(QueryResponse want,
                              fresh->Run(MakeRequest(bag, z)));
      XK_ASSERT_OK_AND_ASSIGN(QueryResponse got, warm->Run(MakeRequest(bag, z)));
      ExpectSameAnswer(got, want, what + " warm");
      XK_ASSERT_OK_AND_ASSIGN(QueryResponse scattered,
                              sharded->Run(MakeRequest(bag, z, 4)));
      ExpectSameAnswer(scattered, want, what + " sharded");
    }
    // Every Z is its own signature, so the fresh engine only missed.
    EXPECT_EQ(fresh->cn_template_stats().hits, 0u);
    EXPECT_EQ(fresh->cn_template_stats().misses, std::size(kZs));
  }
}

TEST(CnTemplateRunTest, DblpWarmAnswersMatchFreshEngine) {
  CheckWarmAnswersMatchFresh(Fixture::Dblp());
}

TEST(CnTemplateRunTest, TpchWarmAnswersMatchFreshEngine) {
  CheckWarmAnswersMatchFresh(Fixture::Tpch());
}

// --- Concurrency ----------------------------------------------------------

TEST(CnTemplateConcurrencyTest, EightThreadsPrepareOverlappingSignatures) {
  const Fixture f = Fixture::Dblp();
  auto xk = f.LoadEngine();
  struct Case {
    Bag bag;
    int z;
    CnTemplate want;
  };
  std::vector<Case> cases;
  std::set<std::pair<KeywordNodes, int>> signatures;
  for (int z : {2, 4}) {
    for (const Bag& bag : f.bags) {
      const KeywordNodes nodes = NodesOf(*xk, bag);
      signatures.insert({nodes, z});
      cases.push_back({bag, z, Reference(*f.schema, *f.tss, nodes, z)});
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < cases.size(); ++i) {
          // Each thread starts at a different case, so threads collide on
          // signatures both while they are missing and once cached.
          const Case& c = cases[(i + static_cast<size_t>(t)) % cases.size()];
          engine::QueryOptions options;
          options.max_size_z = c.z;
          auto q = xk->Prepare(c.bag, "XKeyword", options);
          if (!q.ok() || q->networks != c.want.networks ||
              q->ctssns != c.want.ctssns) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  const CnTemplateCache::Stats stats = xk->cn_template_stats();
  EXPECT_EQ(stats.entries, signatures.size());
  EXPECT_GE(stats.misses, signatures.size());
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * cases.size());
}

}  // namespace
}  // namespace xk
