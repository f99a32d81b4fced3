// Copyright (c) the XKeyword authors.
//
// CnTemplateCache: the candidate networks of a query, and their CTSSN
// reductions, cached across queries. Section 4 builds them from the schema
// graph alone, so they are a function of two inputs only: which schema
// nodes hold each query keyword (MasterIndex::SchemaNodesContaining), and
// the size bound Z. Queries on different keywords with the same schema-node
// lists (two author names, say) share one template.
//
// Key: Z plus the ordered per-keyword schema-node lists. Order matters: CN
// annotations are keyword positions, so {a, b} and {b, a} get different
// templates. There is no epoch: the schema and TSS graph are immutable for
// the life of an engine, and data reaches the template only through the
// schema-node lists, which are part of the key.
//
// Value: the (network, CTSSN) pairs that survived ReduceToCtssn, immutable
// and shared. Generator errors are not cached. Plans are not cached either:
// their cost depends on each keyword's filter cardinalities.
//
// Storage: a ShardedLruCache with a byte budget, so concurrent Prepare calls
// contend only per shard and memory stays bounded.

#ifndef XK_CN_CN_TEMPLATE_CACHE_H_
#define XK_CN_CN_TEMPLATE_CACHE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cn/candidate_network.h"
#include "cn/ctssn.h"
#include "common/lru_cache.h"
#include "common/result.h"
#include "schema/tss_graph.h"

namespace xk::cn {

/// The schema-level part of a prepared query.
struct CnTemplate {
  std::vector<CandidateNetwork> networks;
  std::vector<Ctssn> ctssns;  // parallel to networks
};

class CnTemplateCache {
 public:
  using Stats = ShardedLruCache<std::string, CnTemplate>::Stats;

  static constexpr size_t kDefaultBudgetBytes = size_t{16} << 20;
  static constexpr size_t kDefaultShards = 4;

  /// `schema` and `tss` must outlive the cache.
  CnTemplateCache(const schema::SchemaGraph* schema, const schema::TssGraph* tss,
                  size_t max_bytes = kDefaultBudgetBytes,
                  size_t num_shards = kDefaultShards);

  /// The template for `keyword_schema_nodes` (one list per query keyword)
  /// under size bound `max_size_z`: cached, or generated, reduced and cached
  /// on a miss. Concurrent misses on one key may each generate; the results
  /// are identical.
  Result<std::shared_ptr<const CnTemplate>> Get(
      const std::vector<std::vector<schema::SchemaNodeId>>& keyword_schema_nodes,
      int max_size_z);

  Stats stats() const { return cache_.GetStats(); }

 private:
  const schema::SchemaGraph* schema_;
  const schema::TssGraph* tss_;
  ShardedLruCache<std::string, CnTemplate> cache_;
};

}  // namespace xk::cn

#endif  // XK_CN_CN_TEMPLATE_CACHE_H_
