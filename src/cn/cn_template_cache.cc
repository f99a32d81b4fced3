#include "cn/cn_template_cache.h"

#include <utility>

#include "cn/cn_generator.h"
#include "common/logging.h"

namespace xk::cn {

namespace {

/// "z=6|3,5;7;" — Z, then each keyword's schema-node list in query order.
std::string TemplateKey(
    const std::vector<std::vector<schema::SchemaNodeId>>& keyword_schema_nodes,
    int max_size_z) {
  std::string key = "z=" + std::to_string(max_size_z) + '|';
  for (const std::vector<schema::SchemaNodeId>& nodes : keyword_schema_nodes) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (i > 0) key += ',';
      key += std::to_string(nodes[i]);
    }
    key += ';';
  }
  return key;
}

/// Byte charge of one entry: payload, key and LRU bookkeeping.
size_t EstimateBytes(const std::string& key, const CnTemplate& value) {
  // The key is held twice: in the LRU list entry and in the hash map.
  size_t bytes = sizeof(CnTemplate) + 2 * key.capacity();
  bytes += value.networks.capacity() * sizeof(CandidateNetwork);
  for (const CandidateNetwork& network : value.networks) {
    bytes += network.nodes.capacity() * sizeof(CnNode);
    bytes += network.edges.capacity() * sizeof(CnEdge);
    for (const CnNode& node : network.nodes) {
      bytes += node.keywords.capacity() * sizeof(int);
    }
  }
  bytes += value.ctssns.capacity() * sizeof(Ctssn);
  for (const Ctssn& ctssn : value.ctssns) {
    bytes += ctssn.tree.nodes.capacity() * sizeof(schema::TssId);
    bytes += ctssn.tree.edges.capacity() * sizeof(schema::TssTreeEdge);
    bytes += ctssn.node_keywords.capacity() * sizeof(std::vector<CtssnKeyword>);
    for (const std::vector<CtssnKeyword>& kws : ctssn.node_keywords) {
      bytes += kws.capacity() * sizeof(CtssnKeyword);
    }
  }
  // LRU bookkeeping: list node + hash map slot + shared_ptr control block.
  bytes += 6 * sizeof(void*) + sizeof(size_t);
  return bytes;
}

}  // namespace

CnTemplateCache::CnTemplateCache(const schema::SchemaGraph* schema,
                                 const schema::TssGraph* tss, size_t max_bytes,
                                 size_t num_shards)
    : schema_(schema), tss_(tss), cache_(num_shards, max_bytes) {}

Result<std::shared_ptr<const CnTemplate>> CnTemplateCache::Get(
    const std::vector<std::vector<schema::SchemaNodeId>>& keyword_schema_nodes,
    int max_size_z) {
  const std::string key = TemplateKey(keyword_schema_nodes, max_size_z);
  if (std::shared_ptr<const CnTemplate> cached = cache_.Get(key)) return cached;

  CnGeneratorOptions gen_options;
  gen_options.max_size = max_size_z;
  CnGenerator generator(schema_, gen_options);
  XK_ASSIGN_OR_RETURN(std::vector<CandidateNetwork> networks,
                      generator.Generate(keyword_schema_nodes));

  // Reduce each CN to its CTSSN; skip shapes the TSS graph cannot express.
  auto value = std::make_shared<CnTemplate>();
  for (CandidateNetwork& network : networks) {
    Result<Ctssn> reduced = ReduceToCtssn(network, *schema_, *tss_);
    if (!reduced.ok()) {
      XK_LOG(Debug) << "skipping CN (" << reduced.status().ToString()
                    << "): " << network.ToString(*schema_);
      continue;
    }
    value->networks.push_back(std::move(network));
    value->ctssns.push_back(reduced.MoveValueUnsafe());
  }
  cache_.Put(key, value, EstimateBytes(key, *value));
  return std::shared_ptr<const CnTemplate>(std::move(value));
}

}  // namespace xk::cn
