// Copyright (c) the XKeyword authors.
//
// Candidate TSS networks (Section 4): "we reduce the candidate networks to
// TSS networks ... The unique TSS network that corresponds to a candidate
// network is called candidate TSS network (CTSSN)." Connection relations
// store target-object ids only, so plans are built against CTSSNs; scores
// stay measured in schema-graph edges (the originating CN's size).

#ifndef XK_CN_CTSSN_H_
#define XK_CN_CTSSN_H_

#include <string>
#include <vector>

#include "cn/candidate_network.h"
#include "schema/tss_tree.h"

namespace xk::cn {

/// A keyword restriction on a CTSSN occurrence: T^{k,S} — the target object
/// must contain query keyword `keyword` inside a member node of type
/// `schema_node` (node ids matter when the same TSS holds several keywords).
struct CtssnKeyword {
  int keyword;
  schema::SchemaNodeId schema_node;

  bool operator==(const CtssnKeyword&) const = default;
};

/// A candidate TSS network.
struct Ctssn {
  schema::TssTree tree;
  /// Per tree occurrence, the keyword restrictions on it.
  std::vector<std::vector<CtssnKeyword>> node_keywords;
  /// Size of the originating candidate network — the score of every MTTON
  /// this network produces.
  int cn_size = 0;

  bool operator==(const Ctssn&) const = default;

  int num_nodes() const { return tree.num_nodes(); }
  bool IsFree(int node) const {
    return node_keywords[static_cast<size_t>(node)].empty();
  }

  std::string ToString(const schema::TssGraph& tss) const;
};

/// Reduces a candidate network to its (unique) CTSSN. Fails only on CN
/// shapes that cannot arise from the generator (e.g. a dummy schema node
/// acting as a Steiner point of three segments, which no path-shaped TSS
/// edge can express).
Result<Ctssn> ReduceToCtssn(const CandidateNetwork& cn,
                            const schema::SchemaGraph& schema,
                            const schema::TssGraph& tss);

}  // namespace xk::cn

#endif  // XK_CN_CTSSN_H_
