// Copyright (c) the XKeyword authors.
//
// Candidate networks (Definition 4.1): schema node networks — uncycled graphs
// of schema-node occurrences joined along schema edges (the same schema node
// may appear in several roles) — that can produce an MTNN of the keyword
// query on some instance of the schema.
//
// Keyword annotations follow DISCOVER's exact-partition tuple-set semantics:
// the occurrence S^K stands for the nodes of type S containing every keyword
// of K and no other query keyword, so annotations across a network are
// disjoint and their union is the whole query.

#ifndef XK_CN_CANDIDATE_NETWORK_H_
#define XK_CN_CANDIDATE_NETWORK_H_

#include <string>
#include <vector>

#include "schema/schema_graph.h"

namespace xk::cn {

/// One occurrence of a schema node in a network.
struct CnNode {
  schema::SchemaNodeId schema_node;
  /// Sorted query-keyword indexes this occurrence must contain (exactly);
  /// empty = free occurrence.
  std::vector<int> keywords;

  bool free() const { return keywords.empty(); }
  bool operator==(const CnNode&) const = default;
};

/// A directed instantiation of a schema edge: occurrence `from` plays the
/// schema edge's source role.
struct CnEdge {
  int from;
  int to;
  schema::SchemaEdgeId edge;

  bool operator==(const CnEdge&) const = default;
};

/// A candidate network (or a partial network during generation).
struct CandidateNetwork {
  std::vector<CnNode> nodes;
  std::vector<CnEdge> edges;

  bool operator==(const CandidateNetwork&) const = default;

  /// The score of every MTNN this network produces (number of edges).
  int size() const { return static_cast<int>(edges.size()); }
  int num_nodes() const { return static_cast<int>(nodes.size()); }

  std::vector<std::vector<int>> Adjacency() const;

  /// Canonical key up to occurrence isomorphism (labels, annotations, edge
  /// ids, directions) — used to deduplicate generation.
  std::string CanonicalKey() const;

  /// "person{john} <-e3- supplier -e4-> ..." style debug form.
  std::string ToString(const schema::SchemaGraph& schema) const;
};

}  // namespace xk::cn

#endif  // XK_CN_CANDIDATE_NETWORK_H_
