#ifndef STIX_QUERY_QUERY_ANALYSIS_H_
#define STIX_QUERY_QUERY_ANALYSIS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "index/index_bounds.h"
#include "query/expression.h"

namespace stix::query {

/// Everything the planner/router can learn about one document path from a
/// conjunctive query: a closed base range, an interval list from a
/// single-path $or / $in (the Hilbert covering shape), and/or a $geoWithin.
struct PathInfo {
  std::optional<bson::Value> lo;
  std::optional<bson::Value> hi;
  std::vector<index::ValueInterval> or_intervals;
  /// Exact geometry predicate on this path ($geoWithin box or polygon),
  /// exposed as the Region the 2dsphere bounds covering needs.
  const geo::Region* geo = nullptr;
};

/// Decomposes the top-level conjunction of `expr` into per-path constraint
/// summaries. Unrecognised sub-expressions simply contribute nothing (they
/// remain residual-filter-only). A null expression constrains nothing.
std::map<std::string, PathInfo> AnalyzeQuery(const ExprPtr& expr);

/// Bounds for an ascending index/shard-key field: the $or interval list if
/// present, else the closed base range, else full-range.
index::FieldBounds AscendingBounds(const PathInfo* info);

}  // namespace stix::query

#endif  // STIX_QUERY_QUERY_ANALYSIS_H_
