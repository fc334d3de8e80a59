#include "query/query_analysis.h"

namespace stix::query {
namespace {

void TightenLo(PathInfo* info, const bson::Value& v) {
  if (!info->lo.has_value() || Compare(v, *info->lo) > 0) info->lo = v;
}

void TightenHi(PathInfo* info, const bson::Value& v) {
  if (!info->hi.has_value() || Compare(v, *info->hi) < 0) info->hi = v;
}

void AbsorbCmp(const CmpExpr& cmp, PathInfo* info) {
  switch (cmp.op()) {
    case CmpOp::kEq:
      TightenLo(info, cmp.value());
      TightenHi(info, cmp.value());
      break;
    case CmpOp::kGt:
    case CmpOp::kGte:
      TightenLo(info, cmp.value());
      break;
    case CmpOp::kLt:
    case CmpOp::kLte:
      TightenHi(info, cmp.value());
      break;
  }
}

// If every leaf of this $or constrains the same single path with ranges or
// $in lists, returns that path and appends the intervals. This recognises
// the paper's Hilbert query shape:
//   $or: [{h: {$gte: a, $lte: b}}, ..., {h: {$in: [c, d]}}].
bool TryExtractSinglePathOr(const OrExpr& or_expr, std::string* path,
                            std::vector<index::ValueInterval>* intervals) {
  path->clear();
  auto note_path = [&](const std::string& p) {
    if (path->empty()) {
      *path = p;
      return true;
    }
    return *path == p;
  };

  for (const ExprPtr& child : or_expr.children()) {
    if (child->kind() == MatchExpr::Kind::kIn) {
      const auto& in = static_cast<const InExpr&>(*child);
      if (!note_path(in.path())) return false;
      for (const bson::Value& v : in.values()) {
        intervals->push_back(index::ValueInterval{v, v});
      }
    } else if (child->kind() == MatchExpr::Kind::kCmp) {
      const auto& cmp = static_cast<const CmpExpr&>(*child);
      if (!note_path(cmp.path())) return false;
      if (cmp.op() != CmpOp::kEq) return false;
      intervals->push_back(index::ValueInterval{cmp.value(), cmp.value()});
    } else if (child->kind() == MatchExpr::Kind::kAnd) {
      // Expect a {$gte, $lte} pair on one path.
      const auto& conj = static_cast<const AndExpr&>(*child);
      PathInfo range;
      for (const ExprPtr& leaf : conj.children()) {
        if (leaf->kind() != MatchExpr::Kind::kCmp) return false;
        const auto& cmp = static_cast<const CmpExpr&>(*leaf);
        if (!note_path(cmp.path())) return false;
        AbsorbCmp(cmp, &range);
      }
      if (!range.lo.has_value() || !range.hi.has_value()) return false;
      intervals->push_back(index::ValueInterval{*range.lo, *range.hi});
    } else {
      return false;
    }
  }
  return !path->empty();
}

}  // namespace

std::map<std::string, PathInfo> AnalyzeQuery(const ExprPtr& expr) {
  std::map<std::string, PathInfo> paths;
  if (expr == nullptr) return paths;
  std::vector<const MatchExpr*> conjuncts;
  if (expr->kind() == MatchExpr::Kind::kAnd) {
    for (const ExprPtr& child :
         static_cast<const AndExpr&>(*expr).children()) {
      conjuncts.push_back(child.get());
    }
  } else {
    conjuncts.push_back(expr.get());
  }

  for (const MatchExpr* conjunct : conjuncts) {
    switch (conjunct->kind()) {
      case MatchExpr::Kind::kCmp: {
        const auto& cmp = static_cast<const CmpExpr&>(*conjunct);
        AbsorbCmp(cmp, &paths[cmp.path()]);
        break;
      }
      case MatchExpr::Kind::kIn: {
        const auto& in = static_cast<const InExpr&>(*conjunct);
        PathInfo& info = paths[in.path()];
        for (const bson::Value& v : in.values()) {
          info.or_intervals.push_back(index::ValueInterval{v, v});
        }
        break;
      }
      case MatchExpr::Kind::kOr: {
        std::string path;
        std::vector<index::ValueInterval> intervals;
        if (TryExtractSinglePathOr(static_cast<const OrExpr&>(*conjunct),
                                   &path, &intervals)) {
          PathInfo& info = paths[path];
          info.or_intervals.insert(info.or_intervals.end(), intervals.begin(),
                                   intervals.end());
        }
        // Unrecognised $or shapes stay residual-filter-only.
        break;
      }
      case MatchExpr::Kind::kGeoWithinBox: {
        const auto& geo = static_cast<const GeoWithinBoxExpr&>(*conjunct);
        paths[geo.path()].geo = &geo.region();
        break;
      }
      case MatchExpr::Kind::kGeoWithinPolygon: {
        const auto& geo =
            static_cast<const GeoWithinPolygonExpr&>(*conjunct);
        paths[geo.path()].geo = &geo.region();
        break;
      }
      case MatchExpr::Kind::kGeoIntersectsBox: {
        // Index bounds are the same cell covering as $geoWithin: any
        // geometry touching the rectangle has an indexed cell that touches
        // it too; the residual filter does the exact check.
        const auto& geo =
            static_cast<const GeoIntersectsBoxExpr&>(*conjunct);
        paths[geo.path()].geo = &geo.region();
        break;
      }
      case MatchExpr::Kind::kRangeSet: {
        const auto& rs = static_cast<const RangeSetExpr&>(*conjunct);
        PathInfo& info = paths[rs.path()];
        info.or_intervals.reserve(info.or_intervals.size() +
                                  rs.ranges().size());
        for (const RangeSetExpr::Range& r : rs.ranges()) {
          info.or_intervals.push_back(index::ValueInterval{r.lo, r.hi});
        }
        break;
      }
      case MatchExpr::Kind::kAnd: {
        // Nested $and (e.g. from MakeRange): absorb its cmp leaves.
        for (const ExprPtr& leaf :
             static_cast<const AndExpr&>(*conjunct).children()) {
          if (leaf->kind() == MatchExpr::Kind::kCmp) {
            const auto& cmp = static_cast<const CmpExpr&>(*leaf);
            AbsorbCmp(cmp, &paths[cmp.path()]);
          }
        }
        break;
      }
    }
  }
  return paths;
}

index::FieldBounds AscendingBounds(const PathInfo* info) {
  index::FieldBounds fb;
  if (info == nullptr) {
    fb.full_range = true;
    return fb;
  }
  if (!info->or_intervals.empty()) {
    fb.intervals = info->or_intervals;
    fb.Normalize();
    return fb;
  }
  if (info->lo.has_value() && info->hi.has_value() &&
      Compare(*info->lo, *info->hi) <= 0) {
    fb.intervals.push_back(index::ValueInterval{*info->lo, *info->hi});
    return fb;
  }
  fb.full_range = true;
  return fb;
}

}  // namespace stix::query
