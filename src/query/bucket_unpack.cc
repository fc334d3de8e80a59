#include "query/bucket_unpack.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/metrics.h"

namespace stix::query {
namespace {

/// Sorted-by-lo ranges whose lower bounds were just widened may now
/// overlap; merge back to the sorted-disjoint form RangeSetExpr requires.
std::vector<RangeSetExpr::Range> MergeWidenedRanges(
    std::vector<RangeSetExpr::Range> ranges) {
  std::vector<RangeSetExpr::Range> merged;
  for (RangeSetExpr::Range& r : ranges) {
    if (!merged.empty() &&
        r.lo.AsInt64() <= merged.back().hi.AsInt64()) {
      if (r.hi.AsInt64() > merged.back().hi.AsInt64()) {
        merged.back().hi = r.hi;
      }
      continue;
    }
    merged.push_back(std::move(r));
  }
  return merged;
}

ExprPtr WidenTimeCmp(const CmpExpr& cmp, const storage::BucketLayout& layout) {
  const int64_t v = cmp.value().AsDateTime();
  const int64_t widened_lo = v - layout.window_ms + 1;
  switch (cmp.op()) {
    case CmpOp::kGte:
      return MakeCmp(cmp.path(), CmpOp::kGte, bson::Value::DateTime(widened_lo));
    case CmpOp::kGt:
      // ts > v  ⇒  ts >= v+1  ⇒  bucket date >= v+1 - (window-1).
      return MakeCmp(cmp.path(), CmpOp::kGte,
                     bson::Value::DateTime(widened_lo + 1));
    case CmpOp::kLte:
    case CmpOp::kLt:
      // The bucket's date (window start) is <= every point's ts, so upper
      // bounds transfer unchanged.
      return MakeCmp(cmp.path(), cmp.op(), cmp.value());
    case CmpOp::kEq:
      return MakeAnd({MakeCmp(cmp.path(), CmpOp::kGte,
                              bson::Value::DateTime(widened_lo)),
                      MakeCmp(cmp.path(), CmpOp::kLte, cmp.value())});
  }
  return nullptr;
}

ExprPtr WidenHilbertRangeSet(const RangeSetExpr& rs,
                             const storage::BucketLayout& layout) {
  // Without hilbert cells in the bucket key, bucket documents carry no
  // hilbertIndex field at all — the predicate cannot route.
  if (!layout.use_hilbert) return nullptr;
  const int64_t widen = (int64_t{1} << layout.hilbert_shift) - 1;
  std::vector<RangeSetExpr::Range> widened;
  widened.reserve(rs.ranges().size());
  for (const RangeSetExpr::Range& r : rs.ranges()) {
    if (r.lo.type() != bson::Type::kInt64 ||
        r.hi.type() != bson::Type::kInt64) {
      return nullptr;
    }
    widened.push_back({bson::Value::Int64(r.lo.AsInt64() - widen), r.hi});
  }
  return MakeRangeSet(rs.path(), MergeWidenedRanges(std::move(widened)));
}

}  // namespace

ExprPtr WidenForBuckets(const ExprPtr& expr,
                        const storage::BucketLayout& layout) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case MatchExpr::Kind::kAnd: {
      const auto& and_expr = static_cast<const AndExpr&>(*expr);
      std::vector<ExprPtr> widened;
      for (const ExprPtr& child : and_expr.children()) {
        if (ExprPtr w = WidenForBuckets(child, layout)) {
          widened.push_back(std::move(w));
        }
      }
      if (widened.empty()) return nullptr;
      return MakeAnd(std::move(widened));
    }
    case MatchExpr::Kind::kOr: {
      // An $or widens only if every branch does — one unroutable branch
      // means any bucket might match.
      const auto& or_expr = static_cast<const OrExpr&>(*expr);
      std::vector<ExprPtr> widened;
      for (const ExprPtr& child : or_expr.children()) {
        ExprPtr w = WidenForBuckets(child, layout);
        if (w == nullptr) return nullptr;
        widened.push_back(std::move(w));
      }
      if (widened.empty()) return nullptr;
      return MakeOr(std::move(widened));
    }
    case MatchExpr::Kind::kCmp: {
      const auto& cmp = static_cast<const CmpExpr&>(*expr);
      if (cmp.path() == layout.time_field &&
          cmp.value().type() == bson::Type::kDateTime) {
        return WidenTimeCmp(cmp, layout);
      }
      return nullptr;
    }
    case MatchExpr::Kind::kRangeSet: {
      const auto& rs = static_cast<const RangeSetExpr&>(*expr);
      if (rs.path() == layout.hilbert_field) {
        return WidenHilbertRangeSet(rs, layout);
      }
      return nullptr;
    }
    default:
      return nullptr;
  }
}

namespace {

/// Folds `expr` into `spec`. Returns true iff the node was captured
/// losslessly — the conjunction of what went into the spec is equivalent to
/// the node (drives BucketPruneSpec::exact; pruning side effects happen
/// regardless).
bool ExtractInto(const ExprPtr& expr, const storage::BucketLayout& layout,
                 BucketPruneSpec* spec) {
  if (expr == nullptr) return false;
  switch (expr->kind()) {
    case MatchExpr::Kind::kAnd: {
      const auto& and_expr = static_cast<const AndExpr&>(*expr);
      bool exact = true;
      for (const ExprPtr& child : and_expr.children()) {
        exact = ExtractInto(child, layout, spec) && exact;
      }
      return exact;
    }
    case MatchExpr::Kind::kCmp: {
      const auto& cmp = static_cast<const CmpExpr&>(*expr);
      if (cmp.path() != layout.time_field ||
          cmp.value().type() != bson::Type::kDateTime) {
        return false;
      }
      const int64_t v = cmp.value().AsDateTime();
      switch (cmp.op()) {
        case CmpOp::kGte:
          spec->min_ts = std::max(spec->min_ts.value_or(v), v);
          break;
        case CmpOp::kGt:
          spec->min_ts = std::max(spec->min_ts.value_or(v + 1), v + 1);
          break;
        case CmpOp::kLte:
          spec->max_ts = std::min(spec->max_ts.value_or(v), v);
          break;
        case CmpOp::kLt:
          spec->max_ts = std::min(spec->max_ts.value_or(v - 1), v - 1);
          break;
        case CmpOp::kEq:
          spec->min_ts = std::max(spec->min_ts.value_or(v), v);
          spec->max_ts = std::min(spec->max_ts.value_or(v), v);
          break;
      }
      return true;
    }
    case MatchExpr::Kind::kGeoWithinBox:
    case MatchExpr::Kind::kGeoIntersectsBox:
    case MatchExpr::Kind::kGeoWithinPolygon: {
      geo::Rect box;
      std::string path;
      // A polygon contributes only its bounding box: sound for pruning,
      // lossy for exactness.
      bool lossless = true;
      if (expr->kind() == MatchExpr::Kind::kGeoWithinBox) {
        const auto& g = static_cast<const GeoWithinBoxExpr&>(*expr);
        box = g.box();
        path = g.path();
      } else if (expr->kind() == MatchExpr::Kind::kGeoIntersectsBox) {
        const auto& g = static_cast<const GeoIntersectsBoxExpr&>(*expr);
        box = g.box();
        path = g.path();
      } else {
        const auto& g = static_cast<const GeoWithinPolygonExpr&>(*expr);
        box = g.region().BoundingBox();
        path = g.path();
        lossless = false;
      }
      if (path != layout.location_field) return false;
      if (!spec->rect.has_value()) {
        spec->rect = box;
      } else {
        // Intersection of conjunctive boxes; an empty intersection prunes
        // every bucket, which is exactly right.
        spec->rect->lo.lon = std::max(spec->rect->lo.lon, box.lo.lon);
        spec->rect->lo.lat = std::max(spec->rect->lo.lat, box.lo.lat);
        spec->rect->hi.lon = std::min(spec->rect->hi.lon, box.hi.lon);
        spec->rect->hi.lat = std::min(spec->rect->hi.lat, box.hi.lat);
      }
      return lossless;
    }
    case MatchExpr::Kind::kRangeSet: {
      const auto& rs = static_cast<const RangeSetExpr&>(*expr);
      if (rs.path() != layout.hilbert_field || !spec->hil_ranges.empty()) {
        return false;
      }
      for (const RangeSetExpr::Range& r : rs.ranges()) {
        if (r.lo.type() != bson::Type::kInt64 ||
            r.hi.type() != bson::Type::kInt64) {
          spec->hil_ranges.clear();
          return false;
        }
        spec->hil_ranges.emplace_back(r.lo.AsInt64(), r.hi.AsInt64());
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

bool BucketPruneSpec::MayContain(const storage::BucketMeta& meta) const {
  if (min_ts.has_value() && meta.max_ts < *min_ts) return false;
  if (max_ts.has_value() && meta.min_ts > *max_ts) return false;
  if (rect.has_value() && meta.has_mbr && !rect->Intersects(meta.mbr)) {
    return false;
  }
  if (!hil_ranges.empty() && !meta.hil_ranges.empty()) {
    // Both sides sorted and disjoint: two-pointer overlap test.
    size_t i = 0, j = 0;
    bool overlap = false;
    while (i < hil_ranges.size() && j < meta.hil_ranges.size()) {
      const auto& a = hil_ranges[i];
      const auto& b = meta.hil_ranges[j];
      if (a.second < b.first) {
        ++i;
      } else if (b.second < a.first) {
        ++j;
      } else {
        overlap = true;
        break;
      }
    }
    if (!overlap) return false;
  }
  return true;
}

bool BucketPruneSpec::Covers(const storage::BucketMeta& meta) const {
  if (!exact) return false;
  if (min_ts.has_value() && meta.min_ts < *min_ts) return false;
  if (max_ts.has_value() && meta.max_ts > *max_ts) return false;
  if (rect.has_value()) {
    // has_mbr guarantees every point carries a canonical GeoJSON location,
    // so MBR containment implies each point matches the geo leaf.
    if (!meta.has_mbr || !rect->ContainsRect(meta.mbr)) return false;
  }
  if (!hil_ranges.empty()) {
    if (meta.hil_ranges.empty()) return false;
    // Every meta range must lie inside one spec range (both sides sorted
    // and disjoint, so a single forward sweep suffices).
    size_t i = 0;
    for (const auto& m : meta.hil_ranges) {
      while (i < hil_ranges.size() && hil_ranges[i].second < m.first) ++i;
      if (i == hil_ranges.size() || hil_ranges[i].first > m.first ||
          hil_ranges[i].second < m.second) {
        return false;
      }
    }
  }
  return true;
}

BucketPruneSpec ExtractBucketPredicates(const ExprPtr& expr,
                                        const storage::BucketLayout& layout) {
  BucketPruneSpec spec;
  spec.exact = ExtractInto(expr, layout, &spec);
  return spec;
}

namespace {

/// Folds one conjunct into `sel`; false when the node is outside the
/// compilable subset (see CompileBucketSelection).
bool CompileInto(const ExprPtr& expr, const storage::BucketLayout& layout,
                 storage::BucketSelection* sel) {
  switch (expr->kind()) {
    case MatchExpr::Kind::kAnd: {
      for (const ExprPtr& child :
           static_cast<const AndExpr&>(*expr).children()) {
        if (!CompileInto(child, layout, sel)) return false;
      }
      return true;
    }
    case MatchExpr::Kind::kCmp: {
      const auto& cmp = static_cast<const CmpExpr&>(*expr);
      if (cmp.path() != layout.time_field ||
          cmp.value().type() != bson::Type::kDateTime) {
        return false;
      }
      constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
      constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
      const int64_t v = cmp.value().AsDateTime();
      // Strict bounds become closed ones; a strict bound past the end of
      // the int64 range selects nothing (lo > hi).
      int64_t lo = kMin, hi = kMax;
      switch (cmp.op()) {
        case CmpOp::kGte:
          lo = v;
          break;
        case CmpOp::kGt:
          if (v == kMax) {
            std::swap(lo, hi);
          } else {
            lo = v + 1;
          }
          break;
        case CmpOp::kLte:
          hi = v;
          break;
        case CmpOp::kLt:
          if (v == kMin) {
            std::swap(lo, hi);
          } else {
            hi = v - 1;
          }
          break;
        case CmpOp::kEq:
          lo = hi = v;
          break;
      }
      sel->min_ts = std::max(sel->min_ts, lo);
      sel->max_ts = std::min(sel->max_ts, hi);
      return true;
    }
    case MatchExpr::Kind::kGeoWithinBox: {
      const auto& g = static_cast<const GeoWithinBoxExpr&>(*expr);
      if (g.path() != layout.location_field) return false;
      sel->rects.push_back(g.box());
      return true;
    }
    case MatchExpr::Kind::kGeoIntersectsBox: {
      // On a point location $geoIntersects is the same box containment.
      const auto& g = static_cast<const GeoIntersectsBoxExpr&>(*expr);
      if (g.path() != layout.location_field) return false;
      sel->rects.push_back(g.box());
      return true;
    }
    case MatchExpr::Kind::kGeoWithinPolygon: {
      const auto& g = static_cast<const GeoWithinPolygonExpr&>(*expr);
      if (g.path() != layout.location_field) return false;
      sel->polygons.push_back(g.polygon());
      return true;
    }
    case MatchExpr::Kind::kRangeSet: {
      const auto& rs = static_cast<const RangeSetExpr&>(*expr);
      if (rs.path() != layout.hilbert_field) return false;
      std::vector<std::pair<int64_t, int64_t>> ranges;
      ranges.reserve(rs.ranges().size());
      for (const RangeSetExpr::Range& r : rs.ranges()) {
        if (r.lo.type() != bson::Type::kInt64 ||
            r.hi.type() != bson::Type::kInt64) {
          return false;
        }
        ranges.emplace_back(r.lo.AsInt64(), r.hi.AsInt64());
      }
      sel->hil_range_sets.push_back(std::move(ranges));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

std::optional<storage::BucketSelection> CompileBucketSelection(
    const ExprPtr& expr, const storage::BucketLayout& layout) {
  // The columns hold top-level fields; a dotted name would make the
  // expression's path walk disagree with them.
  for (const std::string* f : {&layout.time_field, &layout.location_field,
                               &layout.hilbert_field}) {
    if (f->find('.') != std::string::npos) return std::nullopt;
  }
  storage::BucketSelection sel;
  if (expr == nullptr || !CompileInto(expr, layout, &sel)) return std::nullopt;
  return sel;
}

BucketUnpackStage::BucketUnpackStage(
    std::unique_ptr<PlanStage> child, ExprPtr point_expr,
    std::shared_ptr<const storage::BucketLayout> layout)
    : child_(std::move(child)),
      point_expr_(std::move(point_expr)),
      layout_(std::move(layout)),
      prune_(ExtractBucketPredicates(point_expr_, *layout_)),
      selection_(CompileBucketSelection(point_expr_, *layout_)) {}

PlanStage::State BucketUnpackStage::Work(storage::RecordId* rid_out,
                                         const bson::Document** doc_out) {
  *doc_out = nullptr;
  if (!status_.ok()) return State::kEof;
  if (next_pending_ < arena_.size()) {
    *rid_out = pending_rid_;
    *doc_out = &arena_[next_pending_++];
    return State::kAdvanced;
  }

  storage::RecordId rid = storage::kInvalidRecordId;
  const bson::Document* doc = nullptr;
  const State child_state = child_->WorkUnit(&rid, &doc);
  if (child_state != State::kAdvanced) return child_state;
  if (doc == nullptr) return State::kNeedTime;

  if (!storage::IsBucketDocument(*doc)) {
    // A plain (row-layout) document in the stream: filter and pass it
    // through, copied into the arena so that every document this stage
    // emits is arena-owned — the executor moves transient results out of
    // the arena wholesale, which must never touch record-store memory.
    if (point_expr_ != nullptr && !point_expr_->Matches(*doc)) {
      return State::kNeedTime;
    }
    arena_.push_back(*doc);
    next_pending_ = arena_.size();
    *rid_out = rid;
    *doc_out = &arena_.back();
    return State::kAdvanced;
  }

  Result<storage::BucketMeta> meta = storage::ParseBucketMeta(*doc);
  if (!meta.ok()) {
    status_ = meta.status();
    return State::kEof;
  }
  if (!prune_.MayContain(*meta)) {
    ++buckets_pruned_;
    STIX_METRIC_COUNTER(pruned_counter, "bucket.buckets_pruned");
    pruned_counter.Increment();
    return State::kNeedTime;
  }

  // A bucket whose metadata lies wholly inside an exact spec needs no
  // per-point filtering: every decoded point matches by construction.
  const bool covered = point_expr_ == nullptr || prune_.Covers(*meta);
  bool selected = false;
  Result<std::vector<bson::Document>> points = storage::DecodeBucket(
      *doc, *layout_,
      covered || !selection_.has_value() ? nullptr : &*selection_,
      &selected);
  if (!points.ok()) {
    status_ = points.status();
    return State::kEof;
  }
  points_unpacked_ += meta->num_points;
  points_materialized_ += points->size();
  STIX_METRIC_COUNTER(unpacked_counter, "bucket.points_unpacked");
  unpacked_counter.Increment(meta->num_points);
  STIX_METRIC_COUNTER(materialized_counter, "bucket.points_materialized");
  materialized_counter.Increment(points->size());

  const size_t before = arena_.size();
  for (bson::Document& point : *points) {
    if (covered || selected || point_expr_->Matches(point)) {
      arena_.push_back(std::move(point));
    }
  }
  if (arena_.size() == before) return State::kNeedTime;

  // Every point of this bucket is attributed to the bucket's record id.
  pending_rid_ = rid;
  *rid_out = pending_rid_;
  *doc_out = &arena_[next_pending_++];
  return State::kAdvanced;
}

void BucketUnpackStage::AccumulateStats(ExecStats* stats) const {
  // docs_examined was charged by the child when it loaded each bucket; the
  // unpack itself examines no stored documents.
  child_->AccumulateStats(stats);
}

std::string BucketUnpackStage::Summary() const {
  return "BUCKET_UNPACK -> " + child_->Summary();
}

ExplainNode BucketUnpackStage::Explain() const {
  ExplainNode node;
  node.stage = "BUCKET_UNPACK";
  if (point_expr_ != nullptr) node.filter = point_expr_->DebugString();
  node.buckets_pruned = buckets_pruned_;
  node.points_unpacked = points_unpacked_;
  node.points_materialized = points_materialized_;
  FillExplainBase(&node);
  node.children.push_back(child_->Explain());
  return node;
}

}  // namespace stix::query
