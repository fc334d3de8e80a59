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
      if (cmp.path() == storage::kDateField &&
          cmp.value().type() == bson::Type::kDateTime) {
        return WidenTimeCmp(cmp, layout);
      }
      return nullptr;
    }
    case MatchExpr::Kind::kRangeSet: {
      const auto& rs = static_cast<const RangeSetExpr&>(*expr);
      if (rs.path() == storage::kHilbertField) {
        return WidenHilbertRangeSet(rs, layout);
      }
      return nullptr;
    }
    default:
      return nullptr;
  }
}

namespace {

/// Folds one conjunct into `sel`; false when the node is not a recognised
/// leaf (see CompileBucketSelection), which leaves it to the expression.
bool CompileInto(const ExprPtr& expr, storage::BucketSelection* sel) {
  switch (expr->kind()) {
    case MatchExpr::Kind::kAnd: {
      bool exact = true;
      for (const ExprPtr& child :
           static_cast<const AndExpr&>(*expr).children()) {
        exact = CompileInto(child, sel) && exact;
      }
      return exact;
    }
    case MatchExpr::Kind::kCmp: {
      const auto& cmp = static_cast<const CmpExpr&>(*expr);
      if (cmp.path() != storage::kDateField ||
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
      if (g.path() != storage::kLocationField) return false;
      sel->rects.push_back(g.box());
      return true;
    }
    case MatchExpr::Kind::kGeoIntersectsBox: {
      // On a point location $geoIntersects is the same box containment.
      const auto& g = static_cast<const GeoIntersectsBoxExpr&>(*expr);
      if (g.path() != storage::kLocationField) return false;
      sel->rects.push_back(g.box());
      return true;
    }
    case MatchExpr::Kind::kGeoWithinPolygon: {
      const auto& g = static_cast<const GeoWithinPolygonExpr&>(*expr);
      if (g.path() != storage::kLocationField) return false;
      sel->polygons.push_back(g.polygon());
      return true;
    }
    case MatchExpr::Kind::kRangeSet: {
      const auto& rs = static_cast<const RangeSetExpr&>(*expr);
      if (rs.path() != storage::kHilbertField) return false;
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

storage::BucketSelection CompileBucketSelection(const ExprPtr& expr) {
  storage::BucketSelection sel;
  if (expr == nullptr) return sel;
  sel.exact = CompileInto(expr, &sel);
  return sel;
}

BucketFilter::BucketFilter(ExprPtr expr)
    : expr_(std::move(expr)), selection_(CompileBucketSelection(expr_)) {}

Result<BucketMatch> BucketFilter::Apply(const bson::Document& bucket,
                                        const storage::BucketMeta& meta,
                                        bool partition) const {
  BucketMatch match;
  if (!selection_.MayContain(meta)) return match;
  if (selection_.Covers(meta)) {
    match.outcome = BucketMatch::Outcome::kCovered;
    return match;
  }
  match.outcome = BucketMatch::Outcome::kPartial;
  bool selected = false;
  Result<std::vector<bson::Document>> points = storage::DecodeBucket(
      bucket, meta, selection_.exact && !partition ? &selection_ : nullptr,
      &selected);
  if (!points.ok()) return points.status();
  match.points_built = points->size();
  if (selected) {
    match.matched = std::move(*points);
    return match;
  }
  for (bson::Document& point : *points) {
    if (expr_->Matches(point)) {
      match.matched.push_back(std::move(point));
    } else if (partition) {
      match.unmatched.push_back(std::move(point));
    }
  }
  return match;
}

BucketUnpackStage::BucketUnpackStage(std::unique_ptr<PlanStage> child,
                                     ExprPtr point_expr)
    : child_(std::move(child)), filter_(std::move(point_expr)) {}

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

  const ExprPtr& point_expr = filter_.expr();
  if (!storage::IsBucketDocument(*doc)) {
    // A plain (row-layout) document in the stream: filter and pass it
    // through, copied into the arena so that every document this stage
    // emits is arena-owned — the executor moves transient results out of
    // the arena wholesale, which must never touch record-store memory.
    if (point_expr != nullptr && !point_expr->Matches(*doc)) {
      return State::kNeedTime;
    }
    arena_.push_back(*doc);
    next_pending_ = arena_.size();
    *rid_out = rid;
    *doc_out = &arena_.back();
    return State::kAdvanced;
  }

  const Result<storage::BucketMeta> meta = storage::ParseBucketMeta(*doc);
  Result<BucketMatch> match =
      meta.ok() ? filter_.Apply(*doc, *meta) : meta.status();
  if (match.ok() && match->outcome == BucketMatch::Outcome::kCovered) {
    // Every point matches: decode them all, with no per-point filtering.
    Result<std::vector<bson::Document>> all =
        storage::DecodeBucket(*doc, *meta);
    if (all.ok()) {
      match->points_built = all->size();
      match->matched = std::move(*all);
    } else {
      match = all.status();
    }
  }
  if (!match.ok()) {
    status_ = match.status();
    return State::kEof;
  }
  if (match->outcome == BucketMatch::Outcome::kPruned) {
    ++buckets_pruned_;
    STIX_METRIC_COUNTER(pruned_counter, "bucket.buckets_pruned");
    pruned_counter.Increment();
    return State::kNeedTime;
  }
  points_unpacked_ += meta->num_points;
  points_materialized_ += match->points_built;
  STIX_METRIC_COUNTER(unpacked_counter, "bucket.points_unpacked");
  unpacked_counter.Increment(meta->num_points);
  STIX_METRIC_COUNTER(materialized_counter, "bucket.points_materialized");
  materialized_counter.Increment(match->points_built);

  if (match->matched.empty()) return State::kNeedTime;
  for (bson::Document& point : match->matched) {
    arena_.push_back(std::move(point));
  }
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
  if (filter_.expr() != nullptr) {
    node.filter = filter_.expr()->DebugString();
  }
  node.buckets_pruned = buckets_pruned_;
  node.points_unpacked = points_unpacked_;
  node.points_materialized = points_materialized_;
  FillExplainBase(&node);
  node.children.push_back(child_->Explain());
  return node;
}

}  // namespace stix::query
