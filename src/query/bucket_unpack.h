#ifndef STIX_QUERY_BUCKET_UNPACK_H_
#define STIX_QUERY_BUCKET_UNPACK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "query/plan_stage.h"
#include "storage/bucket.h"

namespace stix::query {

/// Rewrites a point-level match expression into a predicate that is safe to
/// evaluate against *bucket documents* of the given layout: every bucket
/// containing at least one matching point satisfies the rewrite. Used for
/// index bounds, shard routing and the multi-plan candidates — never as the
/// final filter (BucketUnpackStage re-applies the exact point expression
/// after decompression).
///
/// The rewrite follows MongoDB's time-series $_internalUnpackBucket
/// predicate mapping, specialised to this engine's expression subset:
///  - time_field comparisons widen their lower bound by window_ms - 1
///    (a bucket's date carries the window start, and points lie in
///    [date, date + window)); $eq becomes the widened closed range.
///  - hilbert_field RangeSets widen each range's lower bound by
///    2^hilbert_shift - 1 (a bucket's hilbertIndex carries its cell base),
///    then re-merge overlaps so the result is again sorted and disjoint.
///  - $and maps over its children; anything else (geo predicates,
///    per-point fields, $or) is dropped — buckets cannot be filtered by
///    them before unpacking.
///
/// Returns nullptr when nothing routable survives (callers treat that as
/// match-all / broadcast).
ExprPtr WidenForBuckets(const ExprPtr& expr,
                        const storage::BucketLayout& layout);

/// The bucket-level pruning predicates BucketUnpackStage extracts from the
/// point expression once, at construction: checked against BucketMeta
/// before any column is touched.
struct BucketPruneSpec {
  /// Closed time bounds on the points (from time_field comparisons).
  std::optional<int64_t> min_ts;
  std::optional<int64_t> max_ts;
  /// Spatial bound: the query rect, or a polygon's bounding box.
  std::optional<geo::Rect> rect;
  /// Sorted disjoint closed hilbertIndex ranges (from a RangeSet).
  std::vector<std::pair<int64_t, int64_t>> hil_ranges;

  /// True iff this spec IS the whole point expression — every leaf was a
  /// conjunct the extraction captured losslessly (time cmp, rect on point
  /// locations, one hilbert RangeSet). Polygons capture only their bounding
  /// box, $or captures nothing; both leave exact false.
  bool exact = false;

  /// True iff a bucket with this metadata may contain a matching point.
  bool MayContain(const storage::BucketMeta& meta) const;

  /// True iff every point of a bucket with this metadata matches: the spec
  /// is exact and the metadata lies entirely inside its bounds. Lets the
  /// unpack stage skip the per-point filter for fully covered buckets (the
  /// whole-bucket analogue of an index range's covered interior).
  bool Covers(const storage::BucketMeta& meta) const;
};

/// Extracts the prunable conjuncts of `expr` (top-level $and walk, same
/// recognition rules as WidenForBuckets).
BucketPruneSpec ExtractBucketPredicates(const ExprPtr& expr,
                                        const storage::BucketLayout& layout);

/// Compiles `expr` into the column predicate DecodeBucket evaluates before
/// building documents — only when the expression is a conjunction ($and,
/// nested or not) of these leaves, each on a top-level field of the layout:
///  - a time_field comparison against a DateTime,
///  - $geoWithin $box, $geoIntersects $box or $geoWithin $polygon on
///    location_field,
///  - a hilbert_field RangeSet whose bounds are all Int64.
/// The selection then decides exactly what `expr->Matches` decides on every
/// rebuilt point. Any other shape (null, $or, $in, residual fields) returns
/// nullopt and the unpack stage keeps the full decode plus Matches.
std::optional<storage::BucketSelection> CompileBucketSelection(
    const ExprPtr& expr, const storage::BucketLayout& layout);

/// MongoDB's $_internalUnpackBucket as a plan stage: pulls bucket documents
/// from its child (FETCH over the widened bounds, or COLLSCAN), prunes
/// whole buckets on their metadata (time extent, MBR, hilbert ranges),
/// decompresses the survivors and streams out the points that match the
/// exact point-level expression. When the expression compiles to a column
/// predicate (CompileBucketSelection) the filter runs on the ts/lon/lat/hil
/// columns and only matching points are materialized; otherwise every
/// point is rebuilt and tested with Matches.
///
/// A bucket that fails to decode fails the stage: it records the
/// Corruption status (see status()) and reports end of stream, so the read
/// surfaces an error instead of silently missing the bucket's points.
///
/// Decoded points live in a stage-owned arena that is never discarded while
/// the stage lives, so emitted document pointers obey the same borrowed-
/// pointer protocol as record-store documents — but they do NOT survive the
/// executor: plans containing this stage are marked transient_docs and the
/// executor materializes their results (see CandidatePlan).
///
/// Counter semantics: docs_examined stays 0 here (the child's FETCH/
/// COLLSCAN already counted each bucket load, keeping the explain
/// sum-over-tree invariant); buckets_pruned / points_unpacked /
/// points_materialized are this stage's own explain fields. points_unpacked
/// counts every point of every bucket that was not pruned;
/// points_materialized counts the point documents actually built.
class BucketUnpackStage : public PlanStage {
 public:
  BucketUnpackStage(std::unique_ptr<PlanStage> child, ExprPtr point_expr,
                    std::shared_ptr<const storage::BucketLayout> layout);

  State Work(storage::RecordId* rid_out,
             const bson::Document** doc_out) override;
  void AccumulateStats(ExecStats* stats) const override;
  std::string Summary() const override;
  ExplainNode Explain() const override;
  Status status() const override { return status_; }

  uint64_t buckets_pruned() const { return buckets_pruned_; }
  uint64_t points_unpacked() const { return points_unpacked_; }

 protected:
  PlanStage* child_stage() override { return child_.get(); }

 private:
  std::unique_ptr<PlanStage> child_;
  ExprPtr point_expr_;
  std::shared_ptr<const storage::BucketLayout> layout_;
  BucketPruneSpec prune_;
  std::optional<storage::BucketSelection> selection_;

  /// Pointer-stable arena of every matching decoded point (deque: grows
  /// without relocation). Pending points are emitted one per Work() call.
  std::deque<bson::Document> arena_;
  size_t next_pending_ = 0;       ///< First arena entry not yet emitted.
  storage::RecordId pending_rid_ = storage::kInvalidRecordId;

  uint64_t buckets_pruned_ = 0;
  uint64_t points_unpacked_ = 0;
  uint64_t points_materialized_ = 0;
  Status status_;
};

}  // namespace stix::query

#endif  // STIX_QUERY_BUCKET_UNPACK_H_
