#ifndef STIX_QUERY_BUCKET_UNPACK_H_
#define STIX_QUERY_BUCKET_UNPACK_H_

#include <cstdint>
#include <deque>
#include <memory>
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
///  - date comparisons widen their lower bound by window_ms - 1
///    (a bucket's date carries the window start, and points lie in
///    [date, date + window)); $eq becomes the widened closed range.
///  - hilbertIndex RangeSets widen each range's lower bound by
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

/// Compiles `expr` once into the bucket filter: walks its top-level $and
/// (nested or not) and puts every recognised leaf into the selection —
///  - a storage::kDateField comparison against a DateTime,
///  - $geoWithin $box, $geoIntersects $box or $geoWithin $polygon on
///    storage::kLocationField,
///  - a storage::kHilbertField RangeSet whose bounds are all Int64.
/// Any other leaf (residual fields, $or, $in, other value types) is left to
/// the expression and clears `exact`. A null expression matches
/// everything: an empty, exact selection.
storage::BucketSelection CompileBucketSelection(const ExprPtr& expr);

/// What one bucket contributes to a point expression (BucketFilter::Apply).
/// Pruned and covered buckets are decided on their metadata alone; only a
/// partial one is decoded, and only it fills the fields below.
struct BucketMatch {
  enum class Outcome { kPruned, kCovered, kPartial };
  Outcome outcome = Outcome::kPruned;
  /// The matching points, in insertion order.
  std::vector<bson::Document> matched;
  /// The other points, when Apply was asked to partition.
  std::vector<bson::Document> unmatched;
  /// Point documents the decode built: the matches alone when the column
  /// selection applied, every point otherwise.
  uint64_t points_built = 0;
};

/// A point expression compiled once (CompileBucketSelection) for
/// bucket-at-a-time evaluation: the one answer to "which points of this
/// bucket match?" behind BUCKET_UNPACK, bucketed deletes and the cold scan.
class BucketFilter {
 public:
  explicit BucketFilter(ExprPtr expr);

  /// Decides one bucket from the metadata its caller already parsed:
  /// pruned, covered, or decoded. An exact selection decodes columnar-first
  /// and builds only the matches; otherwise (or when the bucket lacks a
  /// column the selection needs) every point is built and tested with the
  /// expression. `partition` builds every point and returns the rest in
  /// `unmatched` as well.
  Result<BucketMatch> Apply(const bson::Document& bucket,
                            const storage::BucketMeta& meta,
                            bool partition = false) const;

  const ExprPtr& expr() const { return expr_; }

 private:
  ExprPtr expr_;
  storage::BucketSelection selection_;
};

/// MongoDB's $_internalUnpackBucket as a plan stage: pulls bucket documents
/// from its child (FETCH over the widened bounds, or COLLSCAN) and streams
/// out the points that match the exact point-level expression, each bucket
/// decided by its BucketFilter (pruned, covered and decoded whole, or
/// decoded columnar-first).
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
  BucketUnpackStage(std::unique_ptr<PlanStage> child, ExprPtr point_expr);

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
  BucketFilter filter_;

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
