#ifndef STIX_STORAGE_BUCKET_H_
#define STIX_STORAGE_BUCKET_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bson/document.h"
#include "common/status.h"
#include "geo/geo.h"
#include "geo/region.h"

namespace stix::storage {

/// Field names of the paper's document schema (Section 4): every point
/// carries its GeoJSON location and DateTime, the Hilbert approaches add the
/// curve value, and the trajectory workload a vehicle id. The bucketed
/// layout keys, compresses and widens by exactly these names; st::Approach
/// phrases queries with the same constants.
inline constexpr char kDateField[] = "date";
inline constexpr char kLocationField[] = "location";
inline constexpr char kHilbertField[] = "hilbertIndex";
inline constexpr char kVehicleField[] = "vehicleId";

/// Shape of the bucketed time-series collection layout (MongoDB's
/// time-series buckets, specialised to the paper's trajectory workload):
/// one stored document per (vehicle, time window[, Hilbert cell]) holding
/// Simple8b-compressed delta-of-delta columns plus bucket-level pruning
/// metadata. Immutable once a store is set up — the widening rewrite, the
/// catalog keys and the codec must all agree on it.
struct BucketLayout {
  /// Time-window width per bucket. Every point in a bucket satisfies
  /// ts in [bucket date, bucket date + window_ms), where the bucket's
  /// date field carries the window's start — the invariant the query
  /// rewrite widens time bounds by.
  int64_t window_ms = 6 * 3600 * 1000;

  /// Seal threshold: an open bucket flushes once it holds this many points.
  uint32_t max_points = 1000;

  /// Points in one bucket share hilbert >> hilbert_shift when use_hilbert
  /// is set, and the bucket's hilbertIndex field carries the cell base —
  /// the invariant the hilbertIndex range widening relies on.
  int hilbert_shift = 12;
  bool use_hilbert = false;

  /// Start of the window containing `ts` (floor to window_ms, correct for
  /// negative timestamps).
  int64_t WindowBase(int64_t ts) const {
    int64_t q = ts / window_ms;
    if (ts % window_ms < 0) --q;
    return q * window_ms;
  }
};

/// Bucket identity inside the BucketCatalog: which open bucket a point
/// belongs to.
struct BucketKey {
  int64_t vehicle = 0;
  int64_t window = 0;  ///< Window start, ms.
  int64_t cell = 0;    ///< hilbert >> shift, or 0 when not applicable.

  friend bool operator<(const BucketKey& a, const BucketKey& b) {
    if (a.vehicle != b.vehicle) return a.vehicle < b.vehicle;
    if (a.window != b.window) return a.window < b.window;
    return a.cell < b.cell;
  }
  friend bool operator==(const BucketKey& a, const BucketKey& b) {
    return a.vehicle == b.vehicle && a.window == b.window && a.cell == b.cell;
  }
};

/// Pruning metadata of one sealed bucket, decoded without touching the
/// columns: exact time extent, point count, tight MBR and the covering set
/// of hilbertIndex ranges of the points inside.
struct BucketMeta {
  int64_t min_ts = 0;
  int64_t max_ts = 0;
  uint32_t num_points = 0;
  bool has_mbr = false;
  geo::Rect mbr = {{0, 0}, {0, 0}};
  /// Sorted, disjoint closed [lo, hi] ranges of point hilbertIndex values;
  /// empty when the points carried no hilbert field.
  std::vector<std::pair<int64_t, int64_t>> hil_ranges;
};

/// Bucket-document field names (stable across PRs: the golden test pins the
/// full encoding).
inline constexpr char kBucketMetaField[] = "meta";
inline constexpr char kBucketDataField[] = "data";
/// Durable stores only: Int64 array of the catalog-journal LSNs of the
/// points packed into this bucket. Recovery intersects it with the catalog
/// journal to find points that were acknowledged but never reached a
/// flushed bucket. Absent on non-durable stores; ignored by the codec.
inline constexpr char kBucketWalLsnsField[] = "wlsns";

/// True iff this stored document is a bucket (carries the meta + data
/// sub-documents with the codec's version stamp).
bool IsBucketDocument(const bson::Document& doc);

/// Computes the catalog key of one point. Fails when the date field is
/// missing or not a DateTime (bucketed stores require it). A missing
/// vehicleId/hilbertIndex field keys as 0.
Result<BucketKey> ComputeBucketKey(const bson::Document& point,
                                   const BucketLayout& layout);

/// Encodes points (all of one BucketKey — same window, same cell) into one
/// bucket document. Reconstruction via DecodeBucket is byte-identical: the
/// original field order and value types of every point are preserved.
Result<bson::Document> EncodeBucket(const std::vector<bson::Document>& points,
                                    const BucketLayout& layout);

/// A conjunctive per-point predicate over the bucket's ts, lon/lat and hil
/// columns, compiled once per query (query::CompileBucketSelection). Each
/// leaf decides exactly what the corresponding match expression decides on
/// the rebuilt point (the columns are bit-exact with it): closed time
/// bounds, boundary-inclusive geo::Rect / geo::Polygon containment, and the
/// RangeSet rule (the first range with hi >= value must have lo <= value).
/// The same leaves prune and cover whole buckets on their BucketMeta.
struct BucketSelection {
  /// Closed bounds on the time column; min_ts > max_ts selects nothing.
  int64_t min_ts = std::numeric_limits<int64_t>::min();
  int64_t max_ts = std::numeric_limits<int64_t>::max();
  /// The location must lie in every rect and every polygon.
  std::vector<geo::Rect> rects;
  std::vector<geo::Polygon> polygons;
  /// Sorted, disjoint closed [lo, hi] hilbert ranges; the point's value
  /// must fall in one range of every set.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> hil_range_sets;
  /// True iff these leaves ARE the whole point expression. Otherwise they
  /// are only implied by it: sound for pruning, while the points of a
  /// surviving bucket still need the expression itself.
  bool exact = true;

  /// False iff no point of a bucket with this metadata can satisfy the
  /// leaves: the time extent misses the bounds, the MBR misses a rect or a
  /// polygon's bounding box, or the hilbert ranges miss a range set.
  bool MayContain(const BucketMeta& meta) const;

  /// True iff every point of a bucket with this metadata matches the whole
  /// expression: the selection is exact, has no polygon, and the metadata
  /// lies inside the time bounds, every rect and every range set.
  bool Covers(const BucketMeta& meta) const;
};

/// Reverses EncodeBucket, reproducing the original point documents in
/// insertion order. `meta` is the bucket's own ParseBucketMeta result,
/// which the caller has already checked (IsBucketDocument) and parsed.
/// With a selection, the columns it tests are decoded first (ts, then
/// lon/lat, then hil, each only while some point survives) and only the
/// surviving points are built: the position and _id columns and the
/// residuals are decoded only when some point survives, and per-point BSON
/// residuals of unselected points are skipped unparsed.
/// A bucket lacking a column the selection needs (some point had a
/// non-canonical location or no Int64 hilbert) decodes every point instead.
/// *selected, when non-null, reports which of the two happened: true iff
/// the returned points are exactly the ones satisfying the selection.
Result<std::vector<bson::Document>> DecodeBucket(
    const bson::Document& bucket, const BucketMeta& meta,
    const BucketSelection* selection = nullptr, bool* selected = nullptr);

/// Decodes only the pruning metadata (no column access).
Result<BucketMeta> ParseBucketMeta(const bson::Document& bucket);

/// Logical points a stored document carries: a bucket's meta.n, else 1
/// (row documents, and buckets whose meta does not parse). Chunk
/// accounting, the reshard split sampler, recovery and the shard
/// statistics all count points by this rule.
uint32_t StoredPointCount(const bson::Document& doc);

}  // namespace stix::storage

#endif  // STIX_STORAGE_BUCKET_H_
