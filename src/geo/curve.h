#ifndef STIX_GEO_CURVE_H_
#define STIX_GEO_CURVE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geo/geo.h"

namespace stix::geo {

/// The pluggable 1D linearizations behind hilbertIndex. Each kind is one of
/// three orders (Hilbert, Z-order, Onion) over a GridMapping; `kHilbert` is
/// the paper's choice, the others are the ROADMAP's curve-lab alternatives
/// (Onion: Xu/Nguyen/Tirthapura; entropy-maximizing GeoHash: Arnold — see
/// PAPERS.md). Every kind is a Curve2D built by MakeCurve, so stores,
/// covering, fuzzing and benches treat them uniformly.
enum class CurveKind {
  kHilbert,   ///< Hilbert order over a uniform grid (paper default).
  kZOrder,    ///< Z-order / Morton over a uniform grid (GeoHash layout).
  kOnion,     ///< Onion order over a uniform grid: concentric rings.
  kEGeoHash,  ///< Z-order over an equi-depth grid fitted to a sample.
};

/// Canonical lower-case name ("hilbert", "zorder", "onion", "egeohash") —
/// what Curve2D::name() reports for a curve built as that kind.
const char* CurveKindName(CurveKind kind);

/// Parses a CurveKindName back; returns false on unknown names.
bool CurveKindFromName(const char* name, CurveKind* out);

/// Maps geographic coordinates onto a 2^order x 2^order integer grid over a
/// domain rectangle. Every curve order and the GeoHash cells sit on this
/// mapping, so `hil` vs `hil*` differ only in the domain passed here (globe
/// vs dataset MBR) — exactly the paper's setup.
///
/// By default cells are uniform (domain / grid_size per axis). A mapping may
/// instead carry per-axis *edge tables* — monotone boundary arrays of
/// grid_size()+1 entries fitted to the data distribution (see
/// FitEquiDepthMapping) — in which case LonToX/LatToY binary-search the
/// tables and BlockRect reads extents straight from them, keeping the two
/// views of a cell bit-identical.
///
/// Clamping contract (the covering layer and the key generator both rely on
/// it): out-of-domain coordinates clamp to the boundary cells, a point
/// exactly on the domain's max edge lands in the *last* cell — whose
/// BlockRect extent ends exactly at domain().hi, so the point lies inside
/// its own cell's rectangle — and a NaN coordinate lands in cell 0.
class GridMapping {
 public:
  GridMapping(int order, const Rect& domain);

  /// Warped mapping: `x_edges`/`y_edges` hold grid_size()+1 non-decreasing
  /// cell boundaries per axis with first == domain.lo and last == domain.hi
  /// on that axis (endpoints are overwritten to guarantee it).
  GridMapping(int order, const Rect& domain, std::vector<double> x_edges,
              std::vector<double> y_edges);

  int order() const { return order_; }
  uint32_t grid_size() const { return static_cast<uint32_t>(1) << order_; }
  const Rect& domain() const { return domain_; }

  /// True when this mapping carries fitted edge tables.
  bool warped() const { return !x_edges_.empty(); }

  /// Longitude -> column, clamped into the grid.
  uint32_t LonToX(double lon) const;
  /// Latitude -> row, clamped into the grid.
  uint32_t LatToY(double lat) const;

  /// Geographic extent of the aligned block with corner cell (x, y) spanning
  /// `size` cells per side. Blocks touching the grid's max edge extend
  /// exactly to domain().hi (never an ulp short), so max-edge points agree
  /// with the cells LonToX/LatToY assign them.
  Rect BlockRect(uint32_t x, uint32_t y, uint32_t size) const;

 private:
  uint32_t EdgeToCell(const std::vector<double>& edges, double v) const;

  int order_;
  Rect domain_;
  double cell_w_;
  double cell_h_;
  /// Empty for uniform mappings; grid_size()+1 boundaries otherwise.
  std::vector<double> x_edges_;
  std::vector<double> y_edges_;
};

/// Equi-depth mapping fit (Arnold's entropy-maximizing GeoHash): per axis,
/// sorts the sample's coordinates (clamped into `domain`) and places
/// boundary i at the i/grid_size quantile, so each column (row) holds about
/// the same number of sample points. Under skew, hot regions get many small
/// cells and empty oceans collapse into a few wide ones. Sample points with
/// a non-finite coordinate are skipped; with no finite point left the
/// mapping is the uniform GridMapping(order, domain).
GridMapping FitEquiDepthMapping(int order, const Rect& domain,
                                const std::vector<Point>& sample);

/// A 2D space-filling curve: one order — a bijection between cells (x, y)
/// and positions d in [0, 4^order) — over a GridMapping. The order is the
/// subclass (HilbertCurve, ZOrderCurve, OnionCurve); the mapping and the
/// CurveKind it reports are constructor arguments, so `egeohash` is simply
/// the Z-order over a fitted mapping (see MakeCurve).
///
/// Orders advertising quadtree_blocks() (Hilbert, Z-order) guarantee the
/// quadtree-block property: every aligned 2^k x 2^k block occupies a
/// contiguous, 4^k-aligned range of d values — which makes covering a query
/// rectangle cheap by quadtree descent. Orders without it (Onion) must
/// instead be *continuous* (consecutive d values are edge-adjacent cells) so
/// the covering layer can fall back to its boundary-walk strategy (see
/// covering.h). Both hold in cell space, whatever the mapping.
class Curve2D {
 public:
  Curve2D(CurveKind kind, GridMapping grid)
      : kind_(kind), grid_(std::move(grid)) {}
  virtual ~Curve2D() = default;

  virtual uint64_t XyToD(uint32_t x, uint32_t y) const = 0;
  virtual void DToXy(uint64_t d, uint32_t* x, uint32_t* y) const = 0;

  /// Curve name for benchmark tables, explain() and metrics: the
  /// CurveKindName of the kind this curve was built as.
  const char* name() const { return CurveKindName(kind_); }

  /// Whether aligned blocks map to aligned contiguous d-ranges (see class
  /// comment). Selects the covering strategy.
  virtual bool quadtree_blocks() const { return true; }

  const GridMapping& grid() const { return grid_; }
  int order() const { return grid_.order(); }
  uint64_t num_cells() const {
    return static_cast<uint64_t>(1) << (2 * grid_.order());
  }

  /// 1D position of the cell containing a geographic point.
  uint64_t PointToD(double lon, double lat) const {
    return XyToD(grid_.LonToX(lon), grid_.LatToY(lat));
  }

 private:
  CurveKind kind_;
  GridMapping grid_;
};

}  // namespace stix::geo

#endif  // STIX_GEO_CURVE_H_
