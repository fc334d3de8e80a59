#include "geo/curve.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace stix::geo {
namespace {

// Equi-depth boundaries over one axis: edge i sits at the i/n quantile of
// the sorted sample. Duplicate quantiles (heavy ties) produce empty cells,
// which are harmless: the mapping stays monotone and the covering just
// carries a few zero-width members. Endpoints are pinned by GridMapping.
std::vector<double> EquiDepthEdges(std::vector<double> values, uint32_t n,
                                   double lo, double hi) {
  std::vector<double> edges(static_cast<size_t>(n) + 1);
  edges.front() = lo;
  edges.back() = hi;
  std::sort(values.begin(), values.end());
  for (uint32_t i = 1; i < n; ++i) {
    const size_t idx = static_cast<size_t>(
        (static_cast<uint64_t>(i) * values.size()) / n);
    edges[i] = values[std::min(idx, values.size() - 1)];
  }
  return edges;
}

}  // namespace

const char* CurveKindName(CurveKind kind) {
  switch (kind) {
    case CurveKind::kHilbert:
      return "hilbert";
    case CurveKind::kZOrder:
      return "zorder";
    case CurveKind::kOnion:
      return "onion";
    case CurveKind::kEGeoHash:
      return "egeohash";
  }
  return "?";
}

bool CurveKindFromName(const char* name, CurveKind* out) {
  for (const CurveKind kind :
       {CurveKind::kHilbert, CurveKind::kZOrder, CurveKind::kOnion,
        CurveKind::kEGeoHash}) {
    if (std::strcmp(name, CurveKindName(kind)) == 0) {
      *out = kind;
      return true;
    }
  }
  return false;
}

GridMapping::GridMapping(int order, const Rect& domain)
    : order_(order), domain_(domain) {
  assert(order >= 1 && order <= 16 && "curve order must be in [1, 16]");
  cell_w_ = domain_.width() / static_cast<double>(grid_size());
  cell_h_ = domain_.height() / static_cast<double>(grid_size());
}

GridMapping::GridMapping(int order, const Rect& domain,
                         std::vector<double> x_edges,
                         std::vector<double> y_edges)
    : GridMapping(order, domain) {
  const size_t n = static_cast<size_t>(grid_size()) + 1;
  assert(x_edges.size() == n && y_edges.size() == n &&
         "edge tables need grid_size() + 1 boundaries");
  x_edges_ = std::move(x_edges);
  y_edges_ = std::move(y_edges);
  // Pin the endpoints to the domain exactly and force monotonicity, so the
  // clamping contract (max edge -> last cell, BlockRect ends at domain.hi)
  // holds regardless of how the caller fitted the interior boundaries.
  x_edges_.front() = domain_.lo.lon;
  x_edges_.back() = domain_.hi.lon;
  y_edges_.front() = domain_.lo.lat;
  y_edges_.back() = domain_.hi.lat;
  for (size_t i = 1; i < n; ++i) {
    x_edges_[i] = std::max(x_edges_[i], x_edges_[i - 1]);
    y_edges_[i] = std::max(y_edges_[i], y_edges_[i - 1]);
  }
}

uint32_t GridMapping::EdgeToCell(const std::vector<double>& edges,
                                 double v) const {
  // Cell i spans [edges[i], edges[i+1]); the last cell is closed on both
  // sides. Searching only the interior boundaries clamps out-of-domain
  // values (and the max edge itself) into the boundary cells for free.
  // NaN compares false against every boundary, so it is sent to cell 0
  // explicitly, as the uniform mapping does.
  if (std::isnan(v)) return 0;
  const auto first = edges.begin() + 1;
  const auto last = edges.end() - 1;
  return static_cast<uint32_t>(std::upper_bound(first, last, v) - first);
}

uint32_t GridMapping::LonToX(double lon) const {
  if (warped()) return EdgeToCell(x_edges_, lon);
  const double t = (lon - domain_.lo.lon) / cell_w_;
  // Written negated so NaN lands in cell 0 instead of reaching the cast.
  if (!(t > 0.0)) return 0;
  const uint32_t max = grid_size() - 1;
  // Clamp in double space *before* the integer cast: casting a value at or
  // beyond 2^32 to uint32_t is undefined, and the domain's max edge
  // (t == grid_size) must land in the last cell, not one past it.
  if (t >= static_cast<double>(max)) return max;
  return static_cast<uint32_t>(t);
}

uint32_t GridMapping::LatToY(double lat) const {
  if (warped()) return EdgeToCell(y_edges_, lat);
  const double t = (lat - domain_.lo.lat) / cell_h_;
  if (!(t > 0.0)) return 0;
  const uint32_t max = grid_size() - 1;
  if (t >= static_cast<double>(max)) return max;
  return static_cast<uint32_t>(t);
}

Rect GridMapping::BlockRect(uint32_t x, uint32_t y, uint32_t size) const {
  const uint32_t n = grid_size();
  const uint32_t x1 = x + size >= n ? n : x + size;
  const uint32_t y1 = y + size >= n ? n : y + size;
  Rect r;
  if (warped()) {
    r.lo.lon = x_edges_[x];
    r.lo.lat = y_edges_[y];
    r.hi.lon = x_edges_[x1];
    r.hi.lat = y_edges_[y1];
    return r;
  }
  r.lo.lon = domain_.lo.lon + cell_w_ * static_cast<double>(x);
  r.lo.lat = domain_.lo.lat + cell_h_ * static_cast<double>(y);
  // Blocks on the grid's max edge end exactly at domain.hi: accumulating
  // cell_w_ * n can fall an ulp short of it, which would put a point keyed
  // into the last cell outside that cell's reported extent.
  r.hi.lon = x1 == n ? domain_.hi.lon
                     : domain_.lo.lon + cell_w_ * static_cast<double>(x1);
  r.hi.lat = y1 == n ? domain_.hi.lat
                     : domain_.lo.lat + cell_h_ * static_cast<double>(y1);
  return r;
}

GridMapping FitEquiDepthMapping(int order, const Rect& domain,
                                const std::vector<Point>& sample) {
  std::vector<double> lons, lats;
  lons.reserve(sample.size());
  lats.reserve(sample.size());
  for (const Point& p : sample) {
    // std::sort needs a strict weak order, which a NaN breaks.
    if (!std::isfinite(p.lon) || !std::isfinite(p.lat)) continue;
    lons.push_back(std::clamp(p.lon, domain.lo.lon, domain.hi.lon));
    lats.push_back(std::clamp(p.lat, domain.lo.lat, domain.hi.lat));
  }
  if (lons.empty()) return GridMapping(order, domain);
  const uint32_t n = static_cast<uint32_t>(1) << order;
  return GridMapping(
      order, domain,
      EquiDepthEdges(std::move(lons), n, domain.lo.lon, domain.hi.lon),
      EquiDepthEdges(std::move(lats), n, domain.lo.lat, domain.hi.lat));
}

}  // namespace stix::geo
