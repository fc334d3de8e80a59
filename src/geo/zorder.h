#ifndef STIX_GEO_ZORDER_H_
#define STIX_GEO_ZORDER_H_

#include "geo/curve.h"

namespace stix::geo {

/// The Z-order (Morton) curve: plain bit interleaving with the longitude (x)
/// bit first per pair, which is exactly the bit layout of GeoHash, whose
/// first bit splits the world east/west. Kept behind the same Curve2D
/// interface as Hilbert so the ablation bench can compare covering quality
/// of the 1D mappings head to head. Over a uniform grid it is `zorder` (and
/// GeoHash); over an equi-depth fitted grid it is `egeohash`.
class ZOrderCurve : public Curve2D {
 public:
  using Curve2D::Curve2D;
  ZOrderCurve(int order, const Rect& domain)
      : Curve2D(CurveKind::kZOrder, GridMapping(order, domain)) {}

  uint64_t XyToD(uint32_t x, uint32_t y) const override;
  void DToXy(uint64_t d, uint32_t* x, uint32_t* y) const override;
};

}  // namespace stix::geo

#endif  // STIX_GEO_ZORDER_H_
