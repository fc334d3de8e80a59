#ifndef STIX_GEO_ONION_H_
#define STIX_GEO_ONION_H_

#include "geo/curve.h"

namespace stix::geo {

/// The Onion curve (Xu, Nguyen, Tirthapura — see PAPERS.md): cells are
/// visited in concentric square rings from the grid's outer boundary inward,
/// each ring walked as one continuous loop that ends adjacent to the next
/// ring's start. The construction achieves near-optimal clustering for
/// square range queries — a query rect deep inside the grid intersects few
/// rings, each contributing one contiguous d-range.
///
/// The curve is *continuous* (consecutive d values are edge-adjacent cells)
/// but does NOT have the quadtree-block property: an aligned 2^k block
/// straddles many rings, so its d values are not one aligned interval.
/// quadtree_blocks() is false, which routes covering through the
/// boundary-walk strategy (covering.h).
class OnionCurve : public Curve2D {
 public:
  using Curve2D::Curve2D;
  OnionCurve(int order, const Rect& domain)
      : Curve2D(CurveKind::kOnion, GridMapping(order, domain)) {}

  uint64_t XyToD(uint32_t x, uint32_t y) const override;
  void DToXy(uint64_t d, uint32_t* x, uint32_t* y) const override;
  bool quadtree_blocks() const override { return false; }
};

}  // namespace stix::geo

#endif  // STIX_GEO_ONION_H_
