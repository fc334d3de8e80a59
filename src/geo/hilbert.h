#ifndef STIX_GEO_HILBERT_H_
#define STIX_GEO_HILBERT_H_

#include "geo/curve.h"

namespace stix::geo {

/// The Hilbert space-filling curve — the paper's 1D mapping of choice, picked
/// for its clustering properties (Moon et al., TKDE 2001): consecutive d
/// values are always edge-adjacent cells, so nearby points get nearby
/// hilbertIndex values.
class HilbertCurve : public Curve2D {
 public:
  using Curve2D::Curve2D;
  /// `order` bits per dimension over a uniform grid; `domain` is the
  /// geographic extent the grid spans (globe for `hil`, dataset MBR for
  /// `hil*`).
  HilbertCurve(int order, const Rect& domain)
      : Curve2D(CurveKind::kHilbert, GridMapping(order, domain)) {}

  uint64_t XyToD(uint32_t x, uint32_t y) const override;
  void DToXy(uint64_t d, uint32_t* x, uint32_t* y) const override;
};

}  // namespace stix::geo

#endif  // STIX_GEO_HILBERT_H_
