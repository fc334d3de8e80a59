#include "geo/curve_registry.h"

#include "geo/hilbert.h"
#include "geo/onion.h"
#include "geo/zorder.h"

namespace stix::geo {

std::unique_ptr<Curve2D> MakeCurve(CurveKind kind, int order,
                                   const Rect& domain,
                                   const std::vector<Point>& fit_sample) {
  switch (kind) {
    case CurveKind::kHilbert:
      return std::make_unique<HilbertCurve>(kind, GridMapping(order, domain));
    case CurveKind::kZOrder:
      return std::make_unique<ZOrderCurve>(kind, GridMapping(order, domain));
    case CurveKind::kOnion:
      return std::make_unique<OnionCurve>(kind, GridMapping(order, domain));
    case CurveKind::kEGeoHash:
      return std::make_unique<ZOrderCurve>(
          kind, FitEquiDepthMapping(order, domain, fit_sample));
  }
  return nullptr;
}

std::vector<CurveKind> AllCurveKinds() {
  return {CurveKind::kHilbert, CurveKind::kZOrder, CurveKind::kOnion,
          CurveKind::kEGeoHash};
}

}  // namespace stix::geo
