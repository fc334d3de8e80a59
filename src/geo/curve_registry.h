#ifndef STIX_GEO_CURVE_REGISTRY_H_
#define STIX_GEO_CURVE_REGISTRY_H_

#include <memory>
#include <vector>

#include "geo/curve.h"

namespace stix::geo {

/// Builds the curve for `kind`: one order over a 2^order grid spanning
/// `domain`. hilbert, zorder and onion take a uniform GridMapping; egeohash
/// is the zorder order over FitEquiDepthMapping(order, domain, fit_sample)
/// (empty = uniform boundaries, i.e. plain GeoHash cells). Every other kind
/// ignores `fit_sample`. The curve reports `kind`'s name. This is the one
/// place that pairs orders with mappings; stores, benches and the fuzzer go
/// through it, so a new pairing is one registry case away from running
/// everywhere.
std::unique_ptr<Curve2D> MakeCurve(CurveKind kind, int order,
                                   const Rect& domain,
                                   const std::vector<Point>& fit_sample = {});

/// Every registered kind, in a stable order — the "all" axis of benches and
/// the fuzzer.
std::vector<CurveKind> AllCurveKinds();

}  // namespace stix::geo

#endif  // STIX_GEO_CURVE_REGISTRY_H_
