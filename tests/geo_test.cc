#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/covering.h"
#include "geo/curve_registry.h"
#include "geo/geohash.h"
#include "geo/hilbert.h"
#include "geo/onion.h"
#include "geo/zorder.h"

namespace stix::geo {
namespace {

// ---------- Rect ----------

TEST(RectTest, ContainsIsClosed) {
  const Rect r{{0, 0}, {10, 5}};
  EXPECT_TRUE(r.Contains({0, 0}));
  EXPECT_TRUE(r.Contains({10, 5}));
  EXPECT_TRUE(r.Contains({5, 2.5}));
  EXPECT_FALSE(r.Contains({10.001, 2}));
  EXPECT_FALSE(r.Contains({5, -0.001}));
}

TEST(RectTest, IntersectsAndContainsRect) {
  const Rect a{{0, 0}, {10, 10}};
  const Rect b{{5, 5}, {15, 15}};
  const Rect c{{11, 11}, {12, 12}};
  const Rect inner{{2, 2}, {3, 3}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.ContainsRect(inner));
  EXPECT_FALSE(a.ContainsRect(b));
}

TEST(RectTest, AreaKm2Plausible) {
  // The paper's small query rect covers a few tens of km^2 (it reports
  // 526 km^2 for a rectangle that is actually ~0.5 km^2 in planar math; we
  // just check the spherical computation is in a sane range).
  const double athens = RectAreaKm2(
      Rect{{23.757495, 37.987295}, {23.766958, 37.992997}});
  EXPECT_GT(athens, 0.1);
  EXPECT_LT(athens, 10.0);
  // One degree square near the equator is ~12,300 km^2.
  const double equator = RectAreaKm2(Rect{{0, 0}, {1, 1}});
  EXPECT_NEAR(equator, 12364.0, 150.0);
}

// ---------- GridMapping ----------

TEST(GridMappingTest, ClampsOutOfDomain) {
  const GridMapping grid(4, Rect{{0, 0}, {16, 16}});
  EXPECT_EQ(grid.LonToX(-5), 0u);
  EXPECT_EQ(grid.LonToX(100), 15u);
  EXPECT_EQ(grid.LatToY(-5), 0u);
  EXPECT_EQ(grid.LatToY(100), 15u);
}

TEST(GridMappingTest, CellBoundariesAlign) {
  const GridMapping grid(3, Rect{{0, 0}, {8, 8}});
  EXPECT_EQ(grid.LonToX(2.999), 2u);
  EXPECT_EQ(grid.LonToX(3.0), 3u);
  const Rect block = grid.BlockRect(2, 4, 2);
  EXPECT_DOUBLE_EQ(block.lo.lon, 2.0);
  EXPECT_DOUBLE_EQ(block.lo.lat, 4.0);
  EXPECT_DOUBLE_EQ(block.hi.lon, 4.0);
  EXPECT_DOUBLE_EQ(block.hi.lat, 6.0);
}

// ---------- curves: shared properties ----------

class CurveParamTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Curve2D> MakeTestCurve(int order) const {
    CurveKind kind;
    EXPECT_TRUE(CurveKindFromName(GetParam(), &kind)) << GetParam();
    return MakeCurve(kind, order, Rect{{-180, -90}, {180, 90}});
  }
};

TEST_P(CurveParamTest, BijectionOnSmallGrid) {
  const auto curve = MakeTestCurve(4);  // 16x16
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 16; ++x) {
    for (uint32_t y = 0; y < 16; ++y) {
      const uint64_t d = curve->XyToD(x, y);
      EXPECT_LT(d, curve->num_cells());
      EXPECT_TRUE(seen.insert(d).second) << "duplicate d=" << d;
      uint32_t rx, ry;
      curve->DToXy(d, &rx, &ry);
      EXPECT_EQ(rx, x);
      EXPECT_EQ(ry, y);
    }
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST_P(CurveParamTest, RoundTripAtOrder13) {
  const auto curve = MakeTestCurve(13);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t x = static_cast<uint32_t>(rng.NextBounded(1u << 13));
    const uint32_t y = static_cast<uint32_t>(rng.NextBounded(1u << 13));
    uint32_t rx, ry;
    curve->DToXy(curve->XyToD(x, y), &rx, &ry);
    EXPECT_EQ(rx, x);
    EXPECT_EQ(ry, y);
  }
}

TEST_P(CurveParamTest, QuadtreeBlocksAreAlignedContiguousRanges) {
  // The property the covering algorithm exploits: any aligned 2^k x 2^k
  // block occupies exactly one aligned d-range of width 4^k.
  const int order = 5;
  const auto curve = MakeTestCurve(order);
  if (!curve->quadtree_blocks()) {
    GTEST_SKIP() << curve->name()
                 << " does not claim the quadtree-block property (its"
                    " coverings use the boundary walk instead)";
  }
  for (int k = 0; k <= order; ++k) {
    const uint32_t size = 1u << k;
    const uint64_t width = 1ull << (2 * k);
    for (uint32_t bx = 0; bx < (1u << order); bx += size) {
      for (uint32_t by = 0; by < (1u << order); by += size) {
        const uint64_t base = curve->XyToD(bx, by) & ~(width - 1);
        for (uint32_t dx = 0; dx < size; ++dx) {
          for (uint32_t dy = 0; dy < size; ++dy) {
            const uint64_t d = curve->XyToD(bx + dx, by + dy);
            ASSERT_GE(d, base);
            ASSERT_LT(d, base + width);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Curves, CurveParamTest,
                         ::testing::Values("hilbert", "zorder", "onion",
                                           "egeohash"));

// ---------- Hilbert specifics ----------

TEST(HilbertTest, ConsecutiveDsAreAdjacentCells) {
  // The clustering property (Moon et al.) that motivated the paper's choice:
  // successive curve positions are edge neighbours.
  const HilbertCurve curve(6, GlobeRect());
  uint32_t px, py;
  curve.DToXy(0, &px, &py);
  for (uint64_t d = 1; d < curve.num_cells(); ++d) {
    uint32_t x, y;
    curve.DToXy(d, &x, &y);
    const uint32_t manhattan =
        (x > px ? x - px : px - x) + (y > py ? y - py : py - y);
    ASSERT_EQ(manhattan, 1u) << "jump at d=" << d;
    px = x;
    py = y;
  }
}

TEST(HilbertTest, Order1MatchesTextbookLayout) {
  // Order-1 Hilbert visits (0,0) -> (0,1) -> (1,1) -> (1,0).
  const HilbertCurve curve(1, Rect{{0, 0}, {2, 2}});
  EXPECT_EQ(curve.XyToD(0, 0), 0u);
  EXPECT_EQ(curve.XyToD(0, 1), 1u);
  EXPECT_EQ(curve.XyToD(1, 1), 2u);
  EXPECT_EQ(curve.XyToD(1, 0), 3u);
}

TEST(ZOrderTest, InterleavesLongitudeFirst) {
  const ZOrderCurve curve(2, Rect{{0, 0}, {4, 4}});
  // x=1 contributes the higher bit of each pair.
  EXPECT_EQ(curve.XyToD(0, 0), 0u);
  EXPECT_EQ(curve.XyToD(0, 1), 1u);
  EXPECT_EQ(curve.XyToD(1, 0), 2u);
  EXPECT_EQ(curve.XyToD(1, 1), 3u);
  EXPECT_EQ(curve.XyToD(2, 0), 8u);
}

// ---------- GeoHash ----------

TEST(GeoHashTest, AthensBase32MatchesThePaper) {
  // Paper Section 2.1: Athens (37.983810, 23.727539). The paper prints
  // "swbb5ftzes" at precision 10, but the canonical GeoHash algorithm
  // yields "swbb5ftzex" (the last character differs — paper typo); the
  // precision-5 prefix "swbb5" agrees either way.
  EXPECT_EQ(GeoHashBase32(23.727539, 37.983810, 10), "swbb5ftzex");
  EXPECT_EQ(GeoHashBase32(23.727539, 37.983810, 5), "swbb5");
}

TEST(GeoHashTest, Base32DecodeReturnsCellCenter) {
  double lon, lat;
  ASSERT_TRUE(GeoHashBase32Decode("swbb5ftzes", &lon, &lat));
  EXPECT_NEAR(lon, 23.727539, 1e-4);
  EXPECT_NEAR(lat, 37.983810, 1e-4);
  EXPECT_FALSE(GeoHashBase32Decode("swbb5!", &lon, &lat));
}

TEST(GeoHashTest, EncodeStaysWithinBits) {
  const GeoHash gh(26);
  const uint64_t h = gh.Encode(23.727539, 37.983810);
  EXPECT_LT(h, 1ull << 26);
}

TEST(GeoHashTest, CellRectContainsPoint) {
  const GeoHash gh(26);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const double lon = rng.NextDouble(-180, 180);
    const double lat = rng.NextDouble(-90, 90);
    const Rect cell = gh.CellRect(gh.Encode(lon, lat));
    EXPECT_TRUE(cell.Contains({lon, lat}))
        << "lon=" << lon << " lat=" << lat;
  }
}

TEST(GeoHashTest, NearbyPointsShareCellAtLowPrecision) {
  const GeoHash coarse(8);
  EXPECT_EQ(coarse.Encode(23.7275, 37.9838), coarse.Encode(23.7280, 37.9840));
}

// ---------- coverings ----------

TEST(CoveringTest, ExhaustiveAgainstBruteForce) {
  // On a small grid, the covering must contain exactly the cells of the
  // integer span the query corners map to — the same clamped LonToX/LatToY
  // mapping document keys go through, so covering membership and key
  // generation can never disagree (not even at ulp-level cell boundaries,
  // where the old floating-point block-extent test could drop a cell).
  const Rect domain{{0, 0}, {16, 16}};
  const HilbertCurve hilbert(4, domain);
  const ZOrderCurve zorder(4, domain);
  Rng rng(21);
  for (int trial = 0; trial < 60; ++trial) {
    const double x1 = rng.NextDouble(0, 16);
    const double x2 = rng.NextDouble(0, 16);
    const double y1 = rng.NextDouble(0, 16);
    const double y2 = rng.NextDouble(0, 16);
    const Rect query{{std::min(x1, x2), std::min(y1, y2)},
                     {std::max(x1, x2), std::max(y1, y2)}};
    for (const Curve2D* curve :
         {static_cast<const Curve2D*>(&hilbert),
          static_cast<const Curve2D*>(&zorder)}) {
      const GridMapping& grid = curve->grid();
      const uint32_t qx0 = grid.LonToX(query.lo.lon);
      const uint32_t qx1 = grid.LonToX(query.hi.lon);
      const uint32_t qy0 = grid.LatToY(query.lo.lat);
      const uint32_t qy1 = grid.LatToY(query.hi.lat);
      const Covering covering = CoverRect(*curve, query);
      for (uint32_t x = 0; x < 16; ++x) {
        for (uint32_t y = 0; y < 16; ++y) {
          const bool expected = x >= qx0 && x <= qx1 && y >= qy0 && y <= qy1;
          const bool actual =
              CoveringContains(covering, curve->XyToD(x, y));
          ASSERT_EQ(expected, actual)
              << curve->name() << " cell (" << x << "," << y << ")";
        }
      }
    }
  }
}

TEST(CoveringTest, RangesAreSortedDisjointNonAdjacent) {
  const HilbertCurve curve(10, GlobeRect());
  const Covering covering =
      CoverRect(curve, Rect{{10, 10}, {40, 30}});
  ASSERT_FALSE(covering.ranges.empty());
  for (size_t i = 0; i < covering.ranges.size(); ++i) {
    EXPECT_LE(covering.ranges[i].lo, covering.ranges[i].hi);
    if (i > 0) {
      // Strictly after the previous range, with a gap (else merge failed).
      EXPECT_GT(covering.ranges[i].lo, covering.ranges[i - 1].hi + 1);
    }
  }
}

TEST(CoveringTest, NumCellsMatchesRangeWidths) {
  const HilbertCurve curve(8, GlobeRect());
  const Covering covering = CoverRect(curve, Rect{{-10, -10}, {15, 20}});
  uint64_t total = 0;
  for (const DRange& r : covering.ranges) total += r.hi - r.lo + 1;
  EXPECT_EQ(total, covering.num_cells);
}

TEST(CoveringTest, WholeDomainIsOneRange) {
  const HilbertCurve curve(7, GlobeRect());
  const Covering covering = CoverRect(curve, GlobeRect());
  ASSERT_EQ(covering.ranges.size(), 1u);
  EXPECT_EQ(covering.ranges[0].lo, 0u);
  EXPECT_EQ(covering.ranges[0].hi, curve.num_cells() - 1);
}

TEST(CoveringTest, DisjointQueryClampsToBoundaryCells) {
  // A rectangle entirely outside the grid domain clamps to the boundary
  // cell its corners map to — the cell where out-of-domain documents are
  // keyed (hil*'s dataset-MBR case), so such documents are still reachable
  // through the index. The covering of a rectangle is never empty.
  const HilbertCurve curve(6, Rect{{0, 0}, {10, 10}});
  const Covering covering = CoverRect(curve, Rect{{20, 20}, {30, 30}});
  ASSERT_EQ(covering.num_cells, 1u);
  // An out-of-domain point (clamped by PointToD) lands in that exact cell.
  EXPECT_TRUE(CoveringContains(covering, curve.PointToD(25.0, 25.0)));
  EXPECT_TRUE(CoveringContains(covering, curve.PointToD(1e9, 1e9)));
}

TEST(CoveringTest, PointsInsideQueryAlwaysCovered) {
  const HilbertCurve curve(13, GlobeRect());
  const Rect query{{23.606039, 38.023982}, {24.032754, 38.353926}};
  const Covering covering = CoverRect(curve, query);
  Rng rng(33);
  for (int i = 0; i < 1000; ++i) {
    const double lon = rng.NextDouble(query.lo.lon, query.hi.lon);
    const double lat = rng.NextDouble(query.lo.lat, query.hi.lat);
    EXPECT_TRUE(CoveringContains(covering, curve.PointToD(lon, lat)));
  }
}

TEST(CoveringTest, MaxRangesBudgetCoarsensButStillCovers) {
  const HilbertCurve curve(13, GlobeRect());
  const Rect query{{23.606039, 38.023982}, {24.032754, 38.353926}};
  const Covering exact = CoverRect(curve, query);
  CoveringOptions opts;
  opts.max_ranges = 8;
  const Covering coarse = CoverRect(curve, query, opts);
  EXPECT_LE(coarse.ranges.size(), exact.ranges.size());
  EXPECT_GE(coarse.num_cells, exact.num_cells);
  Rng rng(34);
  for (int i = 0; i < 300; ++i) {
    const double lon = rng.NextDouble(query.lo.lon, query.hi.lon);
    const double lat = rng.NextDouble(query.lo.lat, query.hi.lat);
    EXPECT_TRUE(CoveringContains(coarse, curve.PointToD(lon, lat)));
  }
}

TEST(CoveringTest, HilbertProducesFewerRangesThanZOrderOnPaperQueries) {
  // The clustering advantage [Moon et al. 2001] the paper cites: for the
  // same rectangle the Hilbert covering compresses into no more intervals
  // than Z-order's (usually strictly fewer).
  const HilbertCurve hilbert(13, GlobeRect());
  const ZOrderCurve zorder(13, GlobeRect());
  const Rect big{{23.606039, 38.023982}, {24.032754, 38.353926}};
  const Covering ch = CoverRect(hilbert, big);
  const Covering cz = CoverRect(zorder, big);
  EXPECT_LE(ch.ranges.size(), cz.ranges.size());
  EXPECT_EQ(ch.num_cells, cz.num_cells);  // same cells, different order
}

TEST(CoveringTest, DegeneratePointRectCoversOneCellPerCurvePosition) {
  const HilbertCurve curve(13, GlobeRect());
  const Rect point{{23.7275, 37.9838}, {23.7275, 37.9838}};
  const Covering covering = CoverRect(curve, point);
  ASSERT_FALSE(covering.ranges.empty());
  // A point touches at most 4 cells (when exactly on a corner).
  EXPECT_LE(covering.num_cells, 4u);
  EXPECT_TRUE(
      CoveringContains(covering, curve.PointToD(23.7275, 37.9838)));
}

TEST(CoveringTest, DeterministicAcrossCalls) {
  const HilbertCurve curve(12, GlobeRect());
  const Rect q{{5.0, 5.0}, {9.5, 11.25}};
  const Covering a = CoverRect(curve, q);
  const Covering b = CoverRect(curve, q);
  ASSERT_EQ(a.ranges.size(), b.ranges.size());
  for (size_t i = 0; i < a.ranges.size(); ++i) {
    EXPECT_EQ(a.ranges[i], b.ranges[i]);
  }
}

TEST(GridMappingTest, Order16RoundTrips) {
  const HilbertCurve curve(16, GlobeRect());
  Rng rng(71);
  for (int i = 0; i < 500; ++i) {
    const uint32_t x = static_cast<uint32_t>(rng.NextBounded(1u << 16));
    const uint32_t y = static_cast<uint32_t>(rng.NextBounded(1u << 16));
    uint32_t rx, ry;
    curve.DToXy(curve.XyToD(x, y), &rx, &ry);
    EXPECT_EQ(rx, x);
    EXPECT_EQ(ry, y);
    EXPECT_LT(curve.XyToD(x, y), curve.num_cells());
  }
}

TEST(GeoDistanceTest, HaversineKnownValues) {
  // Athens <-> Thessaloniki is ~300 km.
  const double d = HaversineMeters({23.7275, 37.9838}, {22.9444, 40.6401});
  EXPECT_NEAR(d, 301000, 5000);
  EXPECT_DOUBLE_EQ(HaversineMeters({10, 10}, {10, 10}), 0.0);
}

TEST(GeoDistanceTest, RectAroundPointHasRequestedReach) {
  const geo::Point center{23.7275, 37.9838};
  const Rect r = RectAroundPoint(center, 1000.0);
  EXPECT_TRUE(r.Contains(center));
  // The north edge is ~1000 m away.
  EXPECT_NEAR(HaversineMeters(center, {center.lon, r.hi.lat}), 1000.0, 20.0);
  // The east edge too (longitude compensated by latitude).
  EXPECT_NEAR(HaversineMeters(center, {r.hi.lon, center.lat}), 1000.0, 20.0);
}

TEST(CoveringContainsTest, BinarySearchEdges) {
  Covering c;
  c.ranges = {DRange{5, 9}, DRange{20, 20}, DRange{30, 40}};
  EXPECT_FALSE(CoveringContains(c, 4));
  EXPECT_TRUE(CoveringContains(c, 5));
  EXPECT_TRUE(CoveringContains(c, 9));
  EXPECT_FALSE(CoveringContains(c, 10));
  EXPECT_TRUE(CoveringContains(c, 20));
  EXPECT_FALSE(CoveringContains(c, 21));
  EXPECT_TRUE(CoveringContains(c, 40));
  EXPECT_FALSE(CoveringContains(c, 41));
}

TEST(CoveringTest, SingletonCount) {
  Covering c;
  c.ranges = {DRange{1, 1}, DRange{3, 7}, DRange{9, 9}};
  EXPECT_EQ(c.NumSingletons(), 2u);
}

// ---------- covering property tests across curves, orders, domains ----------

// Every covering must be sorted, disjoint, non-adjacent (maximal ranges),
// and num_cells must equal the sum of range widths.
void ExpectWellFormedCovering(const Covering& c) {
  uint64_t cells = 0;
  for (size_t i = 0; i < c.ranges.size(); ++i) {
    ASSERT_LE(c.ranges[i].lo, c.ranges[i].hi) << "range " << i;
    if (i > 0) {
      // lo > prev.hi + 1: adjacent ranges would not be maximal.
      ASSERT_GT(c.ranges[i].lo, c.ranges[i - 1].hi + 1) << "range " << i;
    }
    cells += c.ranges[i].hi - c.ranges[i].lo + 1;
  }
  EXPECT_EQ(c.num_cells, cells);
}

// A random query rectangle spanning at most `max_span` cells per side,
// placed uniformly in the domain. Bounding the span in *cells* keeps
// CoverRect's perimeter cost flat as the order grows to 16.
Rect RandomCellRect(Rng& rng, const GridMapping& grid, uint32_t max_span) {
  const uint32_t n = grid.grid_size();
  const double cell_w = (grid.domain().hi.lon - grid.domain().lo.lon) / n;
  const double cell_h = (grid.domain().hi.lat - grid.domain().lo.lat) / n;
  const uint32_t w = 1 + rng.NextBounded(std::min(n, max_span));
  const uint32_t h = 1 + rng.NextBounded(std::min(n, max_span));
  const uint32_t x0 = static_cast<uint32_t>(rng.NextBounded(n - w + 1));
  const uint32_t y0 = static_cast<uint32_t>(rng.NextBounded(n - h + 1));
  // Fractional offsets keep the corners strictly inside their cells, so the
  // rectangle is not grid-aligned (the harder case for the descent).
  const double lo_lon =
      grid.domain().lo.lon + (x0 + rng.NextDouble() * 0.5) * cell_w;
  const double lo_lat =
      grid.domain().lo.lat + (y0 + rng.NextDouble() * 0.5) * cell_h;
  const double hi_lon = grid.domain().lo.lon +
                        (x0 + w - 1 + 0.5 + rng.NextDouble() * 0.5) * cell_w;
  const double hi_lat = grid.domain().lo.lat +
                        (y0 + h - 1 + 0.5 + rng.NextDouble() * 0.5) * cell_h;
  return Rect{{lo_lon, lo_lat}, {hi_lon, hi_lat}};
}

// The core soundness property behind query correctness (a cell missing
// from the covering would silently drop matching documents): every point
// inside the rectangle maps to a covered cell. Exactness: for an
// axis-aligned rect the intersecting cells are exactly the cell bounding
// box, so num_cells is known in closed form.
void CheckCoveringProperties(const Curve2D& curve, Rng& rng) {
  const GridMapping& grid = curve.grid();
  const Rect query = RandomCellRect(rng, grid, 14);
  const Covering covering = CoverRect(curve, query);
  ExpectWellFormedCovering(covering);

  const uint64_t cells_x =
      grid.LonToX(query.hi.lon) - grid.LonToX(query.lo.lon) + 1;
  const uint64_t cells_y =
      grid.LatToY(query.hi.lat) - grid.LatToY(query.lo.lat) + 1;
  EXPECT_EQ(covering.num_cells, cells_x * cells_y)
      << curve.name() << " order " << curve.order();

  auto check_point = [&](double lon, double lat) {
    EXPECT_TRUE(CoveringContains(covering, curve.PointToD(lon, lat)))
        << curve.name() << " order " << curve.order() << " point (" << lon
        << ", " << lat << ") rect [" << query.lo.lon << "," << query.lo.lat
        << "]..[" << query.hi.lon << "," << query.hi.lat << "]";
  };
  check_point(query.lo.lon, query.lo.lat);
  check_point(query.hi.lon, query.hi.lat);
  check_point(query.lo.lon, query.hi.lat);
  check_point(query.hi.lon, query.lo.lat);
  for (int i = 0; i < 24; ++i) {
    check_point(rng.NextDouble(query.lo.lon, query.hi.lon),
                rng.NextDouble(query.lo.lat, query.hi.lat));
  }

  // A max_ranges budget may coarsen the covering but must stay sound and
  // can only grow the cell count (frontier blocks are emitted whole).
  for (const size_t budget : {size_t{1}, size_t{4}, size_t{16}}) {
    CoveringOptions opts;
    opts.max_ranges = budget;
    const Covering coarse = CoverRect(curve, query, opts);
    ExpectWellFormedCovering(coarse);
    EXPECT_LE(coarse.ranges.size(), budget)
        << curve.name() << " order " << curve.order();
    EXPECT_GE(coarse.num_cells, covering.num_cells);
    for (int i = 0; i < 8; ++i) {
      const double lon = rng.NextDouble(query.lo.lon, query.hi.lon);
      const double lat = rng.NextDouble(query.lo.lat, query.hi.lat);
      EXPECT_TRUE(CoveringContains(coarse, curve.PointToD(lon, lat)))
          << curve.name() << " order " << curve.order() << " budget "
          << budget;
    }
  }
}

TEST(CoveringPropertyTest, HilbertAllOrdersGlobeDomain) {
  Rng rng(9001);
  for (int order = 1; order <= 16; ++order) {
    const HilbertCurve curve(order, GlobeRect());
    for (int trial = 0; trial < 3; ++trial) CheckCoveringProperties(curve, rng);
  }
}

TEST(CoveringPropertyTest, ZOrderAllOrdersGlobeDomain) {
  Rng rng(9002);
  for (int order = 1; order <= 16; ++order) {
    const ZOrderCurve curve(order, GlobeRect());
    for (int trial = 0; trial < 3; ++trial) CheckCoveringProperties(curve, rng);
  }
}

// ---------- domain-edge property tests (antimeridian, poles, beyond-MBR) ----------

// Soundness at the edges of the curve domain: every point inside the query
// rectangle — including points the grid clamps in from outside the domain —
// must map (via the same clamped PointToD that keys documents) to a covered
// cell. A miss here is the silent-drop bug class: the document is keyed
// into a cell the covering does not reach.
void CheckEdgeRect(const Curve2D& curve, const Rect& query, Rng& rng) {
  const Covering covering = CoverRect(curve, query);
  ExpectWellFormedCovering(covering);
  ASSERT_FALSE(covering.ranges.empty())
      << curve.name() << " order " << curve.order();
  auto check_point = [&](double lon, double lat) {
    EXPECT_TRUE(CoveringContains(covering, curve.PointToD(lon, lat)))
        << curve.name() << " order " << curve.order() << " point (" << lon
        << ", " << lat << ") rect [" << query.lo.lon << "," << query.lo.lat
        << "]..[" << query.hi.lon << "," << query.hi.lat << "]";
  };
  check_point(query.lo.lon, query.lo.lat);
  check_point(query.hi.lon, query.hi.lat);
  check_point(query.lo.lon, query.hi.lat);
  check_point(query.hi.lon, query.lo.lat);
  for (int i = 0; i < 32; ++i) {
    check_point(rng.NextDouble(query.lo.lon, query.hi.lon),
                rng.NextDouble(query.lo.lat, query.hi.lat));
  }
}

TEST(CoveringEdgeTest, AntimeridianAndPoleRects) {
  Rng rng(9100);
  const Rect edge_rects[] = {
      Rect{{179.0, 10.0}, {180.0, 20.0}},      // eastern antimeridian edge
      Rect{{-180.0, -20.0}, {-179.0, -10.0}},  // western antimeridian edge
      Rect{{170.0, 80.0}, {180.0, 90.0}},      // north-pole corner
      Rect{{-180.0, -90.0}, {-170.0, -80.0}},  // south-pole corner
      Rect{{-180.0, 89.9}, {180.0, 90.0}},     // polar cap strip
      Rect{{180.0, 90.0}, {180.0, 90.0}},      // degenerate corner point
      Rect{{-180.0, -90.0}, {180.0, 90.0}},    // whole globe
  };
  for (const int order : {1, 4, 9, 13, 16}) {
    const HilbertCurve hilbert(order, GlobeRect());
    const ZOrderCurve zorder(order, GlobeRect());
    for (const Rect& q : edge_rects) {
      CheckEdgeRect(hilbert, q, rng);
      CheckEdgeRect(zorder, q, rng);
    }
  }
  // GeoHash keys documents through Encode (the curve's clamped PointToD);
  // coverings of the same curve must reach every encoded corner cell.
  const GeoHash geohash(26);
  for (const Rect& q : edge_rects) {
    const Covering c = CoverRect(geohash.curve(), q);
    EXPECT_TRUE(CoveringContains(c, geohash.Encode(q.lo.lon, q.lo.lat)));
    EXPECT_TRUE(CoveringContains(c, geohash.Encode(q.hi.lon, q.hi.lat)));
    EXPECT_TRUE(CoveringContains(c, geohash.Encode(q.lo.lon, q.hi.lat)));
    EXPECT_TRUE(CoveringContains(c, geohash.Encode(q.hi.lon, q.lo.lat)));
  }
}

TEST(CoveringEdgeTest, QueriesBeyondDatasetMbrReachClampedPoints) {
  // The hil* case: the curve domain is the dataset MBR, but documents (and
  // queries) may sit outside it — both clamp to the boundary cells, and a
  // query overlapping a document's true position must cover the cell the
  // document was keyed into.
  const Rect mbr{{23.0, 37.0}, {25.0, 39.0}};
  Rng rng(9101);
  for (const int order : {2, 6, 11}) {
    const HilbertCurve hilbert(order, mbr);
    const ZOrderCurve zorder(order, mbr);
    for (const Curve2D* curve :
         {static_cast<const Curve2D*>(&hilbert),
          static_cast<const Curve2D*>(&zorder)}) {
      // Overlaps the MBR's east edge and extends far beyond it.
      CheckEdgeRect(*curve, Rect{{24.5, 38.0}, {30.0, 38.5}}, rng);
      // Sits entirely outside, north-east of the MBR.
      CheckEdgeRect(*curve, Rect{{40.0, 40.0}, {50.0, 50.0}}, rng);
      // Straddles the whole MBR and more.
      CheckEdgeRect(*curve, Rect{{-10.0, 0.0}, {60.0, 60.0}}, rng);
    }
  }
}

TEST(CoveringEdgeTest, UlpBoundaryPointsAlwaysCovered) {
  // Degenerate query rectangles sitting exactly on interior cell
  // boundaries, and one ulp to either side. Under the old floating-point
  // block-extent descent the covering and the key mapping could round a
  // boundary into different cells; the integer-space descent shares the
  // mapping, so the covered cell is the keyed cell by construction.
  Rng rng(9102);
  for (const int order : {4, 10, 16}) {
    const HilbertCurve curve(order, GlobeRect());
    const GridMapping& grid = curve.grid();
    const uint32_t n = grid.grid_size();
    for (int trial = 0; trial < 40; ++trial) {
      const uint32_t x = static_cast<uint32_t>(rng.NextBounded(n));
      const uint32_t y = static_cast<uint32_t>(rng.NextBounded(n));
      // Boundary coordinates computed by a different floating-point route
      // than the grid's internal cell-width multiples.
      const double lon =
          grid.domain().lo.lon +
          (grid.domain().hi.lon - grid.domain().lo.lon) *
              (static_cast<double>(x) / static_cast<double>(n));
      const double lat =
          grid.domain().lo.lat +
          (grid.domain().hi.lat - grid.domain().lo.lat) *
              (static_cast<double>(y) / static_cast<double>(n));
      for (const double qlon :
           {lon, std::nextafter(lon, -1e18), std::nextafter(lon, 1e18)}) {
        for (const double qlat :
             {lat, std::nextafter(lat, -1e18), std::nextafter(lat, 1e18)}) {
          const Rect q{{qlon, qlat}, {qlon, qlat}};
          const Covering c = CoverRect(curve, q);
          EXPECT_TRUE(CoveringContains(c, curve.PointToD(qlon, qlat)))
              << "order " << order << " point (" << qlon << ", " << qlat
              << ")";
        }
      }
    }
  }
}

TEST(CoveringPropertyTest, DatasetMbrDomains) {
  // hil* shrinks the domain to the dataset MBR; same properties must hold
  // on small, skewed domains for both curves.
  const Rect mbrs[] = {Rect{{23.0, 37.0}, {25.0, 39.0}},
                       Rect{{-74.3, 40.4}, {-73.6, 41.0}}};
  Rng rng(9003);
  for (const Rect& mbr : mbrs) {
    for (int order : {1, 2, 5, 9, 13, 16}) {
      const HilbertCurve hilbert(order, mbr);
      const ZOrderCurve zorder(order, mbr);
      for (int trial = 0; trial < 3; ++trial) {
        CheckCoveringProperties(hilbert, rng);
        CheckCoveringProperties(zorder, rng);
      }
    }
  }
}

// ---------- Onion curve specifics ----------

TEST(OnionTest, Order1MatchesRingLayout) {
  // A single ring walked counter-clockwise from its south-west corner:
  // (0,0) -> (1,0) -> (1,1) -> (0,1).
  const OnionCurve curve(1, Rect{{0, 0}, {2, 2}});
  EXPECT_EQ(curve.XyToD(0, 0), 0u);
  EXPECT_EQ(curve.XyToD(1, 0), 1u);
  EXPECT_EQ(curve.XyToD(1, 1), 2u);
  EXPECT_EQ(curve.XyToD(0, 1), 3u);
}

TEST(OnionTest, ConsecutiveDsAreAdjacentCells) {
  // Onion is a *continuous* curve (the property the boundary-walk covering
  // strategy relies on): successive positions are edge neighbours, including
  // across the seam from one ring to the next.
  const OnionCurve curve(6, GlobeRect());
  uint32_t px, py;
  curve.DToXy(0, &px, &py);
  for (uint64_t d = 1; d < curve.num_cells(); ++d) {
    uint32_t x, y;
    curve.DToXy(d, &x, &y);
    const uint32_t manhattan =
        (x > px ? x - px : px - x) + (y > py ? y - py : py - y);
    ASSERT_EQ(manhattan, 1u) << "jump at d=" << d;
    px = x;
    py = y;
  }
}

TEST(OnionTest, RingsArePeeledOutsideIn) {
  // Every cell of ring r precedes every cell of ring r+1 (d orders cells by
  // ring depth — the layout that clusters the periphery away from the core).
  const int order = 3;
  const OnionCurve curve(order, Rect{{0, 0}, {8, 8}});
  const uint32_t n = 1u << order;
  for (uint32_t x = 0; x < n; ++x) {
    for (uint32_t y = 0; y < n; ++y) {
      const uint32_t ring =
          std::min(std::min(x, y), std::min(n - 1 - x, n - 1 - y));
      const uint32_t m = n - 2 * ring;
      const uint64_t ring_base =
          static_cast<uint64_t>(n) * n - static_cast<uint64_t>(m) * m;
      const uint64_t ring_cells =
          m == 1 ? 1 : 4ull * (m - 1);  // innermost odd core is one cell
      const uint64_t d = curve.XyToD(x, y);
      EXPECT_GE(d, ring_base) << "(" << x << "," << y << ")";
      EXPECT_LT(d, ring_base + ring_cells) << "(" << x << "," << y << ")";
    }
  }
}

TEST(OnionTest, DoesNotClaimQuadtreeBlocks) {
  const OnionCurve curve(4, GlobeRect());
  EXPECT_FALSE(curve.quadtree_blocks());
  EXPECT_STREQ(curve.name(), "onion");
}

// ---------- curve registry ----------

TEST(CurveRegistryTest, NamesRoundTripThroughTheRegistry) {
  const Rect domain = GlobeRect();
  for (const CurveKind kind : AllCurveKinds()) {
    const auto curve = MakeCurve(kind, 4, domain);
    ASSERT_NE(curve, nullptr);
    EXPECT_STREQ(curve->name(), CurveKindName(kind));
    CurveKind parsed;
    ASSERT_TRUE(CurveKindFromName(curve->name(), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  CurveKind parsed;
  EXPECT_FALSE(CurveKindFromName("peano", &parsed));
  EXPECT_FALSE(CurveKindFromName("", &parsed));
}

TEST(CurveRegistryTest, EGeoHashUsesTheFitSample) {
  // The registry threads the fit sample only into egeohash; all other
  // curves ignore it and keep uniform boundaries.
  std::vector<Point> sample;
  Rng rng(52);
  for (int i = 0; i < 512; ++i) {
    sample.push_back({rng.NextGaussian() * 2.0, rng.NextGaussian() * 2.0});
  }
  const Rect domain{{-100, -80}, {100, 80}};
  const auto fitted = MakeCurve(CurveKind::kEGeoHash, 5, domain, sample);
  EXPECT_TRUE(fitted->grid().warped());
  for (const CurveKind kind :
       {CurveKind::kHilbert, CurveKind::kZOrder, CurveKind::kOnion}) {
    EXPECT_FALSE(MakeCurve(kind, 5, domain, sample)->grid().warped())
        << CurveKindName(kind);
  }
  EXPECT_FALSE(MakeCurve(CurveKind::kEGeoHash, 5, domain)->grid().warped())
      << "no sample -> uniform boundaries (plain GeoHash cells)";
  // Unfitted, egeohash is the zorder order over the same uniform grid: the
  // same key for every cell, and the same cell for every point.
  for (const int order : {1, 3, 6}) {
    const auto egeohash = MakeCurve(CurveKind::kEGeoHash, order, domain);
    const auto zorder = MakeCurve(CurveKind::kZOrder, order, domain);
    EXPECT_STREQ(egeohash->name(), "egeohash");
    const uint32_t n = egeohash->grid().grid_size();
    for (uint32_t x = 0; x < n; ++x) {
      for (uint32_t y = 0; y < n; ++y) {
        ASSERT_EQ(egeohash->XyToD(x, y), zorder->XyToD(x, y))
            << "order " << order << " cell (" << x << "," << y << ")";
      }
    }
    for (int i = 0; i < 200; ++i) {
      const double lon = rng.NextDouble(domain.lo.lon, domain.hi.lon);
      const double lat = rng.NextDouble(domain.lo.lat, domain.hi.lat);
      ASSERT_EQ(egeohash->PointToD(lon, lat), zorder->PointToD(lon, lat));
    }
  }
}

// ---------- max-edge clamp agreement (the GridMapping bugfix) ----------

TEST(GridMappingTest, MaxEdgeClampAgreesWithBlockExtents) {
  // The bug class this pins down: LonToX(domain.hi.lon) must land in the
  // last cell (not one past it, and not UB for huge inputs), and the last
  // cell's BlockRect must extend exactly to domain.hi so covering membership
  // and key generation agree at the far edge. A NaN coordinate lands in
  // cell 0 (never a NaN-to-integer cast). Orders 1..16, globe and
  // dataset-MBR domains, every registered curve, egeohash both unfitted
  // and fitted.
  const Rect domains[] = {GlobeRect(), Rect{{23.0, 37.0}, {25.0, 39.0}},
                          Rect{{-74.3, 40.4}, {-73.6, 41.0}}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(9107);
  for (const Rect& domain : domains) {
    std::vector<Point> sample;
    for (int i = 0; i < 256; ++i) {
      sample.push_back({rng.NextDouble(domain.lo.lon, domain.hi.lon),
                        rng.NextDouble(domain.lo.lat, domain.hi.lat)});
    }
    for (int order = 1; order <= 16; ++order) {
      std::vector<std::unique_ptr<Curve2D>> curves;
      for (const CurveKind kind : AllCurveKinds()) {
        curves.push_back(MakeCurve(kind, order, domain));
      }
      curves.push_back(MakeCurve(CurveKind::kEGeoHash, order, domain, sample));
      ASSERT_TRUE(curves.back()->grid().warped());
      for (const auto& curve : curves) {
        const GridMapping& grid = curve->grid();
        const uint32_t n = grid.grid_size();
        ASSERT_EQ(grid.LonToX(nan), 0u) << curve->name() << " order " << order;
        ASSERT_EQ(grid.LatToY(nan), 0u) << curve->name() << " order " << order;
        ASSERT_EQ(curve->PointToD(nan, nan), curve->XyToD(0, 0))
            << curve->name() << " order " << order;
        ASSERT_EQ(grid.LonToX(domain.hi.lon), n - 1)
            << curve->name() << " order " << order;
        ASSERT_EQ(grid.LatToY(domain.hi.lat), n - 1)
            << curve->name() << " order " << order;
        // Far beyond the domain clamps to the same boundary cell (and huge
        // magnitudes stay defined, not cast-UB).
        ASSERT_EQ(grid.LonToX(1e18), n - 1);
        ASSERT_EQ(grid.LatToY(1e18), n - 1);
        const Rect last = grid.BlockRect(n - 1, n - 1, 1);
        EXPECT_TRUE(last.Contains(domain.hi))
            << curve->name() << " order " << order << " block hi ("
            << last.hi.lon << "," << last.hi.lat << ") domain hi ("
            << domain.hi.lon << "," << domain.hi.lat << ")";
        EXPECT_DOUBLE_EQ(last.hi.lon, domain.hi.lon);
        EXPECT_DOUBLE_EQ(last.hi.lat, domain.hi.lat);
        // And the covering of a rect touching the max corner reaches the
        // cell the max-corner point is keyed into.
        const Rect corner{{domain.lo.lon + domain.width() * 0.9,
                           domain.lo.lat + domain.height() * 0.9},
                          domain.hi};
        const Covering covering = CoverRect(*curve, corner);
        EXPECT_TRUE(CoveringContains(
            covering, curve->PointToD(domain.hi.lon, domain.hi.lat)))
            << curve->name() << " order " << order;
      }
    }
  }
  // The 2dsphere key goes through the same mapping.
  const GeoHash geohash;
  EXPECT_EQ(geohash.Encode(20.0, nan), geohash.Encode(20.0, -90.0));
  EXPECT_EQ(geohash.Encode(nan, nan), 0u);
}

// ---------- warped (entropy-maximizing) mapping ----------

TEST(EGeoHashTest, FitMappingBalancesPointsPerCell) {
  // Equi-depth boundaries: on a heavily skewed sample, each column/row of
  // the fitted grid holds roughly the same number of sample points — the
  // entropy-maximizing property (uniform cell occupancy).
  Rng rng(61);
  std::vector<Point> sample;
  for (int i = 0; i < 8000; ++i) {
    // 80% in a tight hotspot, 20% uniform background.
    if (rng.NextBool(0.8)) {
      sample.push_back({23.7 + rng.NextGaussian() * 0.05,
                        37.9 + rng.NextGaussian() * 0.05});
    } else {
      sample.push_back({rng.NextDouble(-180, 180), rng.NextDouble(-90, 90)});
    }
  }
  const int order = 3;  // 8x8 cells
  const GridMapping grid = FitEquiDepthMapping(order, GlobeRect(), sample);
  ASSERT_TRUE(grid.warped());
  const uint32_t n = grid.grid_size();
  std::vector<int> per_x(n, 0), per_y(n, 0);
  for (const Point& p : sample) {
    ++per_x[grid.LonToX(p.lon)];
    ++per_y[grid.LatToY(p.lat)];
  }
  const int mean = static_cast<int>(sample.size() / n);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_GT(per_x[i], mean / 4) << "x cell " << i;
    EXPECT_LT(per_x[i], mean * 4) << "x cell " << i;
    EXPECT_GT(per_y[i], mean / 4) << "y cell " << i;
    EXPECT_LT(per_y[i], mean * 4) << "y cell " << i;
  }
  // A uniform grid at the same order would dump ~80% of the sample into the
  // hotspot's single column; the fitted one never concentrates like that.
  const GridMapping uniform(order, GlobeRect());
  std::vector<int> uniform_x(n, 0);
  for (const Point& p : sample) ++uniform_x[uniform.LonToX(p.lon)];
  EXPECT_GT(*std::max_element(uniform_x.begin(), uniform_x.end()),
            *std::max_element(per_x.begin(), per_x.end()));
}

TEST(EGeoHashTest, WarpedCellMembershipAgreesWithBlockRects) {
  // The same clamp-agreement contract as the uniform mapping, under warped
  // boundaries: a point's cell (via LonToX/LatToY) and that cell's
  // BlockRect must agree, for interior points and for the domain corners.
  Rng rng(62);
  std::vector<Point> sample;
  for (int i = 0; i < 2000; ++i) {
    sample.push_back({23.7 + rng.NextGaussian() * 0.2,
                      37.9 + rng.NextGaussian() * 0.2});
  }
  const Rect domain{{20.0, 35.0}, {28.0, 41.0}};
  const auto curve = MakeCurve(CurveKind::kEGeoHash, 8, domain, sample);
  const GridMapping& grid = curve->grid();
  ASSERT_TRUE(grid.warped());
  for (int i = 0; i < 2000; ++i) {
    const double lon = rng.NextDouble(domain.lo.lon, domain.hi.lon);
    const double lat = rng.NextDouble(domain.lo.lat, domain.hi.lat);
    const uint32_t x = grid.LonToX(lon);
    const uint32_t y = grid.LatToY(lat);
    const Rect cell = grid.BlockRect(x, y, 1);
    EXPECT_TRUE(cell.Contains({lon, lat}))
        << "(" << lon << "," << lat << ") cell (" << x << "," << y << ")";
    // And round-trip through the curve lands in the same cell.
    uint32_t rx, ry;
    curve->DToXy(curve->PointToD(lon, lat), &rx, &ry);
    EXPECT_EQ(rx, x);
    EXPECT_EQ(ry, y);
  }
  // Domain corners behave exactly like the uniform mapping's.
  EXPECT_EQ(grid.LonToX(domain.lo.lon), 0u);
  EXPECT_EQ(grid.LatToY(domain.lo.lat), 0u);
  EXPECT_EQ(grid.LonToX(domain.hi.lon), grid.grid_size() - 1);
  EXPECT_EQ(grid.LatToY(domain.hi.lat), grid.grid_size() - 1);
}

// ---------- covering properties for the new curves ----------

TEST(CoveringPropertyTest, OnionAllOrdersGlobeDomain) {
  // Onion coverings come from the boundary-walk strategy, not the quadtree
  // descent — same soundness/exactness/budget contract.
  Rng rng(9004);
  for (int order = 1; order <= 16; ++order) {
    const OnionCurve curve(order, GlobeRect());
    for (int trial = 0; trial < 3; ++trial) CheckCoveringProperties(curve, rng);
  }
}

TEST(CoveringPropertyTest, EGeoHashFittedAllOrdersGlobeDomain) {
  Rng rng(9005);
  std::vector<Point> sample;
  for (int i = 0; i < 4096; ++i) {
    sample.push_back({23.7 + rng.NextGaussian() * 3.0,
                      37.9 + rng.NextGaussian() * 3.0});
  }
  for (int order = 1; order <= 16; ++order) {
    const auto curve = MakeCurve(CurveKind::kEGeoHash, order, GlobeRect(),
                                 sample);
    for (int trial = 0; trial < 3; ++trial) {
      CheckCoveringProperties(*curve, rng);
    }
  }
}

TEST(CoveringPropertyTest, NewCurvesOnDatasetMbrDomains) {
  const Rect mbrs[] = {Rect{{23.0, 37.0}, {25.0, 39.0}},
                       Rect{{-74.3, 40.4}, {-73.6, 41.0}}};
  Rng rng(9006);
  for (const Rect& mbr : mbrs) {
    std::vector<Point> sample;
    for (int i = 0; i < 1024; ++i) {
      sample.push_back({rng.NextDouble(mbr.lo.lon, mbr.hi.lon),
                        rng.NextDouble(mbr.lo.lat, mbr.hi.lat)});
    }
    for (int order : {1, 2, 5, 9, 13, 16}) {
      for (const CurveKind kind : {CurveKind::kOnion, CurveKind::kEGeoHash}) {
        const auto curve = MakeCurve(kind, order, mbr, sample);
        for (int trial = 0; trial < 3; ++trial) {
          CheckCoveringProperties(*curve, rng);
        }
      }
    }
  }
}

TEST(CoveringEdgeTest, NewCurvesAntimeridianAndPoleRects) {
  // The same domain-edge soundness sweep the quadtree curves get, against
  // the boundary-walk (onion) and warped (egeohash) coverings.
  Rng rng(9103);
  const Rect edge_rects[] = {
      Rect{{179.0, 10.0}, {180.0, 20.0}},
      Rect{{-180.0, -20.0}, {-179.0, -10.0}},
      Rect{{170.0, 80.0}, {180.0, 90.0}},
      Rect{{-180.0, -90.0}, {-170.0, -80.0}},
      Rect{{-180.0, 89.9}, {180.0, 90.0}},
      Rect{{180.0, 90.0}, {180.0, 90.0}},
      Rect{{-180.0, -90.0}, {180.0, 90.0}},
  };
  std::vector<Point> sample;
  for (int i = 0; i < 1024; ++i) {
    sample.push_back({rng.NextGaussian() * 40.0, rng.NextGaussian() * 20.0});
  }
  for (const int order : {1, 4, 9, 13}) {
    for (const CurveKind kind : {CurveKind::kOnion, CurveKind::kEGeoHash}) {
      const auto curve = MakeCurve(kind, order, GlobeRect(), sample);
      for (const Rect& q : edge_rects) CheckEdgeRect(*curve, q, rng);
    }
  }
}

TEST(CoveringTest, BoundaryWalkRespectsMaxRangesBudget) {
  // The onion covering of a mid-grid rect fragments into many ranges; every
  // budget must be respected exactly and the coarse covering must stay a
  // superset of the exact one.
  const OnionCurve curve(10, GlobeRect());
  const Rect query{{23.606039, 38.023982}, {60.0, 70.0}};
  const Covering exact = CoverRect(curve, query);
  ASSERT_GT(exact.ranges.size(), 16u) << "query too easy to exercise budgets";
  for (const size_t budget : {size_t{1}, size_t{2}, size_t{8}, size_t{16}}) {
    CoveringOptions opts;
    opts.max_ranges = budget;
    const Covering coarse = CoverRect(curve, query, opts);
    EXPECT_LE(coarse.ranges.size(), budget);
    EXPECT_GE(coarse.num_cells, exact.num_cells);
    for (const DRange& r : exact.ranges) {
      EXPECT_TRUE(CoveringContains(coarse, r.lo));
      EXPECT_TRUE(CoveringContains(coarse, r.hi));
    }
  }
}

}  // namespace
}  // namespace stix::geo
