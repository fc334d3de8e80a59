// Curve lab: ablation of the 1D linearization behind hilbertIndex across
// every registered curve (the registry supplies the list — labels come from
// Curve2D::name(), never a hardcoded pair) on two synthetic workloads:
//
//   uniform  — points and query rects uniform over the domain;
//   hotspot  — Gaussian hot spots holding most points, queries concentrated
//              on them (the skewed regime the entropy-maximizing GeoHash
//              fits its equi-depth boundaries to).
//
// Per (curve, workload, order) the bench reports, averaged over the query
// set against a sorted-d "index" of the workload's points:
//
//   keys-examined    — indexed points whose d falls inside the exact
//                      covering (true matches + covering false positives:
//                      the seek+scan work the store would do);
//   ranges-per-cover — exact covering ranges (the $or fan-out);
//   run-length       — covered cells per range (mean contiguous-run length,
//                      Moon et al.'s clustering-quality measure);
//   keys@B/ranges@B  — the same under the coarse budget (max_ranges = B),
//                      checking both strategies' budget contract.
//
// Every covering is also verified sound: an in-rect point whose d escapes
// the covering is counted as a violation and fails the --check gate. With
// --json=FILE the table is written as BENCH_curve.json; --check turns the
// report into a gate (>= 4 curves on both workloads, zero soundness/budget
// violations, and egeohash beating plain Z-order/GeoHash on
// keys-examined for the hotspot workload).

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "geo/covering.h"
#include "geo/curve_registry.h"

namespace stix::bench {
namespace {

constexpr int kOrders[] = {8, 12};
// The crossover gate runs at the coarse order, where cells hold many points
// and the mapping choice matters; at order 12 the grid has 16.7M cells for
// 100k points, so every curve's exact covering degenerates to ~true matches.
constexpr int kGateOrder = 8;
constexpr int kNumPoints = 100000;
constexpr int kNumQueries = 48;
constexpr size_t kBudget = 64;

// A regional deployment extent (hil*-style dataset MBR).
const geo::Rect kDomain{{-10.0, -10.0}, {10.0, 10.0}};

struct Workload {
  std::string name;
  std::vector<geo::Point> points;
  std::vector<geo::Rect> queries;
};

geo::Rect QueryRectAround(double lon, double lat, double half_w,
                          double half_h) {
  geo::Rect r;
  r.lo.lon = std::max(kDomain.lo.lon, lon - half_w);
  r.lo.lat = std::max(kDomain.lo.lat, lat - half_h);
  r.hi.lon = std::min(kDomain.hi.lon, lon + half_w);
  r.hi.lat = std::min(kDomain.hi.lat, lat + half_h);
  return r;
}

Workload MakeUniform(uint64_t seed) {
  Workload w;
  w.name = "uniform";
  Rng rng(seed);
  w.points.reserve(kNumPoints);
  for (int i = 0; i < kNumPoints; ++i) {
    w.points.push_back({rng.NextDouble(kDomain.lo.lon, kDomain.hi.lon),
                        rng.NextDouble(kDomain.lo.lat, kDomain.hi.lat)});
  }
  for (int i = 0; i < kNumQueries; ++i) {
    const double frac = rng.NextDouble(0.01, 0.06);
    w.queries.push_back(
        QueryRectAround(rng.NextDouble(kDomain.lo.lon, kDomain.hi.lon),
                        rng.NextDouble(kDomain.lo.lat, kDomain.hi.lat),
                        kDomain.width() * frac, kDomain.height() * frac));
  }
  return w;
}

Workload MakeHotspot(uint64_t seed) {
  Workload w;
  w.name = "hotspot";
  Rng rng(seed);
  struct Hot {
    double lon, lat, sigma_lon, sigma_lat;
  };
  std::vector<Hot> hots;
  for (int i = 0; i < 3; ++i) {
    hots.push_back(Hot{rng.NextDouble(kDomain.lo.lon, kDomain.hi.lon),
                       rng.NextDouble(kDomain.lo.lat, kDomain.hi.lat),
                       kDomain.width() * rng.NextDouble(0.01, 0.04),
                       kDomain.height() * rng.NextDouble(0.01, 0.04)});
  }
  const auto clamp_lon = [](double v) {
    return std::min(kDomain.hi.lon, std::max(kDomain.lo.lon, v));
  };
  const auto clamp_lat = [](double v) {
    return std::min(kDomain.hi.lat, std::max(kDomain.lo.lat, v));
  };
  w.points.reserve(kNumPoints);
  for (int i = 0; i < kNumPoints; ++i) {
    if (rng.NextBool(0.2)) {
      w.points.push_back({rng.NextDouble(kDomain.lo.lon, kDomain.hi.lon),
                          rng.NextDouble(kDomain.lo.lat, kDomain.hi.lat)});
    } else {
      const Hot& hot = hots[rng.NextBounded(hots.size())];
      w.points.push_back(
          {clamp_lon(hot.lon + rng.NextGaussian() * hot.sigma_lon),
           clamp_lat(hot.lat + rng.NextGaussian() * hot.sigma_lat)});
    }
  }
  for (int i = 0; i < kNumQueries; ++i) {
    if (rng.NextBool(0.2)) {
      const double frac = rng.NextDouble(0.01, 0.06);
      w.queries.push_back(
          QueryRectAround(rng.NextDouble(kDomain.lo.lon, kDomain.hi.lon),
                          rng.NextDouble(kDomain.lo.lat, kDomain.hi.lat),
                          kDomain.width() * frac, kDomain.height() * frac));
    } else {
      const Hot& hot = hots[rng.NextBounded(hots.size())];
      w.queries.push_back(QueryRectAround(
          clamp_lon(hot.lon + rng.NextGaussian() * hot.sigma_lon),
          clamp_lat(hot.lat + rng.NextGaussian() * hot.sigma_lat),
          hot.sigma_lon * rng.NextDouble(0.5, 2.0),
          hot.sigma_lat * rng.NextDouble(0.5, 2.0)));
    }
  }
  return w;
}

struct CurveRow {
  std::string curve;  ///< Curve2D::name() — never a hardcoded label.
  std::string workload;
  int order = 0;
  double keys_examined = 0.0;
  double true_matches = 0.0;
  double ranges_per_cover = 0.0;
  double run_length = 0.0;
  double keys_budget = 0.0;
  double ranges_budget = 0.0;
  int soundness_violations = 0;
  int budget_violations = 0;
};

// Indexed keys the covering touches: for each range, the count of stored d
// values inside it (binary search over the sorted index).
uint64_t KeysExamined(const std::vector<uint64_t>& index,
                      const geo::Covering& covering) {
  uint64_t keys = 0;
  for (const geo::DRange& r : covering.ranges) {
    const auto lo = std::lower_bound(index.begin(), index.end(), r.lo);
    const auto hi = std::upper_bound(index.begin(), index.end(), r.hi);
    keys += static_cast<uint64_t>(hi - lo);
  }
  return keys;
}

CurveRow MeasureCurve(const geo::Curve2D& curve, const Workload& w,
                      int order) {
  CurveRow row;
  row.curve = curve.name();
  row.workload = w.name;
  row.order = order;

  std::vector<uint64_t> d_of_point(w.points.size());
  for (size_t i = 0; i < w.points.size(); ++i) {
    d_of_point[i] = curve.PointToD(w.points[i].lon, w.points[i].lat);
  }
  std::vector<uint64_t> index = d_of_point;
  std::sort(index.begin(), index.end());

  for (const geo::Rect& q : w.queries) {
    const geo::Covering exact = geo::CoverRect(curve, q);
    geo::CoveringOptions budget_options;
    budget_options.max_ranges = kBudget;
    const geo::Covering coarse = geo::CoverRect(curve, q, budget_options);

    row.keys_examined += static_cast<double>(KeysExamined(index, exact));
    row.keys_budget += static_cast<double>(KeysExamined(index, coarse));
    row.ranges_per_cover += static_cast<double>(exact.ranges.size());
    row.ranges_budget += static_cast<double>(coarse.ranges.size());
    if (!exact.ranges.empty()) {
      row.run_length += static_cast<double>(exact.num_cells) /
                        static_cast<double>(exact.ranges.size());
    }
    if (coarse.ranges.size() > kBudget) ++row.budget_violations;

    for (size_t i = 0; i < w.points.size(); ++i) {
      if (!q.Contains(w.points[i])) continue;
      row.true_matches += 1.0;
      if (!geo::CoveringContains(exact, d_of_point[i]) ||
          !geo::CoveringContains(coarse, d_of_point[i])) {
        ++row.soundness_violations;
      }
    }
  }
  const double n = static_cast<double>(w.queries.size());
  row.keys_examined /= n;
  row.keys_budget /= n;
  row.ranges_per_cover /= n;
  row.ranges_budget /= n;
  row.run_length /= n;
  row.true_matches /= n;
  return row;
}

void PrintRows(const Workload& w, int order,
               const std::vector<CurveRow>& rows) {
  printf("\nworkload=%s order=%d (%d points, %d queries)\n", w.name.c_str(),
         order, kNumPoints, kNumQueries);
  printf("%-10s %12s %10s %14s %10s %10s %10s\n", "curve", "keys-exam",
         "matches", "ranges/cover", "run-len", "keys@64", "ranges@64");
  for (const CurveRow& r : rows) {
    printf("%-10s %12.1f %10.1f %14.1f %10.1f %10.1f %10.1f\n",
           r.curve.c_str(), r.keys_examined, r.true_matches,
           r.ranges_per_cover, r.run_length, r.keys_budget, r.ranges_budget);
  }
}

const CurveRow* FindRow(const std::vector<CurveRow>& rows, const char* curve,
                        const char* workload, int order) {
  for (const CurveRow& r : rows) {
    if (r.curve == curve && r.workload == workload && r.order == order) {
      return &r;
    }
  }
  return nullptr;
}

bool WriteCurveJson(const std::string& path, const BenchConfig& config,
                    const std::vector<CurveRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    fprintf(stderr, "bench_curve_ablation: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n\"bench\": \"curve_ablation\",\n\"config\": {\"points\": "
      << kNumPoints << ", \"queries\": " << kNumQueries
      << ", \"budget\": " << kBudget << ", \"gate_order\": " << kGateOrder
      << ", \"seed\": " << config.seed << "},\n\"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const CurveRow& r = rows[i];
    char buf[512];
    snprintf(buf, sizeof(buf),
             "  {\"curve\": \"%s\", \"workload\": \"%s\", \"order\": %d, "
             "\"keys_examined\": %.2f, \"true_matches\": %.2f, "
             "\"ranges_per_cover\": %.2f, \"run_length\": %.2f, "
             "\"keys_budget\": %.2f, \"ranges_budget\": %.2f, "
             "\"soundness_violations\": %d, \"budget_violations\": %d}%s\n",
             r.curve.c_str(), r.workload.c_str(), r.order, r.keys_examined,
             r.true_matches, r.ranges_per_cover, r.run_length, r.keys_budget,
             r.ranges_budget, r.soundness_violations, r.budget_violations,
             i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  const CurveRow* ego = FindRow(rows, "egeohash", "hotspot", kGateOrder);
  const CurveRow* zo = FindRow(rows, "zorder", "hotspot", kGateOrder);
  out << "],\n\"gate\": {\"egeohash_keys_hotspot\": "
      << (ego != nullptr ? ego->keys_examined : -1.0)
      << ", \"zorder_keys_hotspot\": "
      << (zo != nullptr ? zo->keys_examined : -1.0) << "}\n}\n";
  return out.good();
}

int Main(int argc, char** argv) {
  bool check = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const BenchConfig config =
      BenchConfig::FromArgs(static_cast<int>(rest.size()), rest.data());

  printf("== bench_curve_ablation ==\n");
  printf("curve lab: every registered 1D linearization x {uniform, hotspot} "
         "workloads (DESIGN.md Section 5k)\n");
  printf("keys-examined = true matches + covering false positives against a "
         "sorted-d index of %d points.\n", kNumPoints);

  const Workload workloads[] = {MakeUniform(config.seed),
                                MakeHotspot(config.seed + 1)};

  std::vector<CurveRow> rows;
  for (const Workload& w : workloads) {
    // EGeoHash fits its equi-depth boundaries from a sample of the same
    // workload it serves (every 64th point), mirroring the store's
    // fit-from-sample path.
    std::vector<geo::Point> fit_sample;
    for (size_t i = 0; i < w.points.size(); i += 64) {
      fit_sample.push_back(w.points[i]);
    }
    for (const int order : kOrders) {
      std::vector<CurveRow> order_rows;
      for (const geo::CurveKind kind : geo::AllCurveKinds()) {
        const std::unique_ptr<geo::Curve2D> curve =
            geo::MakeCurve(kind, order, kDomain, fit_sample);
        order_rows.push_back(MeasureCurve(*curve, w, order));
      }
      PrintRows(w, order, order_rows);
      rows.insert(rows.end(), order_rows.begin(), order_rows.end());
    }
  }

  // Crossover summary (the ROADMAP's ask): per workload at the gate order,
  // which curve minimizes each metric.
  printf("\ncrossover (order %d):\n", kGateOrder);
  for (const Workload& w : workloads) {
    const CurveRow* best_keys = nullptr;
    const CurveRow* best_ranges = nullptr;
    const CurveRow* best_run = nullptr;
    for (const CurveRow& r : rows) {
      if (r.workload != w.name || r.order != kGateOrder) continue;
      if (best_keys == nullptr || r.keys_examined < best_keys->keys_examined)
        best_keys = &r;
      if (best_ranges == nullptr ||
          r.ranges_per_cover < best_ranges->ranges_per_cover)
        best_ranges = &r;
      if (best_run == nullptr || r.run_length > best_run->run_length)
        best_run = &r;
    }
    if (best_keys != nullptr) {
      printf("  %-8s keys-examined: %s (%.1f)  ranges: %s (%.1f)  "
             "run-len: %s (%.1f)\n",
             w.name.c_str(), best_keys->curve.c_str(),
             best_keys->keys_examined, best_ranges->curve.c_str(),
             best_ranges->ranges_per_cover, best_run->curve.c_str(),
             best_run->run_length);
    }
  }

  if (!config.json_path.empty() &&
      !WriteCurveJson(config.json_path, config, rows)) {
    return 1;
  }

  if (check) {
    int failures = 0;
    std::vector<std::string> gate_curves;
    for (const Workload& w : workloads) {
      size_t count = 0;
      for (const CurveRow& r : rows) {
        if (r.workload == w.name && r.order == kGateOrder) ++count;
      }
      if (count < 4) {
        printf("GATE FAIL: only %zu curves measured on %s (need >= 4)\n",
               count, w.name.c_str());
        ++failures;
      }
    }
    int soundness = 0, budget = 0;
    for (const CurveRow& r : rows) {
      soundness += r.soundness_violations;
      budget += r.budget_violations;
    }
    if (soundness > 0) {
      printf("GATE FAIL: %d in-rect points escaped their covering\n",
             soundness);
      ++failures;
    }
    if (budget > 0) {
      printf("GATE FAIL: %d coverings exceeded the max_ranges budget\n",
             budget);
      ++failures;
    }
    const CurveRow* ego = FindRow(rows, "egeohash", "hotspot", kGateOrder);
    const CurveRow* zo = FindRow(rows, "zorder", "hotspot", kGateOrder);
    if (ego == nullptr || zo == nullptr ||
        ego->keys_examined >= zo->keys_examined) {
      printf("GATE FAIL: egeohash keys-examined (%.1f) must beat zorder "
             "(%.1f) on the hotspot workload\n",
             ego != nullptr ? ego->keys_examined : -1.0,
             zo != nullptr ? zo->keys_examined : -1.0);
      ++failures;
    }
    if (failures > 0) return 1;
    printf("GATE OK: %zu rows, egeohash %.1f < zorder %.1f keys on "
           "hotspot\n",
           rows.size(), ego->keys_examined, zo->keys_examined);
  }
  return 0;
}

}  // namespace
}  // namespace stix::bench

int main(int argc, char** argv) { return stix::bench::Main(argc, argv); }
