#include "storage/bucket.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <utility>

#include "bson/codec.h"
#include "bson/simple8b.h"
#include "common/lz.h"

namespace stix::storage {
namespace {

constexpr int32_t kBucketFormatVersion = 1;
/// Hilbert range lists are capped: past this the closest-gap ranges merge,
/// trading pruning precision for metadata size (like an s2 covering cap).
constexpr size_t kMaxBucketHilRanges = 16;

/// Per-point extraction slots, in position-column order.
enum ExtractSlot { kSlotTs = 0, kSlotLoc, kSlotId, kSlotHil, kNumSlots };

/// Strict structural check that `v` is exactly the sub-document
/// GeoJsonPoint() builds — field order, names and value types included —
/// so re-synthesizing it from the (lon, lat) columns is byte-identical.
bool IsCanonicalGeoPoint(const bson::Value& v, double* lon, double* lat) {
  if (v.type() != bson::Type::kDocument) return false;
  const bson::Document& d = v.AsDocument();
  if (d.size() != 2) return false;
  const auto& type_field = d.field(0);
  if (type_field.first != "type" ||
      type_field.second.type() != bson::Type::kString ||
      type_field.second.AsString() != "Point") {
    return false;
  }
  const auto& coords_field = d.field(1);
  if (coords_field.first != "coordinates" ||
      coords_field.second.type() != bson::Type::kArray) {
    return false;
  }
  const bson::Array& coords = coords_field.second.AsArray();
  if (coords.size() != 2 || coords[0].type() != bson::Type::kDouble ||
      coords[1].type() != bson::Type::kDouble) {
    return false;
  }
  *lon = coords[0].AsDouble();
  *lat = coords[1].AsDouble();
  return true;
}

/// Merges sorted hilbert values into at most kMaxBucketHilRanges closed
/// ranges: exact consecutive runs first, then closest-gap merging.
std::vector<std::pair<int64_t, int64_t>> BuildHilRanges(
    std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<std::pair<int64_t, int64_t>> runs;
  for (const int64_t v : values) {
    if (!runs.empty() && v == runs.back().second + 1) {
      runs.back().second = v;
    } else {
      runs.emplace_back(v, v);
    }
  }
  while (runs.size() > kMaxBucketHilRanges) {
    size_t best = 0;
    int64_t best_gap = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i + 1 < runs.size(); ++i) {
      const int64_t gap = runs[i + 1].first - runs[i].second;
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    runs[best].second = runs[best + 1].second;
    runs.erase(runs.begin() + static_cast<ptrdiff_t>(best) + 1);
  }
  return runs;
}

/// Types the uniform-schema residual encoding can put in a column of its
/// own; documents, arrays and ObjectIds stay on the per-point BSON path.
bool IsColumnarType(bson::Type t) {
  switch (t) {
    case bson::Type::kNull:
    case bson::Type::kBool:
    case bson::Type::kInt32:
    case bson::Type::kInt64:
    case bson::Type::kDouble:
    case bson::Type::kString:
    case bson::Type::kDateTime:
      return true;
    default:
      return false;
  }
}

const bson::Value* GetSubField(const bson::Document& doc,
                               std::string_view outer,
                               std::string_view inner) {
  const bson::Value* sub = doc.Get(outer);
  if (sub == nullptr || sub->type() != bson::Type::kDocument) return nullptr;
  return sub->AsDocument().Get(inner);
}

/// Decoded "cols" residual: one column per schema field, materialized as a
/// whole so point reconstruction is column reads, not per-point parsing.
struct ResidualColumns {
  struct Field {
    std::string name;
    bson::Type type = bson::Type::kNull;
    std::vector<int64_t> ints;        ///< kBool/kInt32/kInt64/kDateTime.
    std::vector<double> doubles;      ///< kDouble.
    std::vector<size_t> str_offsets;  ///< n+1 prefix offsets into blob.
    std::string blob;                 ///< kString bytes, concatenated.

    bson::Value ValueAt(size_t i) const {
      switch (type) {
        case bson::Type::kBool:
          return bson::Value::Bool(ints[i] != 0);
        case bson::Type::kInt32:
          return bson::Value::Int32(static_cast<int32_t>(ints[i]));
        case bson::Type::kInt64:
          return bson::Value::Int64(ints[i]);
        case bson::Type::kDateTime:
          return bson::Value::DateTime(ints[i]);
        case bson::Type::kDouble:
          return bson::Value::Double(doubles[i]);
        case bson::Type::kString:
          return bson::Value::String(
              blob.substr(str_offsets[i], str_offsets[i + 1] - str_offsets[i]));
        default:
          return bson::Value::Null();
      }
    }
  };
  std::vector<Field> fields;
};

Result<ResidualColumns> DecodeResidualColumns(std::string_view in, size_t n) {
  ResidualColumns out;
  Result<uint64_t> nfields = bson::GetVarint(&in);
  if (!nfields.ok()) return nfields.status();
  if (*nfields > in.size()) {
    return Status::Corruption("bucket residual schema is truncated");
  }
  out.fields.resize(*nfields);
  for (ResidualColumns::Field& f : out.fields) {
    Result<uint64_t> name_len = bson::GetVarint(&in);
    if (!name_len.ok()) return name_len.status();
    if (*name_len >= in.size()) {
      return Status::Corruption("bucket residual schema is truncated");
    }
    f.name.assign(in.data(), *name_len);
    in.remove_prefix(*name_len);
    f.type = static_cast<bson::Type>(static_cast<uint8_t>(in.front()));
    in.remove_prefix(1);
    if (!IsColumnarType(f.type)) {
      return Status::Corruption("bucket residual schema has a bad type");
    }
  }
  for (ResidualColumns::Field& f : out.fields) {
    switch (f.type) {
      case bson::Type::kNull:
        break;
      case bson::Type::kBool:
      case bson::Type::kInt32:
      case bson::Type::kInt64:
      case bson::Type::kDateTime: {
        Result<std::vector<int64_t>> v = bson::DecodeInt64Column(&in);
        if (!v.ok()) return v.status();
        if (v->size() != n) {
          return Status::Corruption("bucket residual column is short");
        }
        f.ints = std::move(*v);
        break;
      }
      case bson::Type::kDouble: {
        Result<std::vector<double>> v = bson::DecodeDoubleColumn(&in);
        if (!v.ok()) return v.status();
        if (v->size() != n) {
          return Status::Corruption("bucket residual column is short");
        }
        f.doubles = std::move(*v);
        break;
      }
      case bson::Type::kString: {
        Result<std::vector<int64_t>> lens = bson::DecodeInt64Column(&in);
        if (!lens.ok()) return lens.status();
        if (lens->size() != n) {
          return Status::Corruption("bucket residual column is short");
        }
        Result<uint64_t> zlen = bson::GetVarint(&in);
        if (!zlen.ok()) return zlen.status();
        if (*zlen > in.size()) {
          return Status::Corruption("bucket residual blob is truncated");
        }
        Result<std::string> blob = LzDecompress(in.substr(0, *zlen));
        if (!blob.ok()) return blob.status();
        in.remove_prefix(*zlen);
        f.blob = std::move(*blob);
        f.str_offsets.resize(n + 1);
        size_t off = 0;
        for (size_t i = 0; i < n; ++i) {
          f.str_offsets[i] = off;
          if ((*lens)[i] < 0 ||
              static_cast<uint64_t>((*lens)[i]) > f.blob.size() - off) {
            return Status::Corruption("bucket residual blob is truncated");
          }
          off += static_cast<size_t>((*lens)[i]);
        }
        f.str_offsets[n] = off;
        if (off != f.blob.size()) {
          return Status::Corruption("bucket residual blob length mismatch");
        }
        break;
      }
      default:
        return Status::Corruption("bucket residual schema has a bad type");
    }
  }
  return out;
}

}  // namespace

bool IsBucketDocument(const bson::Document& doc) {
  const bson::Value* v = GetSubField(doc, kBucketDataField, "v");
  return v != nullptr && v->type() == bson::Type::kInt32 &&
         v->AsInt32() == kBucketFormatVersion &&
         doc.Get(kBucketMetaField) != nullptr;
}

Result<BucketKey> ComputeBucketKey(const bson::Document& point,
                                   const BucketLayout& layout) {
  const bson::Value* ts = point.Get(kDateField);
  if (ts == nullptr || ts->type() != bson::Type::kDateTime) {
    return Status::InvalidArgument(
        std::string("bucketed store requires a DateTime '") + kDateField +
        "' field on every document");
  }
  BucketKey key;
  key.window = layout.WindowBase(ts->AsDateTime());
  if (const bson::Value* v = point.Get(kVehicleField)) {
    if (v->type() == bson::Type::kInt32) key.vehicle = v->AsInt32();
    if (v->type() == bson::Type::kInt64) key.vehicle = v->AsInt64();
  }
  if (layout.use_hilbert) {
    if (const bson::Value* h = point.Get(kHilbertField);
        h != nullptr && h->type() == bson::Type::kInt64) {
      key.cell = h->AsInt64() >> layout.hilbert_shift;
    }
  }
  return key;
}

Result<bson::Document> EncodeBucket(const std::vector<bson::Document>& points,
                                    const BucketLayout& layout) {
  if (points.empty()) {
    return Status::InvalidArgument("cannot encode an empty bucket");
  }
  const size_t n = points.size();

  std::vector<int64_t> ts(n), hil(n);
  std::vector<double> lon(n), lat(n);
  std::string ids;
  ids.reserve(n * bson::ObjectId::kSize);
  // Field position of each extracted slot inside its point (-1 = the slot's
  // column was not extracted); interleaved kNumSlots per point.
  std::vector<int64_t> positions(n * kNumSlots, -1);
  bool has_loc = true, has_id = true, has_hil = true;

  for (size_t i = 0; i < n; ++i) {
    const bson::Document& p = points[i];
    // Only the first field of each name is a candidate, as for
    // Document::Get: a column holding a later duplicate would let a
    // BucketSelection test another value than Matches does.
    bool seen_ts = false, seen_loc = false, seen_id = false, seen_hil = false;
    bool got_ts = false, got_loc = false, got_id = false, got_hil = false;
    for (size_t fi = 0; fi < p.size(); ++fi) {
      const auto& [name, value] = p.field(fi);
      if (name == kDateField) {
        if (!std::exchange(seen_ts, true) &&
            value.type() == bson::Type::kDateTime) {
          ts[i] = value.AsDateTime();
          positions[i * kNumSlots + kSlotTs] = static_cast<int64_t>(fi);
          got_ts = true;
        }
      } else if (name == kLocationField) {
        if (!std::exchange(seen_loc, true) &&
            IsCanonicalGeoPoint(value, &lon[i], &lat[i])) {
          positions[i * kNumSlots + kSlotLoc] = static_cast<int64_t>(fi);
          got_loc = true;
        }
      } else if (name == "_id") {
        if (!std::exchange(seen_id, true) &&
            value.type() == bson::Type::kObjectId) {
          const auto& bytes = value.AsObjectId().bytes();
          ids.append(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
          positions[i * kNumSlots + kSlotId] = static_cast<int64_t>(fi);
          got_id = true;
        }
      } else if (name == kHilbertField) {
        if (!std::exchange(seen_hil, true) &&
            value.type() == bson::Type::kInt64) {
          hil[i] = value.AsInt64();
          positions[i * kNumSlots + kSlotHil] = static_cast<int64_t>(fi);
          got_hil = true;
        }
      }
    }
    if (!got_ts) {
      return Status::InvalidArgument(
          std::string("bucketed point lacks a DateTime '") + kDateField +
          "' field");
    }
    has_loc = has_loc && got_loc;
    has_id = has_id && got_id;
    has_hil = has_hil && got_hil;
  }
  // A column is extracted only when every point qualifies; otherwise those
  // fields stay in the per-point residuals and the slot's positions reset
  // to -1 (mixed-presence columns would need a validity bitmap for nothing
  // the workload produces).
  for (size_t i = 0; i < n; ++i) {
    if (!has_loc) positions[i * kNumSlots + kSlotLoc] = -1;
    if (!has_id) positions[i * kNumSlots + kSlotId] = -1;
    if (!has_hil) positions[i * kNumSlots + kSlotHil] = -1;
  }

  const int64_t window_base = layout.WindowBase(ts[0]);
  int64_t min_ts = ts[0], max_ts = ts[0];
  for (size_t i = 0; i < n; ++i) {
    if (layout.WindowBase(ts[i]) != window_base) {
      return Status::InvalidArgument("bucket spans more than one time window");
    }
    min_ts = std::min(min_ts, ts[i]);
    max_ts = std::max(max_ts, ts[i]);
  }
  if (layout.use_hilbert && has_hil) {
    const int64_t cell = hil[0] >> layout.hilbert_shift;
    for (size_t i = 0; i < n; ++i) {
      if ((hil[i] >> layout.hilbert_shift) != cell) {
        return Status::InvalidArgument(
            "bucket spans more than one hilbert cell");
      }
    }
  }

  // The fields not lifted into the four special columns. Two encodings:
  // when every point carries the same scalar schema (names, types and order
  // all equal — the steady state of telemetry streams), each field becomes
  // its own column ("cols"), so field names and BSON framing are stored
  // once per bucket instead of once per point and numeric streams get the
  // delta transforms. Mixed-schema buckets fall back to per-point BSON
  // sub-documents LZ-compressed together ("res").
  std::vector<std::vector<const std::pair<std::string, bson::Value>*>>
      res_fields(n);
  for (size_t i = 0; i < n; ++i) {
    const bson::Document& p = points[i];
    for (size_t fi = 0; fi < p.size(); ++fi) {
      bool extracted = false;
      for (int slot = 0; slot < kNumSlots; ++slot) {
        if (positions[i * kNumSlots + slot] == static_cast<int64_t>(fi)) {
          extracted = true;
          break;
        }
      }
      if (!extracted) res_fields[i].push_back(&p.field(fi));
    }
  }

  bool uniform = true;
  for (const auto* field : res_fields[0]) {
    if (!IsColumnarType(field->second.type())) {
      uniform = false;
      break;
    }
  }
  for (size_t i = 1; uniform && i < n; ++i) {
    if (res_fields[i].size() != res_fields[0].size()) {
      uniform = false;
      break;
    }
    for (size_t f = 0; f < res_fields[i].size(); ++f) {
      if (res_fields[i][f]->first != res_fields[0][f]->first ||
          res_fields[i][f]->second.type() != res_fields[0][f]->second.type()) {
        uniform = false;
        break;
      }
    }
  }

  std::string residual_col;
  if (uniform) {
    const auto& schema = res_fields[0];
    bson::PutVarint(schema.size(), &residual_col);
    for (const auto* field : schema) {
      bson::PutVarint(field->first.size(), &residual_col);
      residual_col.append(field->first);
      residual_col.push_back(
          static_cast<char>(static_cast<uint8_t>(field->second.type())));
    }
    for (size_t f = 0; f < schema.size(); ++f) {
      switch (schema[f]->second.type()) {
        case bson::Type::kNull:
          break;  // The (name, type) pair is the whole encoding.
        case bson::Type::kBool:
        case bson::Type::kInt32:
        case bson::Type::kInt64:
        case bson::Type::kDateTime: {
          std::vector<int64_t> v(n);
          for (size_t i = 0; i < n; ++i) {
            const bson::Value& val = res_fields[i][f]->second;
            switch (val.type()) {
              case bson::Type::kBool:
                v[i] = val.AsBool() ? 1 : 0;
                break;
              case bson::Type::kInt32:
                v[i] = val.AsInt32();
                break;
              case bson::Type::kInt64:
                v[i] = val.AsInt64();
                break;
              default:
                v[i] = val.AsDateTime();
                break;
            }
          }
          bson::EncodeInt64Column(v, &residual_col);
          break;
        }
        case bson::Type::kDouble: {
          std::vector<double> v(n);
          for (size_t i = 0; i < n; ++i) {
            v[i] = res_fields[i][f]->second.AsDouble();
          }
          bson::EncodeDoubleColumn(v, &residual_col);
          break;
        }
        case bson::Type::kString: {
          std::vector<int64_t> lens(n);
          std::string blob;
          for (size_t i = 0; i < n; ++i) {
            const std::string& s = res_fields[i][f]->second.AsString();
            lens[i] = static_cast<int64_t>(s.size());
            blob.append(s);
          }
          bson::EncodeInt64Column(lens, &residual_col);
          const std::string z = LzCompress(blob);
          bson::PutVarint(z.size(), &residual_col);
          residual_col.append(z);
          break;
        }
        default:
          return Status::Internal("non-columnar type in uniform schema");
      }
    }
  } else {
    std::string residuals;
    for (size_t i = 0; i < n; ++i) {
      bson::Document res;
      for (const auto* field : res_fields[i]) {
        res.Append(field->first, field->second);
      }
      const std::string bytes = bson::EncodeBson(res);
      bson::PutVarint(bytes.size(), &residuals);
      residuals.append(bytes);
    }
    residual_col = LzCompress(residuals);
  }

  std::string ts_col, lon_col, lat_col, hil_col, pos_col;
  bson::EncodeInt64Column(ts, &ts_col);
  if (has_loc) {
    bson::EncodeDoubleColumn(lon, &lon_col);
    bson::EncodeDoubleColumn(lat, &lat_col);
  }
  if (has_hil) bson::EncodeInt64Column(hil, &hil_col);
  bson::EncodeInt64Column(positions, &pos_col);

  bson::Document meta;
  meta.Append("minTs", bson::Value::DateTime(min_ts));
  meta.Append("maxTs", bson::Value::DateTime(max_ts));
  meta.Append("n", bson::Value::Int32(static_cast<int32_t>(n)));
  if (has_loc) {
    const auto [lon_lo, lon_hi] = std::minmax_element(lon.begin(), lon.end());
    const auto [lat_lo, lat_hi] = std::minmax_element(lat.begin(), lat.end());
    bson::Array mbr;
    mbr.push_back(bson::Value::Double(*lon_lo));
    mbr.push_back(bson::Value::Double(*lat_lo));
    mbr.push_back(bson::Value::Double(*lon_hi));
    mbr.push_back(bson::Value::Double(*lat_hi));
    meta.Append("mbr", bson::Value::MakeArray(std::move(mbr)));
  }
  if (has_hil) {
    bson::Array ranges;
    for (const auto& [r_lo, r_hi] : BuildHilRanges(hil)) {
      ranges.push_back(bson::Value::Int64(r_lo));
      ranges.push_back(bson::Value::Int64(r_hi));
    }
    meta.Append("hil", bson::Value::MakeArray(std::move(ranges)));
  }

  bson::Document data;
  data.Append("v", bson::Value::Int32(kBucketFormatVersion));
  data.Append("ts", bson::Value::String(std::move(ts_col)));
  if (has_loc) {
    data.Append("lon", bson::Value::String(std::move(lon_col)));
    data.Append("lat", bson::Value::String(std::move(lat_col)));
  }
  if (has_hil) data.Append("hil", bson::Value::String(std::move(hil_col)));
  if (has_id) {
    // ObjectIds inside one bucket share their timestamp/machine prefix;
    // LZ'ing the concatenation keeps roughly the per-point counter bytes.
    data.Append("ids", bson::Value::String(LzCompress(ids)));
  }
  data.Append("pos", bson::Value::String(std::move(pos_col)));
  data.Append(uniform ? "cols" : "res",
              bson::Value::String(std::move(residual_col)));

  bson::Document bucket;
  if (has_id) {
    // The first point's _id doubles as the bucket's _id (unique: a point is
    // in exactly one bucket).
    bucket.Append("_id", *points[0].Get("_id"));
  }
  bucket.Append(kDateField, bson::Value::DateTime(window_base));
  if (layout.use_hilbert && has_hil) {
    bucket.Append(kHilbertField,
                  bson::Value::Int64((hil[0] >> layout.hilbert_shift)
                                     << layout.hilbert_shift));
  }
  bucket.Append(kBucketMetaField, bson::Value::MakeDocument(std::move(meta)));
  bucket.Append(kBucketDataField, bson::Value::MakeDocument(std::move(data)));
  return bucket;
}

Result<BucketMeta> ParseBucketMeta(const bson::Document& bucket) {
  const bson::Value* meta_v = bucket.Get(kBucketMetaField);
  if (meta_v == nullptr || meta_v->type() != bson::Type::kDocument) {
    return Status::Corruption("bucket document lacks meta");
  }
  const bson::Document& meta = meta_v->AsDocument();
  BucketMeta out;
  const bson::Value* min_ts = meta.Get("minTs");
  const bson::Value* max_ts = meta.Get("maxTs");
  const bson::Value* n = meta.Get("n");
  if (min_ts == nullptr || min_ts->type() != bson::Type::kDateTime ||
      max_ts == nullptr || max_ts->type() != bson::Type::kDateTime ||
      n == nullptr || n->type() != bson::Type::kInt32) {
    return Status::Corruption("bucket meta is malformed");
  }
  // The encoder never writes an empty bucket; a count below one would wrap
  // to billions of points in the unsigned field.
  if (n->AsInt32() < 1) {
    return Status::Corruption("bucket meta.n is not positive");
  }
  out.min_ts = min_ts->AsDateTime();
  out.max_ts = max_ts->AsDateTime();
  out.num_points = static_cast<uint32_t>(n->AsInt32());
  if (const bson::Value* mbr = meta.Get("mbr");
      mbr != nullptr && mbr->type() == bson::Type::kArray) {
    const bson::Array& a = mbr->AsArray();
    if (a.size() != 4) return Status::Corruption("bucket mbr is malformed");
    for (const bson::Value& v : a) {
      if (v.type() != bson::Type::kDouble) {
        return Status::Corruption("bucket mbr is malformed");
      }
    }
    out.has_mbr = true;
    out.mbr = {{a[0].AsDouble(), a[1].AsDouble()},
               {a[2].AsDouble(), a[3].AsDouble()}};
  }
  if (const bson::Value* hil = meta.Get("hil");
      hil != nullptr && hil->type() == bson::Type::kArray) {
    const bson::Array& a = hil->AsArray();
    if (a.size() % 2 != 0) {
      return Status::Corruption("bucket hil ranges are malformed");
    }
    out.hil_ranges.reserve(a.size() / 2);
    for (size_t i = 0; i < a.size(); i += 2) {
      if (a[i].type() != bson::Type::kInt64 ||
          a[i + 1].type() != bson::Type::kInt64) {
        return Status::Corruption("bucket hil ranges are malformed");
      }
      out.hil_ranges.emplace_back(a[i].AsInt64(), a[i + 1].AsInt64());
    }
  }
  return out;
}

uint32_t StoredPointCount(const bson::Document& doc) {
  if (!IsBucketDocument(doc)) return 1;
  const Result<BucketMeta> meta = ParseBucketMeta(doc);
  return meta.ok() ? meta->num_points : 1;
}

namespace {

/// Both sides sorted and disjoint: true iff some range of `a` overlaps
/// some range of `b` (two-pointer sweep).
bool RangesOverlap(const std::vector<std::pair<int64_t, int64_t>>& a,
                   const std::vector<std::pair<int64_t, int64_t>>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].second < b[j].first) {
      ++i;
    } else if (b[j].second < a[i].first) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

/// Both sides sorted and disjoint: true iff every range of `inner` lies
/// inside one range of `outer` (a single forward sweep).
bool RangesContain(const std::vector<std::pair<int64_t, int64_t>>& outer,
                   const std::vector<std::pair<int64_t, int64_t>>& inner) {
  size_t i = 0;
  for (const auto& m : inner) {
    while (i < outer.size() && outer[i].second < m.first) ++i;
    if (i == outer.size() || outer[i].first > m.first ||
        outer[i].second < m.second) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool BucketSelection::MayContain(const BucketMeta& meta) const {
  if (min_ts > max_ts || meta.max_ts < min_ts || meta.min_ts > max_ts) {
    return false;
  }
  if (meta.has_mbr) {
    for (const geo::Rect& r : rects) {
      if (!r.Intersects(meta.mbr)) return false;
    }
    for (const geo::Polygon& poly : polygons) {
      if (!poly.BoundingBox().Intersects(meta.mbr)) return false;
    }
  }
  if (!meta.hil_ranges.empty()) {
    for (const auto& ranges : hil_range_sets) {
      if (!RangesOverlap(ranges, meta.hil_ranges)) return false;
    }
  }
  return true;
}

bool BucketSelection::Covers(const BucketMeta& meta) const {
  if (!exact || !polygons.empty()) return false;
  if (meta.min_ts < min_ts || meta.max_ts > max_ts) return false;
  // has_mbr guarantees every point carries a canonical GeoJSON location,
  // so MBR containment implies each point matches the rect leaf; likewise
  // meta hil ranges exist only when every point has an Int64 hilbert.
  if (!rects.empty() && !meta.has_mbr) return false;
  for (const geo::Rect& r : rects) {
    if (!r.ContainsRect(meta.mbr)) return false;
  }
  if (!hil_range_sets.empty() && meta.hil_ranges.empty()) return false;
  for (const auto& ranges : hil_range_sets) {
    if (!RangesContain(ranges, meta.hil_ranges)) return false;
  }
  return true;
}

Result<std::vector<bson::Document>> DecodeBucket(
    const bson::Document& bucket, const BucketMeta& meta,
    const BucketSelection* selection, bool* selected) {
  const bson::Value* data_v = bucket.Get(kBucketDataField);
  if (data_v == nullptr || data_v->type() != bson::Type::kDocument) {
    return Status::Corruption("not a bucket document");
  }
  const size_t n = meta.num_points;
  const bson::Document& data = data_v->AsDocument();

  const auto column = [&data](std::string_view name) -> const std::string* {
    const bson::Value* v = data.Get(name);
    if (v == nullptr || v->type() != bson::Type::kString) return nullptr;
    return &v->AsString();
  };

  const std::string* ts_col = column("ts");
  const std::string* pos_col = column("pos");
  const std::string* res_col = column("res");
  const std::string* cols_col = column("cols");
  const std::string* lon_col = column("lon");
  const std::string* hil_col = column("hil");
  if (ts_col == nullptr || pos_col == nullptr ||
      (res_col == nullptr) == (cols_col == nullptr)) {
    return Status::Corruption("bucket data columns are missing");
  }

  std::string_view view = *ts_col;
  Result<std::vector<int64_t>> ts = bson::DecodeInt64Column(&view);
  if (!ts.ok()) return ts.status();
  if (ts->size() != n) {
    return Status::Corruption("bucket column lengths disagree with meta.n");
  }

  std::vector<double> lon, lat;
  const auto decode_loc = [&]() -> Status {
    if (lon_col == nullptr || lon.size() == n) return Status::OK();
    const std::string* lat_col = column("lat");
    if (lat_col == nullptr) {
      return Status::Corruption("bucket lon column without lat");
    }
    view = *lon_col;
    Result<std::vector<double>> lons = bson::DecodeDoubleColumn(&view);
    if (!lons.ok()) return lons.status();
    view = *lat_col;
    Result<std::vector<double>> lats = bson::DecodeDoubleColumn(&view);
    if (!lats.ok()) return lats.status();
    if (lons->size() != n || lats->size() != n) {
      return Status::Corruption("bucket location columns are short");
    }
    lon = std::move(*lons);
    lat = std::move(*lats);
    return Status::OK();
  };
  std::vector<int64_t> hil;
  const auto decode_hil = [&]() -> Status {
    if (hil_col == nullptr || hil.size() == n) return Status::OK();
    view = *hil_col;
    Result<std::vector<int64_t>> hils = bson::DecodeInt64Column(&view);
    if (!hils.ok()) return hils.status();
    if (hils->size() != n) {
      return Status::Corruption("bucket hilbert column is short");
    }
    hil = std::move(*hils);
    return Status::OK();
  };

  // Selection mask, one byte per point; empty selects every point.
  std::vector<uint8_t> keep;
  const bool apply =
      selection != nullptr &&
      (lon_col != nullptr ||
       (selection->rects.empty() && selection->polygons.empty())) &&
      (hil_col != nullptr || selection->hil_range_sets.empty());
  if (selected != nullptr) *selected = apply;
  size_t kept = n;
  if (apply) {
    keep.resize(n);
    kept = 0;
    for (size_t i = 0; i < n; ++i) {
      keep[i] = static_cast<uint8_t>(((*ts)[i] >= selection->min_ts) &
                                     ((*ts)[i] <= selection->max_ts));
      kept += keep[i];
    }
    if (kept > 0 &&
        (!selection->rects.empty() || !selection->polygons.empty())) {
      if (Status s = decode_loc(); !s.ok()) return s;
      kept = 0;
      for (size_t i = 0; i < n; ++i) {
        if (keep[i] == 0) continue;
        const geo::Point p{lon[i], lat[i]};
        for (const geo::Rect& r : selection->rects) {
          keep[i] &= static_cast<uint8_t>(r.Contains(p));
        }
        for (const geo::Polygon& poly : selection->polygons) {
          if (keep[i] == 0) break;
          keep[i] = static_cast<uint8_t>(poly.Contains(p));
        }
        kept += keep[i];
      }
    }
    if (kept > 0 && !selection->hil_range_sets.empty()) {
      if (Status s = decode_hil(); !s.ok()) return s;
      kept = 0;
      for (size_t i = 0; i < n; ++i) {
        for (const auto& ranges : selection->hil_range_sets) {
          if (keep[i] == 0) break;
          const auto it = std::lower_bound(
              ranges.begin(), ranges.end(), hil[i],
              [](const std::pair<int64_t, int64_t>& r, int64_t v) {
                return r.second < v;
              });
          keep[i] = static_cast<uint8_t>(it != ranges.end() &&
                                         it->first <= hil[i]);
        }
        kept += keep[i];
      }
    }
    if (kept == 0) return std::vector<bson::Document>();
  }

  view = *pos_col;
  Result<std::vector<int64_t>> positions = bson::DecodeInt64Column(&view);
  if (!positions.ok()) return positions.status();
  if (positions->size() != n * kNumSlots) {
    return Status::Corruption("bucket column lengths disagree with meta.n");
  }
  if (Status s = decode_loc(); !s.ok()) return s;
  if (Status s = decode_hil(); !s.ok()) return s;

  std::string ids;
  bool has_ids = false;
  if (const std::string* ids_col = column("ids")) {
    Result<std::string> raw = LzDecompress(*ids_col);
    if (!raw.ok()) return raw.status();
    if (raw->size() != n * bson::ObjectId::kSize) {
      return Status::Corruption("bucket ids column is short");
    }
    ids = std::move(*raw);
    has_ids = true;
  }

  std::string residuals;
  std::string_view res_view;
  ResidualColumns rescols;
  if (res_col != nullptr) {
    Result<std::string> raw = LzDecompress(*res_col);
    if (!raw.ok()) return raw.status();
    residuals = std::move(*raw);
    res_view = residuals;
  } else {
    Result<ResidualColumns> rc = DecodeResidualColumns(*cols_col, n);
    if (!rc.ok()) return rc.status();
    rescols = std::move(*rc);
  }

  std::vector<bson::Document> points;
  points.reserve(kept);
  for (size_t i = 0; i < n; ++i) {
    const bool skip = !keep.empty() && keep[i] == 0;
    bson::Document res;
    size_t res_count = rescols.fields.size();
    if (res_col != nullptr) {
      Result<uint64_t> res_len = bson::GetVarint(&res_view);
      if (!res_len.ok()) return res_len.status();
      if (res_view.size() < *res_len) {
        return Status::Corruption("bucket residuals are truncated");
      }
      if (skip) {
        res_view.remove_prefix(*res_len);
        continue;
      }
      Result<bson::Document> parsed =
          bson::DecodeBson(res_view.substr(0, *res_len));
      if (!parsed.ok()) return parsed.status();
      res_view.remove_prefix(*res_len);
      res = std::move(*parsed);
      res_count = res.size();
    } else if (skip) {
      continue;
    }

    const int64_t* pos = &(*positions)[i * kNumSlots];
    const size_t total_fields =
        res_count + static_cast<size_t>(pos[kSlotTs] >= 0) +
        static_cast<size_t>(pos[kSlotLoc] >= 0) +
        static_cast<size_t>(pos[kSlotId] >= 0) +
        static_cast<size_t>(pos[kSlotHil] >= 0);
    bson::Document point;
    point.Reserve(total_fields);
    size_t res_next = 0;
    for (size_t fi = 0; fi < total_fields; ++fi) {
      if (pos[kSlotTs] == static_cast<int64_t>(fi)) {
        point.Append(kDateField, bson::Value::DateTime((*ts)[i]));
      } else if (pos[kSlotLoc] == static_cast<int64_t>(fi)) {
        if (lon.size() != n) {
          return Status::Corruption("bucket location columns are missing");
        }
        point.Append(kLocationField,
                     bson::Value::MakeDocument(
                         bson::GeoJsonPoint(lon[i], lat[i])));
      } else if (pos[kSlotId] == static_cast<int64_t>(fi)) {
        if (!has_ids) {
          return Status::Corruption("bucket ids column is missing");
        }
        std::array<uint8_t, bson::ObjectId::kSize> bytes;
        std::memcpy(bytes.data(), ids.data() + i * bson::ObjectId::kSize,
                    bytes.size());
        point.Append("_id", bson::Value::Id(bson::ObjectId(bytes)));
      } else if (pos[kSlotHil] == static_cast<int64_t>(fi)) {
        if (hil.size() != n) {
          return Status::Corruption("bucket hilbert column is missing");
        }
        point.Append(kHilbertField, bson::Value::Int64(hil[i]));
      } else {
        if (res_next >= res_count) {
          return Status::Corruption("bucket residual fields are short");
        }
        if (res_col != nullptr) {
          point.Append(res.field(res_next).first, res.field(res_next).second);
        } else {
          const ResidualColumns::Field& f = rescols.fields[res_next];
          point.Append(f.name, f.ValueAt(i));
        }
        ++res_next;
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace stix::storage
