#include "workload/csv_loader.h"

#include <cstdlib>
#include <fstream>

#include "common/strings.h"

namespace stix::workload {
namespace {

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool ParseDateValue(const std::string& s, int64_t* millis) {
  if (ParseIsoDate(s, millis)) return true;
  // Fallback: epoch milliseconds.
  if (s.empty()) return false;
  char* end = nullptr;
  *millis = strtoll(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

}  // namespace

Result<bson::Document> ParseCsvRecord(std::string_view line,
                                      const CsvSchema& schema) {
  const std::vector<std::string> columns = Split(line, schema.separator);
  const int needed = std::max(
      std::max(schema.id_column, schema.date_column),
      std::max(schema.longitude_column, schema.latitude_column));
  if (static_cast<int>(columns.size()) <= needed) {
    return Status::InvalidArgument("CSV record has too few columns: " +
                                   std::string(line));
  }

  double lon, lat;
  if (!ParseDouble(columns[schema.longitude_column], &lon) ||
      !ParseDouble(columns[schema.latitude_column], &lat)) {
    return Status::InvalidArgument("bad coordinates in CSV record");
  }
  // Written as "not inside" so a NaN coordinate is rejected too.
  if (!(lon >= -180.0 && lon <= 180.0 && lat >= -90.0 && lat <= 90.0)) {
    return Status::InvalidArgument("coordinates out of range");
  }
  int64_t millis;
  if (!ParseDateValue(columns[schema.date_column], &millis)) {
    return Status::InvalidArgument("bad date in CSV record: " +
                                   columns[schema.date_column]);
  }

  bson::Document doc;
  doc.Append("id", bson::Value::String(columns[schema.id_column]));
  doc.Append("location",
             bson::Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append("date", bson::Value::DateTime(millis));
  return doc;
}

Result<uint64_t> LoadCsvFile(const std::string& path, const CsvSchema& schema,
                             st::StStore* store) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  std::string line;
  uint64_t loaded = 0;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (first && schema.has_header) {
      first = false;
      continue;
    }
    first = false;
    if (line.empty()) continue;
    Result<bson::Document> doc = ParseCsvRecord(line, schema);
    if (!doc.ok()) return doc.status();
    const Status s = store->Insert(std::move(*doc));
    if (!s.ok()) return s;
    ++loaded;
  }
  return loaded;
}

}  // namespace stix::workload
