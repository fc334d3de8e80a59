#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "workload/csv_loader.h"

namespace stix::workload {
namespace {

TEST(CsvParseTest, DefaultSchemaIsoDate) {
  const Result<bson::Document> doc = ParseCsvRecord(
      "veh42,23.727539,37.983810,2018-10-01T08:34:40.067Z", CsvSchema{});
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Get("id")->AsString(), "veh42");
  double lon, lat;
  ASSERT_TRUE(bson::ExtractGeoJsonPoint(*doc->Get("location"), &lon, &lat));
  EXPECT_DOUBLE_EQ(lon, 23.727539);
  EXPECT_DOUBLE_EQ(lat, 37.983810);
  EXPECT_EQ(doc->Get("date")->AsDateTime(), 1538382880067);
}

TEST(CsvParseTest, EpochMillisDate) {
  const Result<bson::Document> doc =
      ParseCsvRecord("1,23.5,37.9,1538382880067", CsvSchema{});
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Get("date")->AsDateTime(), 1538382880067);
}

TEST(CsvParseTest, CustomColumnOrderAndSeparator) {
  CsvSchema schema;
  schema.date_column = 0;
  schema.id_column = 1;
  schema.longitude_column = 2;
  schema.latitude_column = 3;
  schema.separator = ';';
  const Result<bson::Document> doc =
      ParseCsvRecord("2018-07-01T00:00:00;x;21.7;38.2", schema);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Get("id")->AsString(), "x");
  EXPECT_EQ(doc->Get("date")->AsDateTime(), 1530403200000);
}

TEST(CsvParseTest, RejectsBadRecords) {
  EXPECT_FALSE(ParseCsvRecord("only,three,columns", CsvSchema{}).ok());
  EXPECT_FALSE(
      ParseCsvRecord("1,not-a-number,37.9,2018-07-01T00:00:00", CsvSchema{})
          .ok());
  EXPECT_FALSE(
      ParseCsvRecord("1,23.5,37.9,yesterday", CsvSchema{}).ok());
  EXPECT_FALSE(
      ParseCsvRecord("1,999.0,37.9,2018-07-01T00:00:00", CsvSchema{}).ok());
  // Non-finite coordinates are out of range too (a NaN fails every
  // comparison, so a plain range check would let it through).
  for (const char* line :
       {"v1,nan,38.0,1577836800000", "v1,23.5,nan,1577836800000",
        "v1,-nan,38.0,1577836800000", "v1,NaN,NAN,1577836800000",
        "v1,inf,38.0,1577836800000", "v1,23.5,-inf,1577836800000"}) {
    const Result<bson::Document> doc = ParseCsvRecord(line, CsvSchema{});
    ASSERT_FALSE(doc.ok()) << line;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

class CsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/stix_csv_loader_test.csv";
    std::ofstream out(path_);
    out << "id,lon,lat,date\n";
    out << "a,23.70,37.95,2018-07-02T10:00:00\n";
    out << "b,23.72,37.96,2018-07-02T11:00:00\r\n";  // CRLF line
    out << "\n";                                     // blank line skipped
    out << "c,23.74,37.97,2018-07-02T12:00:00\n";
  }
  void TearDown() override { remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CsvFileTest, LoadsIntoStore) {
  st::StStoreOptions options;
  options.approach.kind = st::ApproachKind::kHil;
  options.cluster.num_shards = 2;
  st::StStore store(options);
  ASSERT_TRUE(store.Setup().ok());

  CsvSchema schema;
  schema.has_header = true;
  const Result<uint64_t> loaded = LoadCsvFile(path_, schema, &store);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 3u);
  EXPECT_EQ(store.cluster().total_documents(), 3u);

  // The loaded points answer spatio-temporal queries.
  int64_t t0 = 0, t1 = 0;
  ParseIsoDate("2018-07-02T10:30:00", &t0);
  ParseIsoDate("2018-07-02T23:00:00", &t1);
  const st::StQueryResult r =
      store.Query({{23.6, 37.9}, {23.8, 38.0}}, t0, t1);
  EXPECT_EQ(r.cluster.docs.size(), 2u);  // b and c
}

TEST_F(CsvFileTest, MissingFileIsNotFound) {
  st::StStoreOptions options;
  options.cluster.num_shards = 1;
  st::StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  const Result<uint64_t> r =
      LoadCsvFile("/nonexistent/file.csv", CsvSchema{}, &store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace stix::workload
