// A saved cluster is a checkpointed data directory: Cluster::Checkpoint()
// persists every shard's collection and index images plus the compacted
// config journal, and RecoverCluster() reopens the directory. These tests
// hold that round trip to exact topology, placement, zones, index images
// and query parity, and check that a damaged image fails the restore
// instead of silently coming back short.

#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bson/codec.h"
#include "cluster/cluster.h"
#include "common/lz.h"
#include "common/rng.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "temp_dir.h"

namespace stix::cluster {
namespace {

using bson::Value;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // dir_ is unique per test case: ctest -j runs cases as concurrent
    // processes, and a shared directory races the corruption tests against
    // the round-trip tests.
    options_.num_shards = 3;
    options_.chunk_max_bytes = 8 * 1024;
    options_.seed = 21;
    options_.durability.data_dir = dir_.path();
    source_ = std::make_unique<Cluster>(options_);
    ASSERT_TRUE(source_
                    ->ShardCollection(ShardKeyPattern(
                        {"hilbertIndex", "date"}, ShardingStrategy::kRange))
                    .ok());
    ASSERT_TRUE(source_
                    ->CreateIndex(index::IndexDescriptor(
                        "location_2dsphere_date_1",
                        {{"location", index::IndexFieldKind::k2dsphere},
                         {"date", index::IndexFieldKind::kAscending}}))
                    .ok());
    for (int i = 0; i < 1200; ++i) {
      ASSERT_TRUE(source_->Insert(MakeDoc(i)).ok());
    }
    source_->Balance();
    ASSERT_TRUE(source_->SetZonesByBucketAuto("hilbertIndex").ok());
  }

  bson::Document MakeDoc(int64_t id) {
    bson::Document doc;
    doc.Append("_id", Value::Int64(id));
    doc.Append("location", Value::MakeDocument(bson::GeoJsonPoint(
                               rng_.NextDouble(0, 10), rng_.NextDouble(0, 10))));
    doc.Append("date", Value::DateTime(60000LL * id));
    doc.Append("hilbertIndex", Value::Int64(rng_.NextInt(0, 50)));
    doc.Append("pad", Value::String(std::string(64, 'x')));
    return doc;
  }

  Result<std::unique_ptr<Cluster>> Restore() const {
    ClusterOptions options;
    options.durability.data_dir = dir_.path();
    return RecoverCluster(options);
  }

  /// The one checkpoint image of `shard` (Checkpoint() prunes older ones).
  std::string ImagePath(int shard) const {
    const std::vector<storage::CheckpointRef> refs = storage::ListCheckpoints(
        dir_.path() + "/shard-" + std::to_string(shard));
    EXPECT_EQ(refs.size(), 1u) << "shard " << shard;
    return refs.empty() ? std::string() : refs.front().path;
  }

  stix::testing::TempDir dir_;
  ClusterOptions options_;
  Rng rng_{5};
  std::unique_ptr<Cluster> source_;
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(source_->Checkpoint().ok());
  const Result<std::unique_ptr<Cluster>> restored = Restore();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Cluster& r = **restored;

  // Topology.
  EXPECT_EQ(r.num_shards(), source_->num_shards());
  EXPECT_EQ(r.shard_key().DebugString(), source_->shard_key().DebugString());
  EXPECT_EQ(r.total_documents(), source_->total_documents());
  ASSERT_EQ(r.chunks().num_chunks(), source_->chunks().num_chunks());
  for (size_t i = 0; i < r.chunks().num_chunks(); ++i) {
    EXPECT_EQ(r.chunks().chunk(i).min, source_->chunks().chunk(i).min);
    EXPECT_EQ(r.chunks().chunk(i).shard_id,
              source_->chunks().chunk(i).shard_id);
  }
  ASSERT_EQ(r.zones().size(), source_->zones().size());
  for (size_t i = 0; i < r.zones().size(); ++i) {
    EXPECT_EQ(r.zones()[i].min, source_->zones()[i].min);
    EXPECT_EQ(r.zones()[i].max, source_->zones()[i].max);
    EXPECT_EQ(r.zones()[i].shard_id, source_->zones()[i].shard_id);
  }

  // Exact per-shard placement and the index set, each index restored from
  // its image with every entry (including the secondary geo index).
  for (int s = 0; s < r.num_shards(); ++s) {
    const Shard& got = *r.shards()[s];
    const Shard& want = *source_->shards()[s];
    EXPECT_EQ(got.num_documents(), want.num_documents()) << "shard " << s;
    ASSERT_EQ(got.catalog().indexes().size(),
              want.catalog().indexes().size());
    EXPECT_NE(got.catalog().Get("location_2dsphere_date_1"), nullptr);
    for (const auto& idx : want.catalog().indexes()) {
      const std::string& name = idx->descriptor().name();
      const index::Index* restored_idx = got.catalog().Get(name);
      ASSERT_NE(restored_idx, nullptr) << name;
      EXPECT_EQ(restored_idx->btree().num_entries(),
                idx->btree().num_entries())
          << "shard " << s << " index " << name;
    }
  }

  // Queries agree.
  const query::ExprPtr q = query::MakeAnd(
      {query::MakeGeoWithinBox("location", {{2, 2}, {7, 7}}),
       query::MakeRange("date", Value::DateTime(0),
                        Value::DateTime(60000LL * 800))});
  const ClusterQueryResult a = source_->Query(q);
  const ClusterQueryResult b = r.Query(q);
  EXPECT_EQ(a.docs.size(), b.docs.size());
  EXPECT_EQ(a.nodes_contacted, b.nodes_contacted);
}

TEST_F(SnapshotTest, RestoredClusterAcceptsNewInserts) {
  ASSERT_TRUE(source_->Checkpoint().ok());
  const uint64_t saved = source_->total_documents();
  source_.reset();
  {
    const Result<std::unique_ptr<Cluster>> restored = Restore();
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    Cluster& r = **restored;
    bson::Document doc;
    doc.Append("_id", Value::Int64(999999));
    doc.Append("location", Value::MakeDocument(bson::GeoJsonPoint(5, 5)));
    doc.Append("date", Value::DateTime(60000LL * 5000));
    doc.Append("hilbertIndex", Value::Int64(25));
    ASSERT_TRUE(r.Insert(std::move(doc)).ok());
    EXPECT_EQ(r.total_documents(), saved + 1);
  }
  // The insert went through the reopened WAL, so it survives the next
  // restore too.
  const Result<std::unique_ptr<Cluster>> again = Restore();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->total_documents(), saved + 1);
}

uint32_t U32At(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

// Offset just past the block stream starting at `at` (its terminator
// included).
size_t SkipBlocks(const std::string& image, size_t at) {
  while (U32At(image, at) != 0) at += 12 + U32At(image, at + 4);
  return at + 4;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Regression: recovery used to skip a checkpoint that failed to load and
// replay only the WAL — which was truncated at that very checkpoint — so a
// single flipped byte restored an almost empty cluster and reported OK.
// The header and the index section headers sit outside the block frames
// and carry their own CRC: a flipped LSN or multikey byte fails too.
TEST_F(SnapshotTest, DetectsCorruption) {
  ASSERT_TRUE(source_->Checkpoint().ok());
  for (int i = 1200; i < 1210; ++i) {
    ASSERT_TRUE(source_->Insert(MakeDoc(i)).ok());
  }
  const std::string path = ImagePath(1);
  const std::string pristine = ReadFile(path);
  // Header: magic(8) version(4) lsn(8) max_record_id(8) num_docs(8) crc(4);
  // then the document blocks, the index count and its crc, and the first
  // index section header: name_len(4) name multikey(1) num_entries(8).
  constexpr size_t kLsnAt = 12;
  const size_t index_at = SkipBlocks(pristine, 40) + 8;
  const size_t multikey_at = index_at + 4 + U32At(pristine, index_at);
  ASSERT_LT(multikey_at, pristine.size());
  ASSERT_EQ(pristine[multikey_at], 0) << "first index is not multikey";
  const std::vector<std::pair<const char*, size_t>> cases = {
      {"document block", 64}, {"header lsn", kLsnAt},
      {"multikey byte", multikey_at}};
  for (const auto& [what, at] : cases) {
    std::string flipped = pristine;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x5A);
    WriteFile(path, flipped);
    const Result<std::unique_ptr<Cluster>> restored = Restore();
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption)
        << what << ": " << restored.status().ToString();
  }
  WriteFile(path, pristine);
  const Result<std::unique_ptr<Cluster>> restored = Restore();
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
}

// Number of blocks in the block stream starting at `at`.
int CountBlocks(const std::string& image, size_t at) {
  int blocks = 0;
  for (; U32At(image, at) != 0; at += 12 + U32At(image, at + 4)) ++blocks;
  return blocks;
}

// Readers parse one decompressed block at a time; an image whose sections
// span several blocks still comes back entry for entry.
TEST_F(SnapshotTest, MultiBlockImageRoundTrips) {
  storage::Collection collection;
  storage::BTree btree;
  Rng rng(77);
  for (int i = 0; i < 4000; ++i) {
    bson::Document doc = MakeDoc(i);
    doc.Append("noise", Value::String(std::to_string(rng.Next())));
    const storage::RecordId rid = collection.records().Insert(std::move(doc));
    for (int k = 0; k < 8; ++k) {
      btree.Insert(std::to_string(rng.Next()) + "/" + std::to_string(i), rid);
    }
  }
  const stix::testing::TempDir dir("ckpt_blocks");
  ASSERT_TRUE(storage::WriteCheckpoint(collection,
                                       {{"noise_1", true, &btree}}, 7,
                                       dir.path())
                  .ok());
  const std::string path = storage::CheckpointPath(dir.path(), 7);
  const std::string image = ReadFile(path);
  EXPECT_GT(CountBlocks(image, 40), 1);
  const size_t index_at = SkipBlocks(image, 40) + 8;
  EXPECT_GT(CountBlocks(image, index_at + 4 + U32At(image, index_at) + 13),
            1);

  const Result<storage::CheckpointImage> loaded =
      storage::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lsn, 7u);
  EXPECT_EQ(loaded->collection.records().num_records(), 4000u);
  collection.records().ForEach(
      [&](storage::RecordId rid, const bson::Document& doc) {
        const bson::Document* back = loaded->collection.records().Get(rid);
        ASSERT_NE(back, nullptr) << rid;
        EXPECT_EQ(bson::EncodeBson(*back), bson::EncodeBson(doc)) << rid;
      });
  ASSERT_EQ(loaded->indexes.size(), 1u);
  const storage::CheckpointIndexImage& index = loaded->indexes[0];
  EXPECT_EQ(index.name, "noise_1");
  EXPECT_TRUE(index.multikey);
  ASSERT_EQ(index.entries.size(), btree.num_entries());
  size_t i = 0;
  for (storage::BTree::Cursor cur = btree.First(); cur.Valid(); cur.Next()) {
    EXPECT_EQ(index.entries[i].first, cur.key());
    EXPECT_EQ(index.entries[i].second, cur.rid());
    ++i;
  }
}

// The writer never splits an entry across blocks, so a reader that parses
// block by block rejects an image where one does.
TEST_F(SnapshotTest, RejectsEntryAcrossBlocks) {
  const auto put32 = [](uint32_t v, std::string* out) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto put64 = [](uint64_t v, std::string* out) {
    for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto block = [&](std::string_view raw, std::string* out) {
    const std::string comp = LzCompress(raw);
    put32(static_cast<uint32_t>(raw.size()), out);
    put32(static_cast<uint32_t>(comp.size()), out);
    put32(storage::Crc32(comp), out);
    *out += comp;
  };
  // One document entry: u64 rid | u32 len | BSON.
  const std::string bson_bytes = bson::EncodeBson(MakeDoc(1));
  std::string entry;
  put64(1, &entry);
  put32(static_cast<uint32_t>(bson_bytes.size()), &entry);
  entry += bson_bytes;
  const auto image = [&](const std::vector<std::string_view>& blocks) {
    std::string out("STIXCKP1");
    put32(2, &out);
    put64(5, &out);  // lsn
    put64(1, &out);  // max_record_id
    put64(1, &out);  // num_docs
    put32(storage::Crc32(out), &out);
    for (const std::string_view raw : blocks) block(raw, &out);
    put32(0, &out);
    std::string count;
    put32(0, &count);
    put32(storage::Crc32(count), &count);
    return out + count;
  };
  const stix::testing::TempDir dir("ckpt_straddle");
  const std::string path = storage::CheckpointPath(dir.path(), 5);
  const std::string_view whole = entry;

  WriteFile(path, image({whole}));
  const Result<storage::CheckpointImage> ok = storage::LoadCheckpoint(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->collection.records().num_records(), 1u);

  for (const size_t cut : {size_t{6}, size_t{20}}) {
    WriteFile(path, image({whole.substr(0, cut), whole.substr(cut)}));
    EXPECT_EQ(storage::LoadCheckpoint(path).status().code(),
              StatusCode::kCorruption)
        << "cut at " << cut;
    EXPECT_EQ(storage::ScanCheckpointDocuments(
                  path, [](storage::RecordId, std::string_view) {
                    return Status::OK();
                  })
                  .code(),
              StatusCode::kCorruption)
        << "cut at " << cut;
  }
}

TEST_F(SnapshotTest, RejectsWrongMagicAndMissingFile) {
  ASSERT_TRUE(source_->Checkpoint().ok());
  {
    std::ofstream f(ImagePath(0), std::ios::binary | std::ios::trunc);
    f << "definitely not a checkpoint";
  }
  EXPECT_EQ(Restore().status().code(), StatusCode::kCorruption);

  ClusterOptions missing;
  missing.durability.data_dir = dir_ / "nonexistent";
  EXPECT_EQ(RecoverCluster(missing).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(FileExists(missing.durability.data_dir))
      << "a failed restore must not create the directory";
}

TEST(SnapshotHashedTest, PreservesHashedStrategy) {
  const stix::testing::TempDir dir;
  ClusterOptions options;
  options.num_shards = 2;
  options.durability.data_dir = dir.path();
  {
    Cluster source(options);
    ASSERT_TRUE(source
                    .ShardCollection(ShardKeyPattern(
                        {"date"}, ShardingStrategy::kHashed))
                    .ok());
    for (int i = 0; i < 50; ++i) {
      bson::Document doc;
      doc.Append("_id", Value::Int64(i));
      doc.Append("date", Value::DateTime(1000LL * i));
      ASSERT_TRUE(source.Insert(std::move(doc)).ok());
    }
    ASSERT_TRUE(source.Checkpoint().ok());
  }
  const Result<std::unique_ptr<Cluster>> restored = RecoverCluster(options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->shard_key().strategy(), ShardingStrategy::kHashed);
  EXPECT_EQ((*restored)->total_documents(), 50u);
  // Hashed routing still works on the restored cluster: an equality query
  // targets one shard.
  const query::ExprPtr eq =
      query::MakeCmp("date", query::CmpOp::kEq, Value::DateTime(5000));
  EXPECT_EQ((*restored)->TargetShards(eq).size(), 1u);
}

// Regression, as DetectsCorruption: a cut-short image must fail the
// restore, not fall back to a WAL that no longer reaches behind it.
TEST_F(SnapshotTest, RejectsTruncatedFile) {
  ASSERT_TRUE(source_->Checkpoint().ok());
  const std::string path = ImagePath(2);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  contents.resize(contents.size() * 2 / 3);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  const Result<std::unique_ptr<Cluster>> restored = Restore();
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption)
      << restored.status().ToString();
}

}  // namespace
}  // namespace stix::cluster
