#include "storage/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "bson/codec.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/lz.h"
#include "common/metrics.h"
#include "storage/wal.h"

namespace stix::storage {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'I', 'X', 'C', 'K', 'P', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kBlockTarget = 256 * 1024;
constexpr uint32_t kMaxBlockLen = 64u * 1024 * 1024;
constexpr char kSuffix[] = ".ckpt";

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool GetU32(std::istream* in, uint32_t* v) {
  char buf[4];
  if (!in->read(buf, 4)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[i])) << (8 * i);
  }
  return true;
}

bool GetU64(std::istream* in, uint64_t* v) {
  char buf[8];
  if (!in->read(buf, 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[i])) << (8 * i);
  }
  return true;
}

uint32_t GetU32Mem(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64Mem(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// Accumulates a raw byte stream and flushes it as LZ'd CRC-framed blocks.
/// Every flush evaluates checkpointMidWrite — the crash point that leaves a
/// partial `.tmp` behind.
class BlockWriter {
 public:
  explicit BlockWriter(std::ofstream* out) : out_(out) {}

  Status Add(std::string_view bytes) {
    buf_.append(bytes.data(), bytes.size());
    if (buf_.size() >= kBlockTarget) return Flush();
    return Status::OK();
  }

  /// Flushes the remainder and writes the raw_len == 0 terminator.
  Status Finish() {
    if (!buf_.empty()) {
      if (Status s = Flush(); !s.ok()) return s;
    }
    std::string terminator;
    PutU32(0, &terminator);
    out_->write(terminator.data(),
                static_cast<std::streamsize>(terminator.size()));
    return Status::OK();
  }

 private:
  Status Flush();

  std::ofstream* out_;
  std::string buf_;
};

std::string ParseLsnFromName(const std::string& path, uint64_t* lsn) {
  // dir/checkpoint-<lsn>.ckpt
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  constexpr char kPrefix[] = "checkpoint-";
  if (name.rfind(kPrefix, 0) != 0) return "";
  const size_t suffix_at = name.size() - (sizeof(kSuffix) - 1);
  if (name.size() <= sizeof(kPrefix) - 1 + sizeof(kSuffix) - 1 ||
      name.compare(suffix_at, std::string::npos, kSuffix) != 0) {
    return "";
  }
  const std::string digits =
      name.substr(sizeof(kPrefix) - 1, suffix_at - (sizeof(kPrefix) - 1));
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return "";
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *lsn = value;
  return name;
}

/// Reads one block stream (until the raw_len == 0 terminator) and returns
/// the concatenated raw bytes.
Result<std::string> ReadBlocks(std::istream* in) {
  std::string raw;
  for (;;) {
    uint32_t raw_len;
    if (!GetU32(in, &raw_len)) {
      return Status::Corruption("checkpoint: truncated block header");
    }
    if (raw_len == 0) return raw;
    uint32_t comp_len, crc;
    if (!GetU32(in, &comp_len) || !GetU32(in, &crc)) {
      return Status::Corruption("checkpoint: truncated block header");
    }
    if (raw_len > kMaxBlockLen || comp_len > kMaxBlockLen) {
      return Status::Corruption("checkpoint: implausible block length");
    }
    std::string compressed(comp_len, '\0');
    if (!in->read(compressed.data(), comp_len)) {
      return Status::Corruption("checkpoint: truncated block body");
    }
    if (Crc32(compressed) != crc) {
      return Status::Corruption("checkpoint: block checksum mismatch");
    }
    Result<std::string> block = LzDecompress(compressed);
    if (!block.ok()) return block.status();
    if (block->size() != raw_len) {
      return Status::Corruption("checkpoint: block length mismatch");
    }
    raw += *block;
  }
}

struct CheckpointHeader {
  uint64_t lsn = 0;
  RecordId max_record_id = 0;
  uint64_t num_docs = 0;
};

/// Opens `path` and checks its header, leaving `in` at the document blocks.
Result<CheckpointHeader> OpenCheckpoint(const std::string& path,
                                        std::ifstream* in) {
  in->open(path, std::ios::binary);
  if (!in->is_open()) {
    return Status::NotFound("cannot open checkpoint file: " + path);
  }
  char magic[8];
  if (!in->read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a STIX checkpoint: " + path);
  }
  uint32_t version;
  if (!GetU32(in, &version) || version != kVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  CheckpointHeader header;
  if (!GetU64(in, &header.lsn) || !GetU64(in, &header.max_record_id) ||
      !GetU64(in, &header.num_docs)) {
    return Status::Corruption("checkpoint: truncated header");
  }
  return header;
}

/// Reads the document blocks at `in` and hands every (rid, BSON) entry to
/// `fn`; Corruption when the entries do not add up to `num_docs`.
Status WalkDocuments(std::istream* in, uint64_t num_docs,
                     const CheckpointDocFn& fn) {
  Result<std::string> doc_stream = ReadBlocks(in);
  if (!doc_stream.ok()) return doc_stream.status();
  const std::string_view bytes = *doc_stream;
  size_t offset = 0;
  uint64_t walked = 0;
  while (offset < bytes.size()) {
    if (offset + 12 > bytes.size()) {
      return Status::Corruption("checkpoint: truncated document entry");
    }
    const uint64_t rid = GetU64Mem(bytes.data() + offset);
    const uint32_t len = GetU32Mem(bytes.data() + offset + 8);
    offset += 12;
    if (offset + len > bytes.size()) {
      return Status::Corruption("checkpoint: truncated document body");
    }
    if (Status s = fn(rid, bytes.substr(offset, len)); !s.ok()) return s;
    offset += len;
    ++walked;
  }
  if (walked != num_docs) {
    return Status::Corruption("checkpoint: document count mismatch");
  }
  return Status::OK();
}

}  // namespace

// Armed by recovery tests/fuzzing with an error action; each fired flush
// aborts the checkpoint write mid-file.
STIX_FAIL_POINT_DEFINE(checkpointMidWrite);

Status BlockWriter::Flush() {
  if (Status s = CheckFailPoint(checkpointMidWrite); !s.ok()) {
    // Simulated crash mid-checkpoint: whatever already streamed out stays
    // in the .tmp file, exactly like a torn real write.
    out_->flush();
    return s;
  }
  const std::string compressed = LzCompress(buf_);
  std::string header;
  PutU32(static_cast<uint32_t>(buf_.size()), &header);
  PutU32(static_cast<uint32_t>(compressed.size()), &header);
  PutU32(Crc32(compressed), &header);
  out_->write(header.data(), static_cast<std::streamsize>(header.size()));
  out_->write(compressed.data(),
              static_cast<std::streamsize>(compressed.size()));
  buf_.clear();
  return Status::OK();
}

std::string CheckpointPath(const std::string& dir, uint64_t lsn) {
  return dir + "/checkpoint-" + std::to_string(lsn) + kSuffix;
}

Status WriteCheckpoint(const Collection& collection,
                       const std::vector<IndexDump>& indexes, uint64_t lsn,
                       const std::string& dir) {
  const std::string final_path = CheckpointPath(dir, lsn);
  const std::string tmp_path = final_path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot create checkpoint file: " + tmp_path);
  }

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU32(kVersion, &header);
  PutU64(lsn, &header);
  PutU64(collection.records().max_record_id(), &header);
  PutU64(collection.records().num_records(), &header);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  BlockWriter docs(&out);
  Status doc_status = Status::OK();
  collection.records().ForEach(
      [&](RecordId rid, const bson::Document& doc) {
        if (!doc_status.ok()) return;
        std::string entry;
        const std::string bytes = bson::EncodeBson(doc);
        PutU64(rid, &entry);
        PutU32(static_cast<uint32_t>(bytes.size()), &entry);
        entry += bytes;
        doc_status = docs.Add(entry);
      });
  if (doc_status.ok()) doc_status = docs.Finish();
  if (!doc_status.ok()) return doc_status;

  std::string index_count;
  PutU32(static_cast<uint32_t>(indexes.size()), &index_count);
  out.write(index_count.data(),
            static_cast<std::streamsize>(index_count.size()));
  for (const IndexDump& dump : indexes) {
    std::string index_header;
    PutU32(static_cast<uint32_t>(dump.name.size()), &index_header);
    index_header += dump.name;
    index_header.push_back(dump.multikey ? 1 : 0);
    PutU64(dump.btree->num_entries(), &index_header);
    out.write(index_header.data(),
              static_cast<std::streamsize>(index_header.size()));
    BlockWriter entries(&out);
    for (BTree::Cursor cur = dump.btree->First(); cur.Valid(); cur.Next()) {
      std::string entry;
      PutU32(static_cast<uint32_t>(cur.key().size()), &entry);
      entry += cur.key();
      PutU64(cur.rid(), &entry);
      if (Status s = entries.Add(entry); !s.ok()) return s;
    }
    if (Status s = entries.Finish(); !s.ok()) return s;
  }

  out.flush();
  if (!out.good()) {
    return Status::Internal("checkpoint write failed: " + tmp_path);
  }
  out.close();

  // Only a complete image is renamed into place — the atomicity boundary.
  if (Status s = RenameFile(tmp_path, final_path); !s.ok()) return s;
  STIX_METRIC_COUNTER(written, "checkpoint.written");
  written.Increment();
  return Status::OK();
}

Status ScanCheckpointDocuments(const std::string& path,
                               const CheckpointDocFn& fn) {
  std::ifstream in;
  const Result<CheckpointHeader> header = OpenCheckpoint(path, &in);
  if (!header.ok()) return header.status();
  return WalkDocuments(&in, header->num_docs, fn);
}

Result<CheckpointImage> LoadCheckpoint(const std::string& path) {
  std::ifstream in;
  const Result<CheckpointHeader> header = OpenCheckpoint(path, &in);
  if (!header.ok()) return header.status();
  CheckpointImage image;
  image.lsn = header->lsn;
  image.max_record_id = header->max_record_id;
  if (Status s = WalkDocuments(
          &in, header->num_docs,
          [&](RecordId rid, std::string_view bson_bytes) {
            Result<bson::Document> doc = bson::DecodeBson(bson_bytes);
            if (!doc.ok()) return doc.status();
            return image.collection.records().RestoreAt(rid,
                                                        std::move(*doc));
          });
      !s.ok()) {
    return s;
  }
  image.collection.records().PadToRecordId(image.max_record_id);

  uint32_t num_indexes;
  if (!GetU32(&in, &num_indexes)) {
    return Status::Corruption("checkpoint: truncated index count");
  }
  for (uint32_t i = 0; i < num_indexes; ++i) {
    CheckpointIndexImage index;
    uint32_t name_len;
    if (!GetU32(&in, &name_len) || name_len > 4096) {
      return Status::Corruption("checkpoint: truncated index header");
    }
    index.name.resize(name_len);
    char multikey;
    uint64_t num_entries;
    if (!in.read(index.name.data(), name_len) || !in.read(&multikey, 1) ||
        !GetU64(&in, &num_entries)) {
      return Status::Corruption("checkpoint: truncated index header");
    }
    index.multikey = multikey != 0;

    Result<std::string> entry_stream = ReadBlocks(&in);
    if (!entry_stream.ok()) return entry_stream.status();
    size_t pos = 0;
    while (pos < entry_stream->size()) {
      if (pos + 4 > entry_stream->size()) {
        return Status::Corruption("checkpoint: truncated index entry");
      }
      const uint32_t key_len = GetU32Mem(entry_stream->data() + pos);
      pos += 4;
      if (pos + key_len + 8 > entry_stream->size()) {
        return Status::Corruption("checkpoint: truncated index entry");
      }
      std::string key(entry_stream->data() + pos, key_len);
      pos += key_len;
      const uint64_t rid = GetU64Mem(entry_stream->data() + pos);
      pos += 8;
      index.entries.emplace_back(std::move(key), rid);
    }
    if (index.entries.size() != num_entries) {
      return Status::Corruption("checkpoint: index entry count mismatch");
    }
    image.indexes.push_back(std::move(index));
  }
  return image;
}

std::vector<CheckpointRef> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointRef> out;
  for (const std::string& path : ListDir(dir)) {
    uint64_t lsn = 0;
    if (ParseLsnFromName(path, &lsn).empty()) continue;
    out.push_back(CheckpointRef{lsn, path});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointRef& a, const CheckpointRef& b) {
              return a.lsn > b.lsn;
            });
  return out;
}

void RemoveStaleCheckpoints(const std::string& dir, uint64_t keep_lsn) {
  for (const std::string& path : ListDir(dir)) {
    if (path.size() > 4 && path.compare(path.size() - 4, 4, ".tmp") == 0) {
      (void)RemoveFile(path);
      continue;
    }
    uint64_t lsn = 0;
    if (ParseLsnFromName(path, &lsn).empty()) continue;
    if (lsn < keep_lsn) (void)RemoveFile(path);
  }
}

}  // namespace stix::storage
