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
constexpr uint32_t kVersion = 2;
constexpr size_t kBlockTarget = 256 * 1024;
constexpr uint32_t kMaxBlockLen = 64u * 1024 * 1024;
constexpr char kSuffix[] = ".ckpt";

/// Little-endian fixed-width integers.
template <typename T>
void PutLe(T v, std::string* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}
void PutU32(uint32_t v, std::string* out) { PutLe(v, out); }
void PutU64(uint64_t v, std::string* out) { PutLe(v, out); }

template <typename T>
T GetLe(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}
uint32_t GetU32Mem(const char* p) { return GetLe<uint32_t>(p); }
uint64_t GetU64Mem(const char* p) { return GetLe<uint64_t>(p); }

/// Reads `len` bytes from `in` onto the end of `*buf`; false on a short
/// read.
bool ReadInto(std::istream* in, size_t len, std::string* buf) {
  const size_t at = buf->size();
  buf->resize(at + len);
  return static_cast<bool>(in->read(buf->data() + at, len));
}

bool GetU32(std::istream* in, uint32_t* v) {
  std::string buf;
  if (!ReadInto(in, 4, &buf)) return false;
  *v = GetU32Mem(buf.data());
  return true;
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

/// Reads the u32 CRC32 that follows a header and checks it against the
/// header's bytes.
Status CheckHeaderCrc(std::istream* in, std::string_view header) {
  uint32_t crc;
  if (!GetU32(in, &crc)) {
    return Status::Corruption("checkpoint: truncated header checksum");
  }
  if (Crc32(header) != crc) {
    return Status::Corruption("checkpoint: header checksum mismatch");
  }
  return Status::OK();
}

/// Reads one block stream (until the raw_len == 0 terminator), handing each
/// decompressed block to `fn` as soon as it is checked, so a reader holds
/// one block at a time, never the whole section.
Status ForEachBlock(std::istream* in,
                    const std::function<Status(std::string_view)>& fn) {
  for (;;) {
    uint32_t raw_len;
    if (!GetU32(in, &raw_len)) {
      return Status::Corruption("checkpoint: truncated block header");
    }
    if (raw_len == 0) return Status::OK();
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
    if (Status s = fn(*block); !s.ok()) return s;
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
  std::string header;
  if (!ReadInto(in, sizeof(kMagic), &header) ||
      std::memcmp(header.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a STIX checkpoint: " + path);
  }
  if (!ReadInto(in, 4, &header) ||
      GetU32Mem(header.data() + sizeof(kMagic)) != kVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  if (!ReadInto(in, 24, &header)) {
    return Status::Corruption("checkpoint: truncated header");
  }
  if (Status s = CheckHeaderCrc(in, header); !s.ok()) return s;
  const char* fields = header.data() + sizeof(kMagic) + 4;
  CheckpointHeader out;
  out.lsn = GetU64Mem(fields);
  out.max_record_id = GetU64Mem(fields + 8);
  out.num_docs = GetU64Mem(fields + 16);
  return out;
}

/// Reads the document blocks at `in` and hands every (rid, BSON) entry to
/// `fn`, one block at a time; Corruption when an entry crosses a block
/// boundary (the writer never splits one) or the entries do not add up to
/// `num_docs`.
Status WalkDocuments(std::istream* in, uint64_t num_docs,
                     const CheckpointDocFn& fn) {
  uint64_t walked = 0;
  if (Status s = ForEachBlock(in, [&](std::string_view block) -> Status {
        while (!block.empty()) {
          if (block.size() < 12 ||
              GetU32Mem(block.data() + 8) > block.size() - 12) {
            return Status::Corruption(
                "checkpoint: document entry crosses a block boundary");
          }
          const uint32_t len = GetU32Mem(block.data() + 8);
          if (Status s = fn(GetU64Mem(block.data()), block.substr(12, len));
              !s.ok()) {
            return s;
          }
          block.remove_prefix(12 + len);
          ++walked;
        }
        return Status::OK();
      });
      !s.ok()) {
    return s;
  }
  if (walked != num_docs) {
    return Status::Corruption("checkpoint: document count mismatch");
  }
  return Status::OK();
}

/// Reads one index section (CRC-checked header, then its entry blocks).
Result<CheckpointIndexImage> ReadIndex(std::istream* in) {
  std::string header;
  if (!ReadInto(in, 4, &header)) {
    return Status::Corruption("checkpoint: truncated index header");
  }
  const uint32_t name_len = GetU32Mem(header.data());
  if (name_len > 4096 || !ReadInto(in, name_len + 1 + 8, &header)) {
    return Status::Corruption("checkpoint: truncated index header");
  }
  if (Status s = CheckHeaderCrc(in, header); !s.ok()) return s;
  CheckpointIndexImage index;
  index.name = header.substr(4, name_len);
  index.multikey = header[4 + name_len] != 0;
  const uint64_t num_entries = GetU64Mem(header.data() + 4 + name_len + 1);

  if (Status s = ForEachBlock(in, [&](std::string_view block) -> Status {
        while (!block.empty()) {
          if (block.size() < 4 ||
              size_t{GetU32Mem(block.data())} + 8 > block.size() - 4) {
            return Status::Corruption(
                "checkpoint: index entry crosses a block boundary");
          }
          const uint32_t key_len = GetU32Mem(block.data());
          index.entries.emplace_back(std::string(block.substr(4, key_len)),
                                     GetU64Mem(block.data() + 4 + key_len));
          block.remove_prefix(4 + key_len + 8);
        }
        return Status::OK();
      });
      !s.ok()) {
    return s;
  }
  if (index.entries.size() != num_entries) {
    return Status::Corruption("checkpoint: index entry count mismatch");
  }
  return index;
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
  PutU32(Crc32(header), &header);
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
  PutU32(Crc32(index_count), &index_count);
  out.write(index_count.data(),
            static_cast<std::streamsize>(index_count.size()));
  for (const IndexDump& dump : indexes) {
    std::string index_header;
    PutU32(static_cast<uint32_t>(dump.name.size()), &index_header);
    index_header += dump.name;
    index_header.push_back(dump.multikey ? 1 : 0);
    PutU64(dump.btree->num_entries(), &index_header);
    PutU32(Crc32(index_header), &index_header);
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

  std::string index_count;
  if (!ReadInto(&in, 4, &index_count)) {
    return Status::Corruption("checkpoint: truncated index count");
  }
  if (Status s = CheckHeaderCrc(&in, index_count); !s.ok()) return s;
  const uint32_t num_indexes = GetU32Mem(index_count.data());
  for (uint32_t i = 0; i < num_indexes; ++i) {
    Result<CheckpointIndexImage> index = ReadIndex(&in);
    if (!index.ok()) return index.status();
    image.indexes.push_back(std::move(*index));
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
