#include "serve/snapshot_io.h"

#include <cstring>
#include <fstream>
#include <vector>

namespace jocl {
namespace {

// ---- little-endian writers --------------------------------------------------

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutVecData(std::string* out, const std::vector<char>& v) {
  out->append(v.data(), v.size());
}

void PutVecData(std::string* out, const std::vector<uint32_t>& v) {
  for (uint32_t x : v) PutU32(out, x);
}

void PutVecData(std::string* out, const std::vector<uint64_t>& v) {
  for (uint64_t x : v) PutU64(out, x);
}

void PutVecData(std::string* out, const std::vector<int64_t>& v) {
  for (int64_t x : v) PutU64(out, static_cast<uint64_t>(x));
}

/// Appends the snapshot payload to \p out: the store's arrays in fixed
/// order, each as a u64 element count followed by its elements, then the
/// scalar tail. The order is the format (bump kSnapshotVersion when
/// touching it).
void AppendPayload(const CanonStore& store, std::string* out) {
  auto put = [out](const auto& v) {
    PutU64(out, v.size());
    PutVecData(out, v);
  };
  put(store.text_pool);
  put(store.text_offset);
  for (const CanonSection* s : {&store.np, &store.rp}) {
    put(s->surface_text);
    put(s->surface_order);
    put(s->surface_mentions);
    put(s->surface_cluster_offset);
    put(s->surface_clusters);
    put(s->cluster_member_offset);
    put(s->cluster_members);
    put(s->cluster_link);
    put(s->cluster_link_name);
    put(s->cluster_link_votes);
    put(s->surface_global);
    put(s->cluster_global);
  }
  PutU64(out, store.triple_count);
  PutU64(out, store.generation);
  PutU32(out, store.shard_index);
  PutU32(out, store.shard_count);
}

std::string MakeHeader(std::string_view payload) {
  std::string out;
  out.reserve(kSnapshotHeaderBytes);
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&out, kSnapshotVersion);
  PutU32(&out, 0);  // reserved
  PutU64(&out, payload.size());
  PutU64(&out, Fnv1a64(payload.data(), payload.size()));
  return out;
}

// ---- bounds-checked reader --------------------------------------------------

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  Status ReadU32(uint32_t* out) {
    if (remaining() < 4) return Truncated();
    *out = 0;
    for (int i = 0; i < 4; ++i) {
      *out |= static_cast<uint32_t>(
                  static_cast<uint8_t>(bytes_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    if (remaining() < 8) return Truncated();
    *out = 0;
    for (int i = 0; i < 8; ++i) {
      *out |= static_cast<uint64_t>(
                  static_cast<uint8_t>(bytes_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 8;
    return Status::OK();
  }

  Status ReadVec(std::vector<char>* out) {
    uint64_t count = 0;
    JOCL_RETURN_NOT_OK(ReadCount(&count, 1));
    out->resize(count);
    if (count > 0) std::memcpy(out->data(), bytes_.data() + pos_, count);
    pos_ += count;
    return Status::OK();
  }

  Status ReadVec(std::vector<uint32_t>* out) {
    uint64_t count = 0;
    JOCL_RETURN_NOT_OK(ReadCount(&count, 4));
    out->resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      JOCL_RETURN_NOT_OK(ReadU32(&(*out)[i]));
    }
    return Status::OK();
  }

  Status ReadVec(std::vector<uint64_t>* out) {
    uint64_t count = 0;
    JOCL_RETURN_NOT_OK(ReadCount(&count, 8));
    out->resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      JOCL_RETURN_NOT_OK(ReadU64(&(*out)[i]));
    }
    return Status::OK();
  }

  Status ReadVec(std::vector<int64_t>* out) {
    uint64_t count = 0;
    JOCL_RETURN_NOT_OK(ReadCount(&count, 8));
    out->resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t raw = 0;
      JOCL_RETURN_NOT_OK(ReadU64(&raw));
      (*out)[i] = static_cast<int64_t>(raw);
    }
    return Status::OK();
  }

  Status ReadSection(CanonSection* s) {
    JOCL_RETURN_NOT_OK(ReadVec(&s->surface_text));
    JOCL_RETURN_NOT_OK(ReadVec(&s->surface_order));
    JOCL_RETURN_NOT_OK(ReadVec(&s->surface_mentions));
    JOCL_RETURN_NOT_OK(ReadVec(&s->surface_cluster_offset));
    JOCL_RETURN_NOT_OK(ReadVec(&s->surface_clusters));
    JOCL_RETURN_NOT_OK(ReadVec(&s->cluster_member_offset));
    JOCL_RETURN_NOT_OK(ReadVec(&s->cluster_members));
    JOCL_RETURN_NOT_OK(ReadVec(&s->cluster_link));
    JOCL_RETURN_NOT_OK(ReadVec(&s->cluster_link_name));
    JOCL_RETURN_NOT_OK(ReadVec(&s->cluster_link_votes));
    JOCL_RETURN_NOT_OK(ReadVec(&s->surface_global));
    JOCL_RETURN_NOT_OK(ReadVec(&s->cluster_global));
    return Status::OK();
  }

 private:
  static Status Truncated() {
    return Status::IOError("truncated snapshot: payload ends mid-field");
  }

  Status ReadCount(uint64_t* count, size_t elem_size) {
    JOCL_RETURN_NOT_OK(ReadU64(count));
    if (*count > remaining() / elem_size) return Truncated();
    return Status::OK();
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// A checked and checksummed snapshot payload back into a store.
Result<CanonStore> DeserializePayload(std::string_view payload) {
  CanonStore store;
  ByteReader reader(payload);
  JOCL_RETURN_NOT_OK(reader.ReadVec(&store.text_pool));
  JOCL_RETURN_NOT_OK(reader.ReadVec(&store.text_offset));
  JOCL_RETURN_NOT_OK(reader.ReadSection(&store.np));
  JOCL_RETURN_NOT_OK(reader.ReadSection(&store.rp));
  JOCL_RETURN_NOT_OK(reader.ReadU64(&store.triple_count));
  JOCL_RETURN_NOT_OK(reader.ReadU64(&store.generation));
  JOCL_RETURN_NOT_OK(reader.ReadU32(&store.shard_index));
  JOCL_RETURN_NOT_OK(reader.ReadU32(&store.shard_count));
  if (reader.remaining() != 0) {
    return Status::IOError("snapshot carries " +
                           std::to_string(reader.remaining()) +
                           " trailing bytes after the last field");
  }
  JOCL_RETURN_NOT_OK(ValidateCanonStore(store));
  return store;
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string SerializeSnapshot(const CanonStore& store) {
  // The payload is written in place behind a header-sized gap, which is
  // filled once the payload's size and checksum are known.
  std::string out(kSnapshotHeaderBytes, '\0');
  AppendPayload(store, &out);
  out.replace(0, kSnapshotHeaderBytes,
              MakeHeader(std::string_view(out).substr(kSnapshotHeaderBytes)));
  return out;
}

Result<CanonStore> DeserializeSnapshot(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    return Status::IOError("truncated snapshot: " +
                           std::to_string(bytes.size()) +
                           " bytes is smaller than the 32-byte header");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return Status::InvalidArgument(
        "bad snapshot magic: not a JOCL snapshot file");
  }
  ByteReader header(bytes.substr(sizeof(kSnapshotMagic)));
  uint32_t version = 0;
  uint32_t reserved = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  JOCL_RETURN_NOT_OK(header.ReadU32(&version));
  JOCL_RETURN_NOT_OK(header.ReadU32(&reserved));
  JOCL_RETURN_NOT_OK(header.ReadU64(&payload_size));
  JOCL_RETURN_NOT_OK(header.ReadU64(&checksum));
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  std::string_view payload = bytes.substr(kSnapshotHeaderBytes);
  if (payload.size() != payload_size) {
    return Status::IOError(
        "truncated snapshot: header promises " +
        std::to_string(payload_size) + " payload bytes, file carries " +
        std::to_string(payload.size()));
  }
  const uint64_t actual = Fnv1a64(payload.data(), payload.size());
  if (actual != checksum) {
    return Status::IOError("snapshot checksum mismatch: payload corrupted");
  }
  return DeserializePayload(payload);
}

Status SaveSnapshot(const CanonStore& store, const std::string& path,
                    size_t* bytes_written) {
  const std::string bytes = SerializeSnapshot(store);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open snapshot for writing: " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    return Status::IOError("snapshot write failed: " + path);
  }
  if (bytes_written != nullptr) *bytes_written = bytes.size();
  return Status::OK();
}

Result<CanonStore> LoadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open snapshot for reading: " + path);
  }
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IOError("snapshot read failed: " + path);
  }
  return DeserializeSnapshot(bytes);
}

}  // namespace jocl
