#ifndef JOCL_SERVE_SNAPSHOT_IO_H_
#define JOCL_SERVE_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/canon_store.h"
#include "util/result.h"

namespace jocl {

/// \brief The versioned, checksummed binary snapshot format of a
/// CanonStore (full field-by-field layout in docs/serving.md).
///
/// ```
/// offset  bytes  field
///      0      8  magic "JOCLSNAP"
///      8      4  format version (little-endian u32; currently 2)
///     12      4  reserved (0)
///     16      8  payload size in bytes (u64)
///     24      8  FNV-1a 64 checksum of the payload bytes (u64)
///     32      -  payload: the store's arrays in fixed order, each as a
///                u64 element count followed by little-endian elements
/// ```
///
/// Version 2 appends the shard fields of PR 8 to version 1's layout:
/// `surface_global` / `cluster_global` at the end of each section and
/// the `shard_index` / `shard_count` u32 scalars after `generation`.
///
/// Serialization is deterministic and loss-free: `Serialize(Deserialize(
/// Serialize(s)))` produces the same bytes (asserted in
/// tests/serve_test.cc). Loading validates magic, version, size and
/// checksum before touching the payload, and runs `ValidateCanonStore`
/// afterwards — a truncated, bit-flipped or future-version file yields a
/// descriptive error `Status`, never undefined behavior.
///
/// A full snapshot is also the recovery unit: a restarted shard loads its
/// latest snapshot and checks its `generation` against the router's before
/// rejoining (docs/serving.md).
inline constexpr char kSnapshotMagic[8] = {'J', 'O', 'C', 'L',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr size_t kSnapshotHeaderBytes = 32;

/// FNV-1a 64-bit hash (the snapshot checksum).
uint64_t Fnv1a64(const void* data, size_t size);

/// Serializes the store to snapshot bytes (header + payload).
std::string SerializeSnapshot(const CanonStore& store);

/// Parses snapshot bytes back into a store.
Result<CanonStore> DeserializeSnapshot(std::string_view bytes);

/// Writes a snapshot file atomically enough for our purposes (single
/// write + flush); \p bytes_written, when non-null, receives the file
/// size.
Status SaveSnapshot(const CanonStore& store, const std::string& path,
                    size_t* bytes_written = nullptr);

/// Reads and validates a snapshot file.
Result<CanonStore> LoadSnapshot(const std::string& path);

}  // namespace jocl

#endif  // JOCL_SERVE_SNAPSHOT_IO_H_
