#include "embedding/embedding_io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <vector>

#include "util/string_util.h"

namespace jocl {
namespace {

// Parses the whole of \p text (no '+', no trailing bytes); never throws.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Status SaveEmbeddingsText(const EmbeddingTable& table,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out << table.size() << ' ' << table.dim() << '\n';
  // EmbeddingTable has no iteration API by design (hot-path lookups only),
  // so serialization walks the words via the index snapshot.
  for (const auto& word : table.Words()) {
    const float* v = table.Vector(word);
    out << word;
    for (size_t d = 0; d < table.dim(); ++d) out << ' ' << v[d];
    out << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EmbeddingTable> LoadEmbeddingsText(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  const auto file_bytes = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::string line;
  std::getline(in, line);
  const std::vector<std::string> header = SplitWhitespace(line);
  size_t count = 0;
  size_t dim = 0;
  if (header.size() != 2 || !ParseWhole(header[0], &count) ||
      !ParseWhole(header[1], &dim) || dim == 0) {
    return Status::IOError("malformed embedding header in " + path);
  }
  // Each value takes at least two bytes (separator and digit), so a
  // larger dim is a damaged header, not a size to allocate.
  if (count > 0 && dim > file_bytes / 2) {
    return Status::IOError("embedding header dim " + std::to_string(dim) +
                           " exceeds what " + path + " can hold");
  }
  EmbeddingTable table(dim);
  std::vector<float> vector;
  size_t row = 0;
  const std::string declared = "; the header declares " +
                               std::to_string(count) + " rows of dim " +
                               std::to_string(dim);
  auto row_error = [&](const std::string& what) {
    return Status::IOError("embedding row " + std::to_string(row) + " of " +
                           path + ": " + what);
  };
  while (std::getline(in, line)) {
    const std::vector<std::string> fields = SplitWhitespace(line);
    if (fields.empty()) continue;
    ++row;
    if (row > count || fields.size() != dim + 1) {
      return row_error(std::to_string(fields.size() - 1) + " values" +
                       declared);
    }
    vector.resize(dim);  // dim + 1 fields on the line bound the allocation
    for (size_t d = 0; d < dim; ++d) {
      if (!ParseWhole(fields[d + 1], &vector[d]) ||
          !std::isfinite(vector[d])) {
        return row_error("value " + std::to_string(d + 1) + " of '" +
                         fields[0] + "' is not a finite number");
      }
    }
    table.Set(fields[0], vector);
  }
  if (row < count) return row_error("the file ends" + declared);
  return table;
}

}  // namespace jocl
