#ifndef JOCL_EMBEDDING_EMBEDDING_IO_H_
#define JOCL_EMBEDDING_EMBEDDING_IO_H_

#include <string>

#include "embedding/embedding_table.h"
#include "util/result.h"

namespace jocl {

/// \brief Saves an embedding table in the word2vec text format:
/// first line `<count> <dim>`, then one `word v1 v2 ... vdim` row per
/// word. Training embeddings is the expensive part of signal
/// construction; persisting them lets repeated experiments skip it.
Status SaveEmbeddingsText(const EmbeddingTable& table,
                          const std::string& path);

/// \brief Loads a table saved by SaveEmbeddingsText (or produced by any
/// word2vec-compatible tool), row by row. Fails with a Status naming the
/// header or row on an unreadable file, a malformed header, a dim the file
/// cannot hold, a row whose value count is not dim, a non-finite value,
/// or a row count other than the header's.
Result<EmbeddingTable> LoadEmbeddingsText(const std::string& path);

}  // namespace jocl

#endif  // JOCL_EMBEDDING_EMBEDDING_IO_H_
