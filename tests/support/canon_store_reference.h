#ifndef JOCL_TESTS_SUPPORT_CANON_STORE_REFERENCE_H_
#define JOCL_TESTS_SUPPORT_CANON_STORE_REFERENCE_H_

#include <cstdint>

#include "core/jocl.h"
#include "core/problem.h"
#include "kb/curated_kb.h"
#include "serve/canon_store.h"

namespace jocl {

/// \brief The string-keyed `BuildCanonStore`: every mention hashes its
/// surface text, and each cluster's link votes are tallied in an ordered
/// map. Slow, and straightforward to read. It is the oracle that
/// `BuildCanonStore` must match byte for byte
/// (`SerializeSnapshot` equality, tests/serve_test.cc). Test-support
/// code, not part of libjocl.
CanonStore BuildCanonStoreReference(const JoclProblem& problem,
                                    const JoclResult& result,
                                    const CuratedKb& ckb,
                                    uint64_t generation = 0);

}  // namespace jocl

#endif  // JOCL_TESTS_SUPPORT_CANON_STORE_REFERENCE_H_
