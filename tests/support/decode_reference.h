#ifndef JOCL_TESTS_SUPPORT_DECODE_REFERENCE_H_
#define JOCL_TESTS_SUPPORT_DECODE_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/decode.h"
#include "core/jocl.h"
#include "core/problem.h"

namespace jocl {

/// \brief The hash-map `ClusterPairGraph`: edges deduplicated in an
/// `unordered_map`, merges ordered by a full (weight desc, a, b) sort,
/// cluster members kept as per-root vectors and every veto cross edge
/// looked up by key. Slow, and straightforward to read. It is the oracle
/// that `ClusterPairGraph` must match label for label
/// (tests/decode_test.cc). Test-support code, not part of libjocl.
std::vector<size_t> ClusterPairGraphReference(
    size_t n, const std::vector<PairEdge>& edges, double threshold);

/// \brief `DecodeJointResult` over `ClusterPairGraphReference` and a
/// string-keyed same-surface map. The oracle for `DecodeJointResult`.
void DecodeJointResultReference(const JoclProblem& problem,
                                const JoclBeliefs& beliefs,
                                const GraphBuilderOptions& builder,
                                JoclResult* result);

/// \brief The decode inputs of a finished result: splits its canonical
/// marginal list (subject/predicate/object pairs, then es/rp/eo per
/// triple) back into JoclBeliefs over \p problem, with each state the
/// first argmax of its marginal, as `FlatLbpEngine::Decode` takes it.
/// Either family is left empty when \p options ablates it.
JoclBeliefs BeliefsOfResult(const JoclProblem& problem,
                            const JoclResult& result,
                            const JoclOptions& options);

}  // namespace jocl

#endif  // JOCL_TESTS_SUPPORT_DECODE_REFERENCE_H_
