#ifndef JOCL_UTIL_RESULT_H_
#define JOCL_UTIL_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "util/status.h"

namespace jocl {

/// \brief Either a value of type T or a non-OK Status.
///
/// The database-library analogue of `arrow::Result`: fallible producers
/// return `Result<T>`; callers test `ok()` and then take the value. Accessing
/// the value of an errored result is a programming error (asserts in debug).
template <typename T>
class Result {
 public:
  /// Constructs a successful result holding \p value.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}

  /// Constructs a failed result from a non-OK status.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  /// Returns true iff a value is present.
  bool ok() const { return status_.ok(); }

  /// Returns the status (OK when a value is present).
  const Status& status() const { return status_; }

  /// Returns the contained value; requires `ok()`.
  const T& ValueOrDie() const {
    assert(ok() && "ValueOrDie() on errored Result");
    return *value_;
  }

  /// Returns the contained value; requires `ok()`.
  T& ValueOrDie() {
    assert(ok() && "ValueOrDie() on errored Result");
    return *value_;
  }

  /// Moves the contained value out; requires `ok()`.
  T MoveValueOrDie() {
    assert(ok() && "MoveValueOrDie() on errored Result");
    return std::move(*value_);
  }

  /// Returns the value if present, else \p fallback.
  T ValueOr(T fallback) const { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

#define JOCL_CONCAT_IMPL(a, b) a##b
/// Pastes after expanding both arguments (so `__LINE__` becomes a number).
#define JOCL_CONCAT(a, b) JOCL_CONCAT_IMPL(a, b)

/// \brief Assigns the value of a Result expression to `lhs`, or returns its
/// error status from the enclosing function. Usable more than once per
/// scope: the temporary is named after the line.
#define JOCL_ASSIGN_OR_RETURN(lhs, rexpr) \
  JOCL_ASSIGN_OR_RETURN_IMPL(JOCL_CONCAT(_result_, __LINE__), lhs, rexpr)

#define JOCL_ASSIGN_OR_RETURN_IMPL(result, lhs, rexpr) \
  auto result = (rexpr);                               \
  if (!result.ok()) {                                  \
    return result.status();                            \
  }                                                    \
  lhs = result.MoveValueOrDie()

}  // namespace jocl

#endif  // JOCL_UTIL_RESULT_H_
