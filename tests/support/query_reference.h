#ifndef JOCL_TESTS_SUPPORT_QUERY_REFERENCE_H_
#define JOCL_TESTS_SUPPORT_QUERY_REFERENCE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jocl {

/// \brief Percent-decodes a query-string component ('+' becomes space;
/// malformed escapes pass through verbatim), into a fresh string.
std::string UrlDecode(std::string_view text);

/// \brief Every decoded `key=value` pair of a query string, in order.
struct QueryParams {
  std::vector<std::pair<std::string, std::string>> params;

  /// The first value of \p key, or null.
  const std::string* Find(std::string_view key) const {
    for (const auto& [k, v] : params) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// \brief Splits \p query on '&' and decodes each key and value whole.
/// The allocating oracle that `ParseCanonTarget` (serve/http_util.h)
/// must agree with (tests/serve_test.cc). Test-support code, not part
/// of libjocl.
QueryParams ParseQuery(std::string_view query);

}  // namespace jocl

#endif  // JOCL_TESTS_SUPPORT_QUERY_REFERENCE_H_
