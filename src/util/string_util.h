#ifndef JOCL_UTIL_STRING_UTIL_H_
#define JOCL_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jocl {

/// \brief Splits \p input on the single-character delimiter; empty pieces are
/// kept so that round-tripping with Join is lossless.
std::vector<std::string> Split(std::string_view input, char delimiter);

/// \brief Splits \p input on runs of ASCII whitespace; empty pieces dropped.
std::vector<std::string> SplitWhitespace(std::string_view input);

/// \brief Joins \p pieces with \p separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// \brief Returns \p input with leading/trailing ASCII whitespace removed.
std::string Trim(std::string_view input);

/// \brief ASCII lower-cases \p input.
std::string ToLower(std::string_view input);

/// \brief Returns true if \p text starts with \p prefix.
bool StartsWith(std::string_view text, std::string_view prefix);

/// \brief Returns true if \p text ends with \p suffix.
bool EndsWith(std::string_view text, std::string_view suffix);

/// \brief Replaces every occurrence of \p from with \p to.
std::string ReplaceAll(std::string_view input, std::string_view from,
                       std::string_view to);

/// \brief Parses the whole of \p cell as a base-10 int64 (an optional
/// leading '-', then digits; no whitespace, no '+', nothing after the
/// digits). Returns false on an empty, non-numeric, partially numeric or
/// out-of-range cell and leaves \p out unchanged; never throws.
bool ParseInt64(std::string_view cell, int64_t* out);

/// \brief Parses a command-line count: the whole of \p text as a
/// non-negative base-10 integer no greater than \p max. On failure names
/// the malformed value on stderr ("invalid <flag> value: <text>"), leaves
/// \p out unchanged and returns false — the tools then print usage and
/// exit 2.
bool ParseCount(std::string_view flag, std::string_view text, size_t* out,
                size_t max = SIZE_MAX);

}  // namespace jocl

#endif  // JOCL_UTIL_STRING_UTIL_H_
