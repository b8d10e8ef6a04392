#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstddef>
#include <cstdio>

namespace jocl {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delimiter) {
      pieces.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::vector<std::string> SplitWhitespace(std::string_view input) {
  std::vector<std::string> pieces;
  size_t i = 0;
  while (i < input.size()) {
    while (i < input.size() &&
           std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < input.size() &&
           !std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    if (i > start) pieces.emplace_back(input.substr(start, i - start));
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += separator;
    out += pieces[i];
  }
  return out;
}

std::string Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return std::string(input.substr(begin, end - begin));
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string ReplaceAll(std::string_view input, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(input);
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t hit = input.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(input.substr(pos));
      return out;
    }
    out.append(input.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

bool ParseInt64(std::string_view cell, int64_t* out) {
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

bool ParseCount(std::string_view flag, std::string_view text, size_t* out,
                size_t max) {
  int64_t value = 0;
  if (!ParseInt64(text, &value) || value < 0 ||
      static_cast<uint64_t>(value) > max) {
    std::fprintf(stderr, "invalid %.*s value: %.*s\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace jocl
