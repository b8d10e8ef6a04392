#include "support/query_reference.h"

namespace jocl {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out.push_back(' ');
    } else if (text[i] == '%' && i + 2 < text.size() &&
               HexValue(text[i + 1]) >= 0 && HexValue(text[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexValue(text[i + 1]) * 16 +
                                      HexValue(text[i + 2])));
      i += 2;
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

QueryParams ParseQuery(std::string_view query) {
  QueryParams out;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    std::string_view pair = query.substr(start, end - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out.params.emplace_back(UrlDecode(pair), "");
      } else {
        out.params.emplace_back(UrlDecode(pair.substr(0, eq)),
                                UrlDecode(pair.substr(eq + 1)));
      }
    }
    if (end == query.size()) break;
    start = end + 1;
  }
  return out;
}

}  // namespace jocl
