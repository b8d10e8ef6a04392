#include "serve/json.h"

#include <cstdio>

namespace jocl {

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  // Bytes that need no escape (everything from 0x20 up but the quote and
  // the backslash, UTF-8 included) are copied a run at a time.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out->append(buf);
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
  out->push_back('"');
}

std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  AppendJsonString(&out, text);
  return out;
}

bool LooksLikeJson(std::string_view text) {
  size_t i = 0;
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\n' || text[i] == '\t' ||
          text[i] == '\r')) {
    ++i;
  }
  if (i == text.size() || (text[i] != '{' && text[i] != '[')) return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0) {
        // Only whitespace may follow the closing bracket.
        for (size_t j = i + 1; j < text.size(); ++j) {
          if (text[j] != ' ' && text[j] != '\n' && text[j] != '\t' &&
              text[j] != '\r') {
            return false;
          }
        }
        return true;
      }
    }
  }
  return false;
}

}  // namespace jocl
