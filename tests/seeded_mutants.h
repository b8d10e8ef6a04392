// Seeded byte-level mutants of a serialized file, for tests that a parser
// rejects damaged input with a Status instead of throwing or reading out of
// bounds (run them under -DJOCL_SANITIZE=ON to check the latter), and the
// whole-file read/write the tests round-trip them through.
#ifndef JOCL_TESTS_SEEDED_MUTANTS_H_
#define JOCL_TESTS_SEEDED_MUTANTS_H_

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

namespace jocl {

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

inline void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The four mutation kinds: truncate, flip 1-4 bits, splice a range from
/// elsewhere over another, duplicate a range in place.
constexpr size_t kMutationKinds = 4;

/// Returns a mutant of the non-empty \p original of the given kind.
inline std::string Mutate(const std::string& original, size_t kind,
                          std::mt19937_64* rng) {
  auto pick = [rng](size_t bound) {
    return static_cast<size_t>((*rng)() % std::max<size_t>(bound, 1));
  };
  std::string mutant = original;
  switch (kind) {
    case 0:  // truncate
      mutant.resize(pick(mutant.size()));
      break;
    case 1: {  // flip 1-4 bits
      const size_t flips = 1 + pick(4);
      for (size_t f = 0; f < flips; ++f) {
        mutant[pick(mutant.size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    }
    case 2: {  // splice: overwrite a range with bytes from elsewhere
      const size_t len = 1 + pick(std::min<size_t>(16, mutant.size()));
      const size_t from = pick(mutant.size() - len + 1);
      const size_t to = pick(mutant.size() - len + 1);
      mutant.replace(to, len, original, from, len);
      break;
    }
    default: {  // duplicate a range in place
      const size_t len = 1 + pick(std::min<size_t>(16, mutant.size()));
      const size_t at = pick(mutant.size() - len + 1);
      mutant.insert(at, original, at, len);
      break;
    }
  }
  return mutant;
}

}  // namespace jocl

#endif  // JOCL_TESTS_SEEDED_MUTANTS_H_
