#include "core/weights_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "core/feature_config.h"
#include "util/string_util.h"

namespace jocl {
namespace {

/// The header's magic first cell. The remaining cells are the
/// WeightLayout names in order — the load-time proof that the file was
/// written by this feature layout.
constexpr char kHeaderMagic[] = "# jocl-weights";

}  // namespace

Status SaveWeights(const std::vector<double>& weights,
                   const std::string& path) {
  if (weights.size() != WeightLayout::kCount) {
    return Status::InvalidArgument(
        "weight vector must have WeightLayout::kCount entries");
  }
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out << kHeaderMagic;
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    out << '\t' << WeightLayout::Name(k);
  }
  out << '\n';
  // Shortest-round-trip std::to_chars, not stream insertion: stream
  // formatting honors the global locale (a comma decimal point under
  // e.g. de_DE corrupts the TSV), to_chars is locale-independent by
  // specification, so saved weight files are stable across environments.
  char buffer[64];
  for (size_t k = 0; k < weights.size(); ++k) {
    const auto [ptr, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), weights[k]);
    if (ec != std::errc()) {
      return Status::Internal("cannot format weight " +
                              WeightLayout::Name(k));
    }
    out << WeightLayout::Name(k) << '\t';
    out.write(buffer, ptr - buffer);
    out << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<double>> LoadWeights(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::unordered_map<std::string, size_t> index;
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    index.emplace(WeightLayout::Name(k), k);
  }
  std::vector<double> weights(WeightLayout::kCount, 1.0);
  std::vector<uint8_t> seen(WeightLayout::kCount, 0);
  bool has_header = false;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only the layout header is a recognized comment; validate it cell
      // by cell so a reordered or extended feature set names its first
      // point of divergence instead of misassigning silently.
      std::vector<std::string> cells = Split(line, '\t');
      if (cells.empty() || cells[0] != kHeaderMagic) {
        return Status::IOError("unrecognized comment at line " +
                               std::to_string(line_number) +
                               " (expected a '" + kHeaderMagic +
                               "' header)");
      }
      if (line_number != 1) {
        return Status::IOError("weights header must be the first line");
      }
      if (cells.size() != WeightLayout::kCount + 1) {
        return Status::IOError(
            "weights header names " + std::to_string(cells.size() - 1) +
            " feature columns, this build has " +
            std::to_string(WeightLayout::kCount) +
            " — the file was written by a different feature set");
      }
      for (size_t k = 0; k < WeightLayout::kCount; ++k) {
        if (cells[k + 1] != WeightLayout::Name(k)) {
          return Status::IOError(
              "weights header column " + std::to_string(k) + " is '" +
              cells[k + 1] + "', this build expects '" +
              WeightLayout::Name(k) +
              "' — the file was written by a reordered feature set");
        }
      }
      has_header = true;
      continue;
    }
    std::vector<std::string> cells = Split(line, '\t');
    if (cells.size() != 2) {
      return Status::IOError("malformed weights line " +
                             std::to_string(line_number));
    }
    auto it = index.find(cells[0]);
    if (it == index.end()) {
      return Status::IOError("unknown weight name '" + cells[0] +
                             "' at line " + std::to_string(line_number));
    }
    // from_chars mirrors to_chars above: locale-independent, and it
    // must consume the whole cell (stod would accept "1.5garbage").
    double value = 0.0;
    const char* begin = cells[1].data();
    const char* end = begin + cells[1].size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) {
      return Status::IOError("non-numeric weight at line " +
                             std::to_string(line_number));
    }
    // from_chars also parses "nan" and "inf"; a non-finite weight would
    // poison every factor potential it touches.
    if (!std::isfinite(value)) {
      return Status::IOError("non-finite weight at line " +
                             std::to_string(line_number));
    }
    weights[it->second] = value;
    seen[it->second] = 1;
  }
  if (has_header) {
    // The header promises the full set; a hole means the file was
    // truncated or hand-edited. Headerless legacy files stay lenient
    // (missing entries keep the 1.0 uniform prior).
    for (size_t k = 0; k < WeightLayout::kCount; ++k) {
      if (!seen[k]) {
        return Status::IOError("weights file has a header but no value for '" +
                               WeightLayout::Name(k) + "'");
      }
    }
  }
  return weights;
}

std::string FormatWeightReport(const std::vector<double>& weights) {
  std::vector<size_t> order(weights.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double da = std::abs(weights[a] - 1.0);
    double db = std::abs(weights[b] - 1.0);
    if (da != db) return da > db;
    return a < b;
  });
  std::ostringstream out;
  out.precision(4);
  out << std::fixed;
  for (size_t k : order) {
    out << WeightLayout::Name(k) << " = " << weights[k] << '\n';
  }
  return out.str();
}

}  // namespace jocl
