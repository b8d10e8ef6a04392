#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <locale>
#include <random>
#include <sstream>
#include <string>

#include "core/feature_config.h"
#include "core/weights_io.h"
#include "seeded_mutants.h"

namespace jocl {
namespace {

// A numpunct facet with a comma decimal point — the de_DE-style locale
// that used to corrupt stream-formatted weight TSVs, without depending
// on any named locale being installed.
class CommaDecimal : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(WeightsIoTest, RoundTrip) {
  std::vector<double> weights(WeightLayout::kCount, 1.0);
  weights[WeightLayout::kAlpha1] = 0.25;
  weights[WeightLayout::kBeta5] = -1.5;
  std::string path = ::testing::TempDir() + "/jocl_weights.tsv";
  ASSERT_TRUE(SaveWeights(weights, path).ok());
  auto loaded = LoadWeights(path);
  ASSERT_TRUE(loaded.ok());
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    EXPECT_DOUBLE_EQ(loaded.ValueOrDie()[k], weights[k]) << k;
  }
  std::remove(path.c_str());
}

TEST(WeightsIoTest, RoundTripUnderCommaDecimalLocale) {
  // Save/load must be locale-independent (std::to_chars/from_chars):
  // under a comma-decimal global locale, stream insertion would write
  // "0,25" and strtod-based parsing would truncate it at the comma.
  const std::locale previous = std::locale::global(
      std::locale(std::locale::classic(), new CommaDecimal));
  std::vector<double> weights(WeightLayout::kCount, 1.0);
  weights[WeightLayout::kAlpha1] = 0.25;
  weights[WeightLayout::kBeta5] = -1234.5678;
  weights[WeightLayout::kAlpha2] = 1e-17;
  std::string path = ::testing::TempDir() + "/jocl_locale_weights.tsv";
  const Status save_status = SaveWeights(weights, path);
  auto loaded = LoadWeights(path);
  std::locale::global(previous);
  ASSERT_TRUE(save_status.ok()) << save_status;
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    EXPECT_DOUBLE_EQ(loaded.ValueOrDie()[k], weights[k]) << k;
  }
  std::remove(path.c_str());
}

TEST(WeightsIoTest, LoadRejectsTrailingGarbageAfterNumber) {
  std::string path = ::testing::TempDir() + "/jocl_trailing_weights.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("alpha1.idf\t1.5garbage\n", f);
  fclose(f);
  EXPECT_FALSE(LoadWeights(path).ok());
  std::remove(path.c_str());
}

TEST(WeightsIoTest, SaveRejectsWrongSize) {
  EXPECT_FALSE(SaveWeights({1.0, 2.0}, "/tmp/never_written.tsv").ok());
}

TEST(WeightsIoTest, MissingEntriesDefaultToUniform) {
  std::string path = ::testing::TempDir() + "/jocl_partial_weights.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("alpha1.idf\t3.5\n", f);
  fclose(f);
  auto loaded = LoadWeights(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded.ValueOrDie()[WeightLayout::kAlpha1], 3.5);
  EXPECT_DOUBLE_EQ(loaded.ValueOrDie()[WeightLayout::kBeta4], 1.0);
  std::remove(path.c_str());
}

TEST(WeightsIoTest, RejectsUnknownNamesAndGarbage) {
  std::string path = ::testing::TempDir() + "/jocl_bad_weights.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("no.such.weight\t1.0\n", f);
  fclose(f);
  EXPECT_FALSE(LoadWeights(path).ok());
  f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("alpha1.idf\tnot_a_number\n", f);
  fclose(f);
  EXPECT_FALSE(LoadWeights(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadWeights("/nonexistent/weights.tsv").ok());
}

TEST(WeightsIoTest, RejectsNonFiniteWeights) {
  // from_chars parses "nan" and "inf"; a saved file with one value edited
  // to either must fail on the line that carries it.
  const std::vector<double> weights(WeightLayout::kCount, 1.0);
  const std::string path = ::testing::TempDir() + "/jocl_nan_weights.tsv";
  ASSERT_TRUE(SaveWeights(weights, path).ok());
  const std::string saved = ReadFile(path);
  const std::string row = WeightLayout::Name(WeightLayout::kBeta5) + "\t1\n";
  const size_t at = saved.find(row);
  ASSERT_NE(at, std::string::npos) << saved;
  const size_t line = 1 + std::count(saved.begin(), saved.begin() + at, '\n');
  for (const char* value : {"nan", "-nan", "inf", "-inf", "infinity"}) {
    std::string edited = saved;
    edited.replace(at + row.size() - 2, 1, value);
    WriteFile(path, edited);
    auto loaded = LoadWeights(path);
    ASSERT_FALSE(loaded.ok()) << value;
    EXPECT_NE(loaded.status().message().find("line " + std::to_string(line)),
              std::string::npos)
        << loaded.status();
  }
  std::remove(path.c_str());
}

TEST(WeightsIoTest, SeededMutantsLoadOrFailWithADescriptiveStatus) {
  std::vector<double> weights(WeightLayout::kCount);
  for (size_t k = 0; k < weights.size(); ++k) {
    weights[k] = 0.5 + 0.125 * static_cast<double>(k);
  }
  const std::string path = ::testing::TempDir() + "/jocl_mutant_weights.tsv";
  ASSERT_TRUE(SaveWeights(weights, path).ok());
  const std::string original = ReadFile(path);
  ASSERT_FALSE(original.empty());

  std::mt19937_64 rng(20210);
  constexpr size_t kPerKind = 200;
  size_t loaded = 0;
  size_t rejected = 0;
  for (size_t kind = 0; kind < kMutationKinds; ++kind) {
    for (size_t m = 0; m < kPerKind; ++m) {
      WriteFile(path, Mutate(original, kind, &rng));
      SCOPED_TRACE("mutation kind " + std::to_string(kind) + " #" +
                   std::to_string(m));
      auto result = LoadWeights(path);
      if (!result.ok()) {
        ++rejected;
        // The message names the line or the header at fault.
        const std::string& message = result.status().message();
        EXPECT_TRUE(message.find("line") != std::string::npos ||
                    message.find("header") != std::string::npos)
            << message;
        continue;
      }
      ++loaded;
      const std::vector<double>& values = result.ValueOrDie();
      ASSERT_EQ(values.size(), WeightLayout::kCount);
      for (double value : values) EXPECT_TRUE(std::isfinite(value));
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
  std::remove(path.c_str());
}

TEST(WeightsIoTest, SavedFileCarriesValidatedHeader) {
  std::vector<double> weights(WeightLayout::kCount, 1.0);
  weights[WeightLayout::kAlpha3] = 2.75;
  std::string path = ::testing::TempDir() + "/jocl_header_weights.tsv";
  ASSERT_TRUE(SaveWeights(weights, path).ok());
  // The first line names every feature column in layout order.
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header.rfind("# jocl-weights\t", 0), 0u);
  EXPECT_NE(header.find("\talpha1.idf\t"), std::string::npos);
  in.close();
  auto loaded = LoadWeights(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_DOUBLE_EQ(loaded.ValueOrDie()[WeightLayout::kAlpha3], 2.75);
  std::remove(path.c_str());
}

TEST(WeightsIoTest, RejectsReorderedHeader) {
  // A header whose first two columns are swapped simulates a file from a
  // build with a different WeightLayout: it must fail with a message
  // naming the divergence, not silently misassign by name.
  std::string path = ::testing::TempDir() + "/jocl_reordered_weights.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::string header = "# jocl-weights";
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    size_t swapped = k == 0 ? 1 : (k == 1 ? 0 : k);
    header += "\t" + WeightLayout::Name(swapped);
  }
  fputs((header + "\n").c_str(), f);
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    fputs((WeightLayout::Name(k) + "\t1.0\n").c_str(), f);
  }
  fclose(f);
  auto loaded = LoadWeights(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("reordered"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WeightsIoTest, RejectsExtendedHeader) {
  // One extra column = the file came from an extended feature set.
  std::string path = ::testing::TempDir() + "/jocl_extended_weights.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::string header = "# jocl-weights";
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    header += "\t" + WeightLayout::Name(k);
  }
  header += "\tbeta8.future";
  fputs((header + "\n").c_str(), f);
  fclose(f);
  auto loaded = LoadWeights(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("different feature set"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(WeightsIoTest, HeaderedFileRejectsMissingEntries) {
  // With a header the file promises the full set; a truncated body is an
  // error (headerless legacy files stay lenient — see
  // MissingEntriesDefaultToUniform above).
  std::string path = ::testing::TempDir() + "/jocl_truncated_weights.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::string header = "# jocl-weights";
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    header += "\t" + WeightLayout::Name(k);
  }
  fputs((header + "\n").c_str(), f);
  fputs("alpha1.idf\t3.5\n", f);
  fclose(f);
  auto loaded = LoadWeights(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("no value for"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(WeightsIoTest, RejectsUnrecognizedComment) {
  std::string path = ::testing::TempDir() + "/jocl_comment_weights.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("# some other tool's banner\nalpha1.idf\t1.0\n", f);
  fclose(f);
  EXPECT_FALSE(LoadWeights(path).ok());
  std::remove(path.c_str());
}

TEST(WeightsIoTest, ReportSortsByAdjustment) {
  std::vector<double> weights(WeightLayout::kCount, 1.0);
  weights[WeightLayout::kBeta4] = 5.0;   // most adjusted
  weights[WeightLayout::kAlpha2] = 0.5;  // second
  std::string report = FormatWeightReport(weights);
  size_t beta4_pos = report.find("beta4.fact");
  size_t alpha2_pos = report.find("alpha2.idf");
  ASSERT_NE(beta4_pos, std::string::npos);
  ASSERT_NE(alpha2_pos, std::string::npos);
  EXPECT_LT(beta4_pos, alpha2_pos);
}

}  // namespace
}  // namespace jocl
