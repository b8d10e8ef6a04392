#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace jocl {
namespace {

// ---------- Status / Result -------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "invalid argument: bad input");
}

TEST(StatusTest, EveryCodeHasDistinctName) {
  std::set<std::string> names;
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kIOError,
        StatusCode::kInternal}) {
    names.insert(StatusCodeToString(code));
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveValueOut) {
  Result<std::string> r(std::string("payload"));
  std::string v = r.MoveValueOrDie();
  EXPECT_EQ(v, "payload");
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd: " + std::to_string(x));
  return x / 2;
}

// Two JOCL_ASSIGN_OR_RETURN uses in one scope must declare distinct
// temporaries.
Result<int> Quarter(int x) {
  JOCL_ASSIGN_OR_RETURN(int half, Halve(x));
  JOCL_ASSIGN_OR_RETURN(int quarter, Halve(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnTwiceInOneScope) {
  Result<int> ok = Quarter(12);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 3);
  Result<int> first_fails = Quarter(3);
  ASSERT_FALSE(first_fails.ok());
  EXPECT_EQ(first_fails.status(), Status::InvalidArgument("odd: 3"));
  Result<int> second_fails = Quarter(6);
  ASSERT_FALSE(second_fails.ok());
  EXPECT_EQ(second_fails.status(), Status::InvalidArgument("odd: 3"));
}

// ---------- Rng ------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformUint64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint64(10), 10u);
  }
  EXPECT_EQ(rng.UniformUint64(1), 0u);
  EXPECT_EQ(rng.UniformUint64(0), 0u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(99);
  double sum = 0.0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.03);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / kDraws;
  double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(RngTest, DiscreteFollowsWeights) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws), 0.6, 0.02);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(3);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = items;
  rng.Shuffle(&items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(RngTest, SplitStreamsDecorrelated) {
  Rng parent(42);
  Rng child_a = parent.Split(1);
  Rng child_b = parent.Split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child_a.NextUint64() == child_b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(ZipfSamplerTest, PmfSumsToOneAndDecreases) {
  ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  for (size_t r = 0; r < zipf.size(); ++r) {
    total += zipf.Pmf(r);
    if (r > 0) EXPECT_LE(zipf.Pmf(r), zipf.Pmf(r - 1) + 1e-12);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, SampleSkewsTowardLowRanks) {
  ZipfSampler zipf(50, 1.2);
  Rng rng(8);
  int low = 0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Sample(&rng) < 5) ++low;
  }
  // The top 5 of 50 ranks should dominate under s = 1.2.
  EXPECT_GT(low, kDraws / 3);
}

// ---------- string_util -------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  std::vector<std::string> pieces = {"x", "", "yz", "q"};
  EXPECT_EQ(Split(Join(pieces, "|"), '|'), pieces);
}

TEST(StringUtilTest, SplitWhitespaceDropsRuns) {
  EXPECT_EQ(SplitWhitespace("  foo \t bar\nbaz  "),
            (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("university of md", "uni"));
  EXPECT_FALSE(StartsWith("md", "university"));
  EXPECT_TRUE(EndsWith("founded by", "by"));
  EXPECT_FALSE(EndsWith("by", "founded by"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(StringUtilTest, ParseCountAcceptsOnlyWholeNonNegativeIntegers) {
  size_t out = 7;
  EXPECT_TRUE(ParseCount("--n", "0", &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(ParseCount("--n", "42", &out));
  EXPECT_EQ(out, 42u);
  EXPECT_TRUE(ParseCount("--port", "65535", &out, 65535));
  EXPECT_EQ(out, 65535u);
  // atoll would read "abc" as 0 and "-3" as SIZE_MAX; each is rejected
  // and leaves the output unchanged.
  for (const char* bad : {"", "abc", "-3", "1.5", "4x", " 4", "+4",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseCount("--n", bad, &out)) << bad;
    EXPECT_EQ(out, 65535u) << bad;
  }
  EXPECT_FALSE(ParseCount("--port", "65536", &out, 65535));
  EXPECT_EQ(out, 65535u);
}

}  // namespace
}  // namespace jocl
