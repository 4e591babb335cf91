#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>

#include "util/args.h"
#include "util/error.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace fs::util {
namespace {

// ---------- Fnv1a ----------

TEST(Fnv1a, MatchesTheReferenceVectors) {
  Fnv1a empty;
  EXPECT_EQ(empty.value(), 0xcbf29ce484222325ULL);
  EXPECT_EQ(empty.hex(), "cbf29ce484222325");
  Fnv1a a;
  a.text("a");
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(a.hex(), "af63dc4c8601ec8c");
  Fnv1a foobar;
  foobar.text("foobar");
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, WordsHashAsTheirLittleEndianBytes) {
  Fnv1a word;
  word.u64(0x0807060504030201ULL);
  Fnv1a bytes;
  bytes.text(std::string_view("\x01\x02\x03\x04\x05\x06\x07\x08", 8));
  EXPECT_EQ(word.value(), bytes.value());
  Fnv1a negative;
  negative.i64(-1);
  Fnv1a ones;
  ones.u64(~0ULL);
  EXPECT_EQ(negative.value(), ones.value());
}

// ---------- Rng ----------

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += rng.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    ASSERT_GE(v, -2.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, IndexStaysBelowBound) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.index(17), 17u);
}

TEST(Rng, IndexCoversAllValues) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextU64RejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.next_u64(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  std::set<long long> seen;
  for (int i = 0; i < 500; ++i) {
    const long long v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.range(2, 1), std::invalid_argument);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ExponentialPositiveAndMean) {
  Rng rng(23);
  double total = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(0.5);
    ASSERT_GT(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total / n, 2.0, 0.1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, PowerLawBounds) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.power_law_int(1.6, 100);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
  }
}

TEST(Rng, PowerLawIsHeavyTailed) {
  Rng rng(31);
  int ones = 0, large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const int v = rng.power_law_int(1.8, 200);
    ones += (v == 1);
    large += (v > 50);
  }
  EXPECT_GT(ones, n / 3);   // mass concentrates at the bottom
  EXPECT_GT(large, 10);     // but the tail is populated
}

TEST(Rng, PoissonMean) {
  Rng rng(37);
  double total = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += rng.poisson(3.0);
  EXPECT_NEAR(total / n, 3.0, 0.1);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(43);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const auto sample = rng.sample_indices(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(distinct.size(), k);
    for (std::size_t idx : sample) EXPECT_LT(idx, 100u);
  }
  EXPECT_THROW(rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, WeightedIndexSkipsZeroWeights) {
  Rng rng(47);
  const std::vector<double> weights{0.0, 1.0, 0.0, 3.0};
  for (int i = 0; i < 1000; ++i) {
    const std::size_t idx = rng.weighted_index(weights);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(53);
  const std::vector<double> weights{1.0, 3.0};
  int hits = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) hits += (rng.weighted_index(weights) == 1);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.75, 0.02);
}

TEST(Rng, ForkIsIndependentStream) {
  Rng a(59);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

// ---------- strings ----------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsRuns) {
  const auto parts = split_whitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 "), -1000.0);
  EXPECT_THROW(parse_double("abc"), std::invalid_argument);
  EXPECT_THROW(parse_double("1.5x"), std::invalid_argument);
  EXPECT_THROW(parse_double(""), std::invalid_argument);
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_THROW(parse_int("4.2"), std::invalid_argument);
  EXPECT_THROW(parse_int("x"), std::invalid_argument);
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

// ---------- ArgParser ----------

TEST(ArgParser, GetIntInAcceptsTheClosedRange) {
  ArgParser args;
  args.add_option("threads", "0", "");
  args.add_option("port", "0", "");
  const char* argv[] = {"prog", "--threads", "1024", "--port=65535"};
  args.parse(4, argv);
  EXPECT_EQ(args.get_int_in("threads", 0, 1024), 1024);
  EXPECT_EQ(args.get_int_in("port", 0, 65535), 65535);
  EXPECT_TRUE(args.given("threads"));
  EXPECT_TRUE(args.given("port"));  // the --name=value spelling counts too
  ArgParser defaults;
  defaults.add_option("threads", "0", "");
  EXPECT_EQ(defaults.get_int_in("threads", 0, 1024), 0);
  EXPECT_FALSE(defaults.given("threads"));  // left at its default
}

TEST(ArgParser, GetIntInRejectsOutOfRangeNamingTheOption) {
  ArgParser args;
  args.add_option("threads", "0", "");
  args.add_option("max-memory-mb", "0", "");
  const char* argv[] = {"prog", "--threads", "-1", "--max-memory-mb",
                        "9223372036854775807"};
  args.parse(5, argv);
  EXPECT_EQ(args.get_int("threads"), -1);  // the unchecked accessor
  try {
    args.get_int_in("threads", 0, 1024);
    FAIL() << "a negative thread count was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("[0, 1024]"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(args.get_int_in("threads", 2, 1024), std::invalid_argument);
  EXPECT_THROW(args.get_int_in("max-memory-mb", 0, 1LL << 44),
               std::invalid_argument);
  ArgParser over;
  over.add_option("port", "0", "");
  const char* over_argv[] = {"prog", "--port", "70000"};
  over.parse(3, over_argv);
  EXPECT_THROW(over.get_int_in("port", 0, 65535), std::invalid_argument);
}

// ---------- Table ----------

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, BuildsRowsAndText) {
  Table t({"name", "value"});
  t.new_row().add("alpha").add(1.5, 1);
  t.new_row().add("b").add(42);
  EXPECT_EQ(t.row_count(), 2u);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(Table, EnforcesRowDiscipline) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add("x"), std::logic_error);  // add before new_row
  t.new_row().add("1").add("2");
  EXPECT_THROW(t.add("3"), std::logic_error);  // overflow
  t.new_row().add("1");
  EXPECT_THROW(t.new_row(), std::logic_error);  // incomplete previous row
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.new_row().add("a,b");
  t.new_row().add("q\"q");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"q\""), std::string::npos);
}

TEST(Table, WriteCsvCreatesDirectories) {
  const std::string dir = testing::TempDir() + "/fs_table_test";
  std::filesystem::remove_all(dir);
  Table t({"a"});
  t.new_row().add(1);
  t.write_csv(dir + "/nested/out.csv");
  std::ifstream in(dir + "/nested/out.csv");
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a");
}

// ---------- monotonic clock ----------

TEST(MonotonicSeconds, NonNegativeAndMonotonic) {
  const double t1 = monotonic_seconds();
  const double t2 = monotonic_seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

// ---------- error taxonomy & diagnostics ----------

TEST(Error, CarriesCodeAndPrefixesWhat) {
  const ParseError e("bad line 7");
  EXPECT_EQ(e.code(), ErrorCode::kParse);
  EXPECT_EQ(std::string(e.what()), "ParseError: bad line 7");
  // The taxonomy stays catchable through the legacy base classes.
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw CorruptCheckpoint("x"), std::runtime_error);
  try {
    throw ConvergenceError("diverged");
  } catch (const Error& caught) {
    EXPECT_EQ(caught.code(), ErrorCode::kConvergence);
  }
}

TEST(Error, CodeNamesAreDistinct) {
  std::set<std::string> names;
  for (ErrorCode code :
       {ErrorCode::kIo, ErrorCode::kParse, ErrorCode::kNumeric,
        ErrorCode::kCorruptCheckpoint, ErrorCode::kConvergence})
    names.insert(error_code_name(code));
  EXPECT_EQ(names.size(), 5u);
}

TEST(Diagnostics, CollectsAndSummarizes) {
  Diagnostics diag;
  EXPECT_TRUE(diag.empty());
  EXPECT_FALSE(diag.has_errors());
  diag.report(Severity::kWarning, ErrorCode::kParse, "loader",
              "3 lines quarantined");
  diag.report(Severity::kError, ErrorCode::kNumeric, "pipeline",
              "phase 2 diverged");
  EXPECT_EQ(diag.entries().size(), 2u);
  EXPECT_EQ(diag.count(Severity::kWarning), 1u);
  EXPECT_EQ(diag.count(Severity::kError), 1u);
  EXPECT_TRUE(diag.has_errors());
  const std::string text = diag.to_string();
  EXPECT_NE(text.find("loader"), std::string::npos);
  EXPECT_NE(text.find("phase 2 diverged"), std::string::npos);
  diag.clear();
  EXPECT_TRUE(diag.empty());
}

}  // namespace
}  // namespace fs::util
