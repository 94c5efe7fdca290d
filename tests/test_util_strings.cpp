#include "util/csv.hpp"
#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace slmob {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitEmptyInput) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("HTTP/1.0", "HTTP/"));
  EXPECT_FALSE(starts_with("HT", "HTTP/"));
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("Content-Length", "content-lengt"));
}

TEST(Strings, ParseNonNegativeInt) {
  EXPECT_EQ(parse_non_negative_int("42"), 42);
  EXPECT_EQ(parse_non_negative_int(" 42 "), 42);
  EXPECT_EQ(parse_non_negative_int("-1"), -1);
  EXPECT_EQ(parse_non_negative_int("x42"), -1);
  EXPECT_EQ(parse_non_negative_int("42x"), -1);
  EXPECT_EQ(parse_non_negative_int(""), -1);
}

TEST(Strings, ParseFiniteDouble) {
  EXPECT_EQ(parse_finite_double("10"), 10.0);
  EXPECT_EQ(parse_finite_double(" 0.5 "), 0.5);
  EXPECT_EQ(parse_finite_double("-2.5"), -2.5);
  EXPECT_EQ(parse_finite_double("1e3"), 1000.0);
  EXPECT_EQ(parse_finite_double("0"), 0.0);
  EXPECT_EQ(parse_finite_double("abc"), std::nullopt);
  EXPECT_EQ(parse_finite_double("10x"), std::nullopt);
  EXPECT_EQ(parse_finite_double("x10"), std::nullopt);
  EXPECT_EQ(parse_finite_double("1.5.2"), std::nullopt);
  EXPECT_EQ(parse_finite_double(""), std::nullopt);
  EXPECT_EQ(parse_finite_double("inf"), std::nullopt);
  EXPECT_EQ(parse_finite_double("nan"), std::nullopt);
  EXPECT_EQ(parse_finite_double("1e999"), std::nullopt);
}

TEST(Csv, WriterProducesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b"});
  w.row({"1", "2"});
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Csv, WriterRejectsFieldsNeedingQuotes) {
  std::ostringstream os;
  CsvWriter w(os);
  EXPECT_THROW(w.row({"a,b"}), std::invalid_argument);
  EXPECT_THROW(w.row({"a\"b"}), std::invalid_argument);
  EXPECT_THROW(w.row({"a\nb"}), std::invalid_argument);
}

TEST(Csv, ParseRoundTrip) {
  const auto rows = parse_csv("a,b\n1,2\r\n\n3,4\n");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"3", "4"}));
}

}  // namespace
}  // namespace slmob
