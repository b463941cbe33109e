// Unit tests for the CSV reader/writer: type inference, quoting, nulls,
// file round trips, and error reporting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "catalog/csv.h"

namespace iolap {
namespace {

TEST(CsvTest, HeaderAndTypeInference) {
  auto table = ReadCsv("id,score,name\n1,2.5,alice\n2,3,bob\n");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->schema().num_columns(), 3u);
  EXPECT_EQ(table->schema().column(0).type, ValueType::kInt64);
  EXPECT_EQ(table->schema().column(1).type, ValueType::kDouble);
  EXPECT_EQ(table->schema().column(2).type, ValueType::kString);
  ASSERT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->row(0)[0].int64(), 1);
  EXPECT_DOUBLE_EQ(table->row(0)[1].dbl(), 2.5);
  EXPECT_EQ(table->row(1)[2].str(), "bob");
}

TEST(CsvTest, IntColumnWithDecimalBecomesDouble) {
  auto table = ReadCsv("x\n1\n2.5\n3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().column(0).type, ValueType::kDouble);
  EXPECT_DOUBLE_EQ(table->row(0)[0].dbl(), 1.0);
}

TEST(CsvTest, NoHeaderGeneratesNames) {
  CsvOptions options;
  options.header = false;
  auto table = ReadCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().column(0).name, "c0");
  EXPECT_EQ(table->schema().column(1).name, "c1");
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvTest, QuotedFields) {
  auto table = ReadCsv("a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->row(0)[0].str(), "hello, world");
  EXPECT_EQ(table->row(0)[1].str(), "say \"hi\"");
}

TEST(CsvTest, NullTokensAndEmptyFields) {
  auto table = ReadCsv("x,y\n1,NULL\n,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->row(0)[1].is_null());
  EXPECT_TRUE(table->row(1)[0].is_null());
  EXPECT_EQ(table->row(1)[1].int64(), 2);
}

TEST(CsvTest, CrlfAndBlankLines) {
  auto table = ReadCsv("a\r\n1\r\n\r\n2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = '\t';
  auto table = ReadCsv("a\tb\n1\t2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->row(0)[1].int64(), 2);
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ReadCsv("").ok());
  EXPECT_FALSE(ReadCsv("a,b\n1\n").ok());             // field count mismatch
  EXPECT_FALSE(ReadCsv("a\n\"unterminated\n").ok());  // quote
  // Type violation past the inference window.
  CsvOptions options;
  options.type_inference_rows = 1;
  EXPECT_FALSE(ReadCsv("x\n1\nnot_a_number\n", options).ok());
  EXPECT_FALSE(ReadCsvFile("/no/such/file.csv").ok());
}

// strtoll clamps an integer outside int64 to INT64_MIN/MAX; such a field
// is not an integer. A sampled column of them infers as DOUBLE, and one in
// a column already inferred INT64 is a parse error.
TEST(CsvTest, OutOfRangeIntegersAreNotClamped) {
  auto wide = ReadCsv("x\n99999999999999999999\n-99999999999999999999\n");
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->schema().column(0).type, ValueType::kDouble);
  EXPECT_EQ(wide->row(0)[0].dbl(), 1e20);
  EXPECT_EQ(wide->row(1)[0].dbl(), -1e20);

  auto edge = ReadCsv("x\n9223372036854775807\n-9223372036854775808\n");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->schema().column(0).type, ValueType::kInt64);
  EXPECT_EQ(edge->row(0)[0].int64(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(edge->row(1)[0].int64(), std::numeric_limits<int64_t>::min());

  CsvOptions options;
  options.type_inference_rows = 1;
  auto late = ReadCsv("x\n1\n9223372036854775808\n", options);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kParseError);
  EXPECT_NE(late.status().message().find("expected integer"),
            std::string::npos)
      << late.status();
}

// The double twin of the integer rule: an overflowing number is not a
// number (strtod would clamp it to an infinity), while underflow rounds to
// 0 and the literal spellings of infinity and NaN still load.
TEST(CsvTest, OutOfRangeDoublesAreNotClamped) {
  auto wide = ReadCsv("x\n1e999\n-1e999\n1e-400\n");
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->schema().column(0).type, ValueType::kString);
  EXPECT_EQ(wide->row(0)[0].str(), "1e999");
  EXPECT_EQ(wide->row(1)[0].str(), "-1e999");

  auto tiny = ReadCsv("x\n1e-400\n2.5\n");
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  EXPECT_EQ(tiny->schema().column(0).type, ValueType::kDouble);
  EXPECT_EQ(tiny->row(0)[0].dbl(), 0.0);

  auto literal = ReadCsv("x\ninf\n-inf\nnan\n1.5\n");
  ASSERT_TRUE(literal.ok()) << literal.status();
  EXPECT_EQ(literal->schema().column(0).type, ValueType::kDouble);
  EXPECT_EQ(literal->row(0)[0].dbl(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(literal->row(1)[0].dbl(),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(literal->row(2)[0].dbl()));

  CsvOptions options;
  options.type_inference_rows = 1;
  auto late = ReadCsv("x\n1.5\n1e999\n", options);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kParseError);
  EXPECT_NE(late.status().message().find("expected number"), std::string::npos)
      << late.status();
}

TEST(CsvTest, WriteRoundTrip) {
  auto table = ReadCsv(
      "id,note,v\n1,\"a, quoted\",2.5\n2,NULL,3.25\n");
  ASSERT_TRUE(table.ok());
  const std::string out = WriteCsv(*table);
  auto again = ReadCsv(out);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << out;
  ASSERT_EQ(again->num_rows(), table->num_rows());
  for (size_t r = 0; r < table->num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(again->row(r)[c].Equals(table->row(r)[c]))
          << r << "," << c;
    }
  }
}

TEST(CsvTest, FileRoundTrip) {
  Table table(Schema({{"k", ValueType::kInt64}, {"s", ValueType::kString}}));
  table.AddRow({Value::Int64(7), Value::String("x")});
  const std::string path = ::testing::TempDir() + "/iolap_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_rows(), 1u);
  EXPECT_EQ(loaded->row(0)[0].int64(), 7);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace iolap
