// Unit tests for the catalog and the mini-batch partitioner.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "catalog/catalog.h"
#include "catalog/partitioner.h"

namespace iolap {
namespace {

Table MakeTable(size_t rows) {
  Table t(Schema({{"id", ValueType::kInt64}, {"grp", ValueType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    t.AddRow({Value::Int64(static_cast<int64_t>(i)),
              Value::Int64(static_cast<int64_t>(i % 4))});
  }
  return t;
}

TEST(CatalogTest, RegisterAndFind) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", MakeTable(3), true).ok());
  auto entry = catalog.Find("t");
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE((*entry)->streamed);
  EXPECT_EQ((*entry)->table->num_rows(), 3u);
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", MakeTable(1)).ok());
  EXPECT_EQ(catalog.RegisterTable("t", MakeTable(1)).code(),
            StatusCode::kAlreadyExists);
}

// The boundary of the type rule: every registered row fits its schema, so
// a statically numeric column never holds a string when a compiled program
// reads it. int64 and double fit either numeric column; NULL fits any.
TEST(CatalogTest, RejectsRowsThatContradictTheSchema) {
  const Schema schema({{"k", ValueType::kInt64},
                       {"x", ValueType::kDouble},
                       {"s", ValueType::kString}});
  auto table_of = [&](Row row) {
    Table table(schema);
    table.AddRow({Value::Int64(1), Value::Double(2.0), Value::String("a")});
    table.AddRow(std::move(row));
    return table;
  };
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .RegisterTable("ok", table_of({Value::Double(1.5),
                                                 Value::Int64(3),
                                                 Value::Null()}))
                  .ok());
  EXPECT_TRUE(
      catalog
          .RegisterTable("nulls", table_of({Value::Null(), Value::Null(),
                                            Value::Null()}))
          .ok());
  const std::pair<const char*, Row> bad[] = {
      {"string_in_double",
       {Value::Int64(1), Value::String("surprise"), Value::String("a")}},
      {"number_in_string",
       {Value::Int64(1), Value::Double(2.0), Value::Int64(7)}},
      {"string_in_int",
       {Value::String("1"), Value::Double(2.0), Value::Null()}},
      {"short_row", {Value::Int64(1), Value::Double(2.0)}},
      {"long_row",
       {Value::Int64(1), Value::Double(2.0), Value::String("a"),
        Value::Int64(4)}},
  };
  for (const auto& [name, row] : bad) {
    const Status status = catalog.RegisterTable(name, table_of(row));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(status.message().find("row 1"), std::string::npos)
        << name << ": " << status;
    EXPECT_FALSE(catalog.Has(name)) << name;
  }

  // Rows that did not come through AddRow are read at registration: those
  // passed to the constructor, and any after mutable_rows().
  const Row good = {Value::Int64(1), Value::Double(2.0), Value::String("a")};
  const Row bad_row = {Value::Int64(1), Value::String("b"), Value::Null()};
  EXPECT_FALSE(Table(schema, {good}).rows_fit());
  EXPECT_TRUE(catalog.RegisterTable("built_ok", Table(schema, {good})).ok());
  EXPECT_EQ(catalog.RegisterTable("built_bad", Table(schema, {good, bad_row}))
                .code(),
            StatusCode::kInvalidArgument);
  Table edited = table_of(good);
  EXPECT_TRUE(edited.rows_fit());
  edited.mutable_rows()[1] = bad_row;
  EXPECT_FALSE(edited.rows_fit());
  EXPECT_EQ(catalog.RegisterTable("edited", std::move(edited)).code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, MissingTable) {
  Catalog catalog;
  EXPECT_EQ(catalog.Find("nope").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(catalog.Has("nope"));
}

TEST(CatalogTest, SetStreamed) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", MakeTable(1), false).ok());
  ASSERT_TRUE(catalog.SetStreamed("t", true).ok());
  EXPECT_TRUE((*catalog.Find("t"))->streamed);
  EXPECT_EQ(catalog.SetStreamed("u", true).code(), StatusCode::kNotFound);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("b", MakeTable(1)).ok());
  ASSERT_TRUE(catalog.RegisterTable("a", MakeTable(1)).ok());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "b"}));
}

// ----------------------------------------------------------- Partitioner

class PartitionerTest : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(PartitionerTest, EveryRowExactlyOnce) {
  const Table t = MakeTable(1003);
  PartitionOptions options;
  options.scheme = GetParam();
  options.block_rows = 16;
  options.seed = 11;
  auto layout = PartitionIntoBatches(t, 10, options);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->batches.size(), 10u);
  std::set<uint64_t> seen;
  for (const auto& batch : layout->batches) {
    for (uint64_t id : batch) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate row " << id;
      EXPECT_LT(id, 1003u);
    }
  }
  EXPECT_EQ(seen.size(), 1003u);
  EXPECT_EQ(layout->TotalRows(), 1003u);
}

TEST_P(PartitionerTest, BatchesRoughlyEqual) {
  const Table t = MakeTable(1000);
  PartitionOptions options;
  options.scheme = GetParam();
  options.seed = 3;
  auto layout = PartitionIntoBatches(t, 8, options);
  ASSERT_TRUE(layout.ok());
  for (const auto& batch : layout->batches) {
    EXPECT_NEAR(static_cast<double>(batch.size()), 125.0, 64.0);
  }
}

TEST_P(PartitionerTest, DeterministicUnderSeed) {
  const Table t = MakeTable(200);
  PartitionOptions options;
  options.scheme = GetParam();
  options.seed = 99;
  auto a = PartitionIntoBatches(t, 5, options);
  auto b = PartitionIntoBatches(t, 5, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->batches, b->batches);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionerTest,
                         ::testing::Values(PartitionScheme::kBlockwiseRandom,
                                           PartitionScheme::kFullShuffle,
                                           PartitionScheme::kStratified));

TEST(PartitionerTest, BlockwiseKeepsBlocksTogether) {
  const Table t = MakeTable(128);
  PartitionOptions options;
  options.scheme = PartitionScheme::kBlockwiseRandom;
  options.block_rows = 8;
  options.seed = 1;
  auto layout = PartitionIntoBatches(t, 4, options);
  ASSERT_TRUE(layout.ok());
  // Rows of the same 8-row block land in the same batch (batch size 32
  // is a multiple of the block size).
  std::vector<int> batch_of(128, -1);
  for (size_t b = 0; b < layout->batches.size(); ++b) {
    for (uint64_t id : layout->batches[b]) batch_of[id] = static_cast<int>(b);
  }
  for (size_t block = 0; block < 16; ++block) {
    for (size_t r = 1; r < 8; ++r) {
      EXPECT_EQ(batch_of[block * 8], batch_of[block * 8 + r]);
    }
  }
}

TEST(PartitionerTest, FullShuffleActuallyShuffles) {
  const Table t = MakeTable(1000);
  PartitionOptions options;
  options.scheme = PartitionScheme::kFullShuffle;
  options.seed = 5;
  auto layout = PartitionIntoBatches(t, 2, options);
  ASSERT_TRUE(layout.ok());
  // The first batch should not be simply the first half.
  size_t in_first_half = 0;
  for (uint64_t id : layout->batches[0]) in_first_half += (id < 500);
  EXPECT_GT(in_first_half, 150u);
  EXPECT_LT(in_first_half, 350u);
}

TEST(PartitionerTest, StratifiedBalancesStrata) {
  const Table t = MakeTable(400);  // grp = id % 4: four strata of 100 rows
  PartitionOptions options;
  options.scheme = PartitionScheme::kStratified;
  options.stratify_column = 1;
  options.seed = 2;
  auto layout = PartitionIntoBatches(t, 4, options);
  ASSERT_TRUE(layout.ok());
  for (const auto& batch : layout->batches) {
    std::vector<int> counts(4, 0);
    for (uint64_t id : batch) ++counts[id % 4];
    for (int c : counts) EXPECT_NEAR(c, 25, 3);
  }
}

TEST(PartitionerTest, StratifiedBadColumn) {
  PartitionOptions options;
  options.scheme = PartitionScheme::kStratified;
  options.stratify_column = 9;
  EXPECT_FALSE(PartitionIntoBatches(MakeTable(10), 2, options).ok());
}

TEST(PartitionerTest, MoreBatchesThanRowsClamped) {
  auto layout = PartitionIntoBatches(MakeTable(3), 10, PartitionOptions{});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->batches.size(), 3u);
  EXPECT_EQ(layout->TotalRows(), 3u);
}

TEST(PartitionerTest, EmptyTable) {
  auto layout = PartitionIntoBatches(MakeTable(0), 4, PartitionOptions{});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->batches.size(), 1u);
  EXPECT_EQ(layout->TotalRows(), 0u);
}

TEST(PartitionerTest, ZeroBatchesRejected) {
  EXPECT_FALSE(PartitionIntoBatches(MakeTable(5), 0, PartitionOptions{}).ok());
}

}  // namespace
}  // namespace iolap
