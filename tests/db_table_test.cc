#include <gtest/gtest.h>

#include "db/schema.h"
#include "db/table.h"

namespace cacheportal::db {
namespace {

using sql::Value;

TableSchema CarSchema() {
  return TableSchema("Car", {{"maker", ColumnType::kString},
                             {"model", ColumnType::kString},
                             {"price", ColumnType::kInt}});
}

Row CarRow(const std::string& maker, const std::string& model,
           int64_t price) {
  return {Value::String(maker), Value::String(model), Value::Int(price)};
}

// ---------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------

TEST(SchemaTest, ColumnIndexCaseInsensitive) {
  TableSchema schema = CarSchema();
  EXPECT_EQ(schema.ColumnIndex("maker"), 0u);
  EXPECT_EQ(schema.ColumnIndex("PRICE"), 2u);
  EXPECT_EQ(schema.ColumnIndex("missing"), std::nullopt);
}

TEST(SchemaTest, ValidateRowArity) {
  TableSchema schema = CarSchema();
  EXPECT_FALSE(schema.ValidateRow({Value::Int(1)}).ok());
  EXPECT_TRUE(schema.ValidateRow(CarRow("T", "A", 1)).ok());
}

TEST(SchemaTest, ValidateRowTypes) {
  TableSchema schema = CarSchema();
  // String in int column.
  EXPECT_FALSE(
      schema
          .ValidateRow({Value::String("T"), Value::String("A"),
                        Value::String("x")})
          .ok());
  // NULL is allowed anywhere.
  EXPECT_TRUE(
      schema.ValidateRow({Value::Null(), Value::Null(), Value::Null()}).ok());
}

TEST(SchemaTest, IntStorableInDoubleColumn) {
  TableSchema schema("T", {{"x", ColumnType::kDouble}});
  EXPECT_TRUE(schema.ValidateRow({Value::Int(3)}).ok());
  EXPECT_TRUE(schema.ValidateRow({Value::Double(3.5)}).ok());
  EXPECT_FALSE(schema.ValidateRow({Value::String("3")}).ok());
}

// ---------------------------------------------------------------------
// Table CRUD
// ---------------------------------------------------------------------

TEST(TableTest, InsertAssignsIncreasingRowIds) {
  Table table(CarSchema());
  auto a = table.Insert(CarRow("T", "A", 1));
  auto b = table.Insert(CarRow("T", "B", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(*a, *b);
  EXPECT_EQ(table.size(), 2u);
}

TEST(TableTest, InsertValidates) {
  Table table(CarSchema());
  EXPECT_FALSE(table.Insert({Value::Int(1)}).ok());
  EXPECT_EQ(table.size(), 0u);
}

TEST(TableTest, GetAndDelete) {
  Table table(CarSchema());
  RowId id = *table.Insert(CarRow("T", "A", 1));
  auto row = table.Get(id);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2], Value::Int(1));
  EXPECT_TRUE(table.Delete(id).ok());
  EXPECT_TRUE(table.Get(id).status().IsNotFound());
  EXPECT_TRUE(table.Delete(id).IsNotFound());
}

TEST(TableTest, UpdateReplacesRow) {
  Table table(CarSchema());
  RowId id = *table.Insert(CarRow("T", "A", 1));
  EXPECT_TRUE(table.Update(id, CarRow("T", "A", 99)).ok());
  EXPECT_EQ((*table.Get(id))[2], Value::Int(99));
  EXPECT_TRUE(table.Update(12345, CarRow("T", "A", 1)).IsNotFound());
}

TEST(TableTest, ScanInInsertionOrder) {
  Table table(CarSchema());
  table.Insert(CarRow("T", "A", 1)).value();
  table.Insert(CarRow("T", "B", 2)).value();
  std::vector<int64_t> prices;
  for (const auto& [id, row] : table.rows()) {
    prices.push_back(row[2].AsInt());
  }
  EXPECT_EQ(prices, (std::vector<int64_t>{1, 2}));
}

// ---------------------------------------------------------------------
// Indexes
// ---------------------------------------------------------------------

constexpr size_t kMaker = 0, kModel = 1;

/// The index's candidates for `model = key`, merged.
std::vector<RowId> ModelLookup(const Table& table, const std::string& key) {
  std::optional<IndexMatch> match =
      table.IndexProbe(kModel, Value::String(key));
  EXPECT_TRUE(match.has_value());
  return match.has_value() ? match->Merged() : std::vector<RowId>{};
}

TEST(TableIndexTest, LookupFindsMatchingRows) {
  Table table(CarSchema());
  ASSERT_TRUE(table.CreateIndex("model").ok());
  RowId a = *table.Insert(CarRow("Toyota", "Avalon", 25000));
  table.Insert(CarRow("Mitsubishi", "Eclipse", 20000)).value();
  RowId c = *table.Insert(CarRow("Used", "Avalon", 9000));

  EXPECT_EQ(ModelLookup(table, "Avalon"), (std::vector<RowId>{a, c}));
  EXPECT_TRUE(ModelLookup(table, "Civic").empty());
}

TEST(TableIndexTest, IndexMaintainedAcrossDeleteAndUpdate) {
  Table table(CarSchema());
  ASSERT_TRUE(table.CreateIndex("model").ok());
  RowId a = *table.Insert(CarRow("T", "X", 1));
  RowId b = *table.Insert(CarRow("T", "X", 2));
  ASSERT_TRUE(table.Delete(a).ok());
  EXPECT_EQ(ModelLookup(table, "X"), (std::vector<RowId>{b}));

  ASSERT_TRUE(table.Update(b, CarRow("T", "Y", 2)).ok());
  EXPECT_TRUE(ModelLookup(table, "X").empty());
  EXPECT_EQ(ModelLookup(table, "Y").size(), 1u);
}

TEST(TableIndexTest, CreateIndexBackfillsExistingRows) {
  Table table(CarSchema());
  RowId a = *table.Insert(CarRow("T", "Z", 5));
  ASSERT_TRUE(table.CreateIndex("model").ok());
  EXPECT_EQ(ModelLookup(table, "Z"), (std::vector<RowId>{a}));
}

TEST(TableIndexTest, Errors) {
  Table table(CarSchema());
  EXPECT_TRUE(table.CreateIndex("nope").IsNotFound());
  ASSERT_TRUE(table.CreateIndex("model").ok());
  EXPECT_TRUE(table.CreateIndex("model").IsAlreadyExists());
  EXPECT_FALSE(table.HasIndex("maker"));
  EXPECT_TRUE(table.HasIndex("model"));
  EXPECT_FALSE(table.IndexProbe(kMaker, Value::String("T")).has_value());
}

}  // namespace
}  // namespace cacheportal::db
