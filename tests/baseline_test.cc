#include <gtest/gtest.h>

#include "baseline/acid_table.h"
#include "baseline/hbase_table.h"
#include "baseline/hive_table.h"
#include "fs/filesystem.h"

namespace dtl::baseline {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"day", DataType::kDate},
                 {"amount", DataType::kDouble}});
}

Row MakeRow(int64_t i) {
  return Row{Value::Int64(i), Value::Date(i % 10), Value::Double(i * 2.0)};
}

table::ScanSpec DayEquals(int64_t day) {
  table::ScanSpec spec;
  spec.predicate_columns = {1};
  spec.predicate = [day](const Row& row) {
    return !row[1].is_null() && row[1].AsInt64() == day;
  };
  return spec;
}

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = dual::MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<dual::MetadataTable> metadata_;
};

// --- Hive(HDFS) -----------------------------------------------------------------

TEST_F(BaselineTest, HiveInsertScan) {
  auto t = HiveTable::Open(fs_.get(), metadata_.get(), "h", TestSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());
  auto count = (*t)->CountRows();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 500u);
}

TEST_F(BaselineTest, HiveUpdateIsFullRewrite) {
  HiveTableOptions options;
  options.writer_options.stripe_rows = 64;
  auto t = HiveTable::Open(fs_.get(), metadata_.get(), "h", TestSchema(), options);
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());
  const uint64_t table_bytes = (*t)->storage()->TotalBytes();

  fs_->meter()->Reset();
  table::Assignment assign;
  assign.column = 2;
  assign.compute = [](const Row&) { return Value::Double(-1); };
  auto result = (*t)->Update(DayEquals(3), {assign});  // 10% of rows
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, table::DmlPlan::kOverwrite);
  EXPECT_EQ(result->rows_matched, 100u);
  // The whole table was rewritten even though 10% changed.
  const auto io = fs_->meter()->Snapshot();
  EXPECT_GT(io.hdfs_bytes_written, table_bytes / 2);

  // Values actually changed.
  auto collected = table::CollectRows(t->get(), DayEquals(3));
  ASSERT_TRUE(collected.ok());
  for (const Row& row : *collected) EXPECT_DOUBLE_EQ(row[2].AsDouble(), -1.0);
}

TEST_F(BaselineTest, HiveDeleteDropsRows) {
  auto t = HiveTable::Open(fs_.get(), metadata_.get(), "h", TestSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());
  auto result = (*t)->Delete(DayEquals(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_matched, 50u);
  EXPECT_EQ(*(*t)->CountRows(), 450u);
}

// --- Hive(HBase) -----------------------------------------------------------------

TEST_F(BaselineTest, HBaseInsertScanUpdateDelete) {
  auto t = HBaseTable::Open(fs_.get(), "hb", TestSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());
  EXPECT_EQ(*(*t)->CountRows(), 300u);

  table::Assignment assign;
  assign.column = 2;
  assign.compute = [](const Row&) { return Value::Double(7.0); };
  auto updated = (*t)->Update(DayEquals(4), {assign});
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->plan, table::DmlPlan::kInPlace);
  EXPECT_EQ(updated->rows_matched, 30u);
  auto check = table::CollectRows(t->get(), DayEquals(4));
  for (const Row& row : *check) EXPECT_DOUBLE_EQ(row[2].AsDouble(), 7.0);

  auto deleted = (*t)->Delete(DayEquals(4));
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->rows_matched, 30u);
  EXPECT_EQ(*(*t)->CountRows(), 270u);
}

TEST_F(BaselineTest, HBaseUpdateWritesOnlyChangedCells) {
  auto t = HBaseTable::Open(fs_.get(), "hb", TestSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());
  const uint64_t puts_before = (*t)->store()->stats().puts;

  table::Assignment assign;
  assign.column = 2;
  assign.compute = [](const Row&) { return Value::Double(0); };
  ASSERT_TRUE((*t)->Update(DayEquals(5), {assign}).ok());
  // One put per matched row (100 rows), not per cell of the table.
  EXPECT_EQ((*t)->store()->stats().puts - puts_before, 100u);
}

TEST_F(BaselineTest, HBaseNullsStoredSparsely) {
  auto t = HBaseTable::Open(fs_.get(), "hb", TestSchema());
  ASSERT_TRUE((*t)->InsertRows({{Value::Int64(1), Value::Null(), Value::Null()}}).ok());
  table::ScanSpec all;
  auto rows = table::CollectRows(t->get(), all);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_TRUE((*rows)[0][1].is_null());
  EXPECT_EQ((*rows)[0][0].AsInt64(), 1);
}

// --- Hive ACID -------------------------------------------------------------------

TEST_F(BaselineTest, AcidUpdateCreatesDeltaPerTransaction) {
  auto t = AcidTable::Open(fs_.get(), metadata_.get(), "a", TestSchema());
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  table::Assignment assign;
  assign.column = 2;
  assign.compute = [](const Row&) { return Value::Double(9.0); };
  ASSERT_TRUE((*t)->Update(DayEquals(1), {assign}).ok());
  ASSERT_TRUE((*t)->Update(DayEquals(2), {assign}).ok());
  EXPECT_EQ((*t)->NumDeltaFiles(), 2u);

  // Merge-on-read view is up to date.
  auto check = table::CollectRows(t->get(), DayEquals(1));
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->size(), 40u);
  for (const Row& row : *check) EXPECT_DOUBLE_EQ(row[2].AsDouble(), 9.0);
}

TEST_F(BaselineTest, AcidLatestTransactionWins) {
  auto t = AcidTable::Open(fs_.get(), metadata_.get(), "a", TestSchema());
  ASSERT_TRUE((*t)->InsertRows({MakeRow(0)}).ok());
  table::ScanSpec match_all;
  for (double v : {1.0, 2.0, 3.0}) {
    table::Assignment assign;
    assign.column = 2;
    assign.compute = [v](const Row&) { return Value::Double(v); };
    ASSERT_TRUE((*t)->Update(match_all, {assign}).ok());
  }
  table::ScanSpec all;
  auto rows = table::CollectRows(t->get(), all);
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ((*rows)[0][2].AsDouble(), 3.0);
}

TEST_F(BaselineTest, AcidDeleteAndCompactions) {
  auto t = AcidTable::Open(fs_.get(), metadata_.get(), "a", TestSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  ASSERT_TRUE((*t)->Delete(DayEquals(0)).ok());
  table::Assignment assign;
  assign.column = 2;
  assign.compute = [](const Row&) { return Value::Double(5.0); };
  ASSERT_TRUE((*t)->Update(DayEquals(1), {assign}).ok());
  EXPECT_EQ((*t)->NumDeltaFiles(), 2u);
  EXPECT_EQ(*(*t)->CountRows(), 450u);

  // Minor compact: one delta file, same view.
  ASSERT_TRUE((*t)->MinorCompact().ok());
  EXPECT_EQ((*t)->NumDeltaFiles(), 1u);
  EXPECT_EQ(*(*t)->CountRows(), 450u);

  // Major compact: no deltas, same view, updates folded into base.
  auto plan = (*t)->PlanCompact(/*incremental=*/false);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE((*t)->ExecuteCompact(*plan).ok());
  EXPECT_EQ((*t)->NumDeltaFiles(), 0u);
  EXPECT_EQ(*(*t)->CountRows(), 450u);
  auto check = table::CollectRows(t->get(), DayEquals(1));
  for (const Row& row : *check) EXPECT_DOUBLE_EQ(row[2].AsDouble(), 5.0);
}

TEST_F(BaselineTest, AcidStoresWholeRecordPerUpdatedCell) {
  // Structural contrast with DualTable: ACID deltas hold the full record.
  auto t = AcidTable::Open(fs_.get(), metadata_.get(), "a", TestSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  table::Assignment assign;
  assign.column = 2;  // one cell changes
  assign.compute = [](const Row&) { return Value::Double(0); };
  ASSERT_TRUE((*t)->Update(DayEquals(3), {assign}).ok());
  // The delta file holds 100 whole records (id + day + amount + header),
  // clearly more than 100 bare cells would need.
  EXPECT_GT((*t)->DeltaBytes(), 100u * 8u);
}

}  // namespace
}  // namespace dtl::baseline
