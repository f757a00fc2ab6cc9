// Tests for the vectorized read path: RowBatch/ColumnVector mechanics,
// the row<->batch adapters, and the batch scan pipeline edge cases (empty
// table, stripe-aligned batch boundaries, projection-only scans, fully
// deleted batches, and batch output vs a model of the inserts and puts).
#include <gtest/gtest.h>

#include <map>

#include "dualtable/dual_table.h"
#include "dualtable/record_id.h"
#include "fs/filesystem.h"
#include "table/row_batch.h"
#include "table/scan_stats.h"
#include "table/storage_table.h"

namespace dtl::table {
namespace {

// --- ColumnVector / RowBatch mechanics ---------------------------------------------

TEST(ColumnVectorTest, AbsentReadsAsNull) {
  ColumnVector col;
  EXPECT_TRUE(col.absent());
  EXPECT_TRUE(col.at(0).is_null());
  EXPECT_EQ(col.data(), nullptr);
}

TEST(ColumnVectorTest, ViewIsZeroCopy) {
  std::vector<Value> storage = {Value::Int64(1), Value::Int64(2), Value::Int64(3)};
  ColumnVector col;
  col.SetView(storage.data(), storage.size());
  EXPECT_TRUE(col.is_view());
  EXPECT_EQ(col.data(), storage.data());
  EXPECT_EQ(col.at(1).AsInt64(), 2);
}

TEST(ColumnVectorTest, MakeMutableCopiesViewOnce) {
  std::vector<Value> storage = {Value::Int64(1), Value::Int64(2)};
  ColumnVector col;
  col.SetView(storage.data(), storage.size());
  Value* data = col.MakeMutable(2);
  ASSERT_NE(data, storage.data());  // copy-on-write
  data[0] = Value::Int64(99);
  EXPECT_EQ(col.at(0).AsInt64(), 99);
  EXPECT_EQ(storage[0].AsInt64(), 1);  // original untouched
  EXPECT_EQ(col.MakeMutable(2), data);  // already owned: no second copy
}

TEST(ColumnVectorTest, MakeMutableMaterializesAbsentAsNulls) {
  ColumnVector col;
  Value* data = col.MakeMutable(3);
  EXPECT_TRUE(data[0].is_null());
  data[2] = Value::Int64(7);
  EXPECT_TRUE(col.at(0).is_null());
  EXPECT_EQ(col.at(2).AsInt64(), 7);
}

TEST(RowBatchTest, SelectionCompressesVisibleRows) {
  RowBatch batch;
  batch.Reset(1, 5);
  std::vector<Value> vals;
  for (int i = 0; i < 5; ++i) vals.push_back(Value::Int64(i));
  batch.column(0).SetOwned(std::move(vals));
  EXPECT_EQ(batch.size(), 5u);

  batch.SetSelection({1, 3});
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ValueAt(0, 0).AsInt64(), 1);
  EXPECT_EQ(batch.ValueAt(0, 1).AsInt64(), 3);

  batch.TruncateSelection(1);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.ValueAt(0, 0).AsInt64(), 1);
}

TEST(RowBatchTest, TruncateWithoutSelectionCreatesPrefix) {
  RowBatch batch;
  batch.Reset(1, 4);
  batch.TruncateSelection(2);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.row_index(1), 1u);
}

TEST(RowBatchTest, FilterAllPassCreatesNoSelection) {
  RowBatch batch;
  batch.Reset(1, 4);
  std::vector<Value> vals;
  for (int i = 0; i < 4; ++i) vals.push_back(Value::Int64(i));
  batch.column(0).SetOwned(std::move(vals));
  Row scratch;
  size_t dropped = batch.FilterSelected([](const Row&) { return true; }, &scratch);
  EXPECT_EQ(dropped, 0u);
  EXPECT_FALSE(batch.has_selection());  // pass-through fast path
}

TEST(RowBatchTest, FilterDropsAndCompressesExistingSelection) {
  RowBatch batch;
  batch.Reset(1, 6);
  std::vector<Value> vals;
  for (int i = 0; i < 6; ++i) vals.push_back(Value::Int64(i));
  batch.column(0).SetOwned(std::move(vals));
  Row scratch;
  auto even = [](const Row& row) { return row[0].AsInt64() % 2 == 0; };
  EXPECT_EQ(batch.FilterSelected(even, &scratch), 3u);
  ASSERT_EQ(batch.size(), 3u);
  // Second filter compresses the existing selection in place.
  auto small = [](const Row& row) { return row[0].AsInt64() < 4; };
  EXPECT_EQ(batch.FilterSelected(small, &scratch), 1u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ValueAt(0, 0).AsInt64(), 0);
  EXPECT_EQ(batch.ValueAt(0, 1).AsInt64(), 2);
}

TEST(RowBatchTest, ContiguousRecordIdsFollowSelection) {
  RowBatch batch;
  batch.Reset(1, 4);
  batch.SetContiguousRecordIds(100);
  batch.SetSelection({0, 2, 3});
  EXPECT_EQ(batch.record_id(0), 100u);
  EXPECT_EQ(batch.record_id(1), 102u);
  EXPECT_EQ(batch.record_id(2), 103u);
}

TEST(RowBatchTest, MaterializeRowIsFullWidthWithAbsentNull) {
  RowBatch batch;
  batch.Reset(3, 2);
  std::vector<Value> vals = {Value::Int64(5), Value::Int64(6)};
  batch.column(1).SetOwned(std::move(vals));
  Row row;
  batch.MaterializeRow(1, &row);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_TRUE(row[0].is_null());
  EXPECT_EQ(row[1].AsInt64(), 6);
  EXPECT_TRUE(row[2].is_null());
}

// --- batch scan pipeline over a DualTable ------------------------------------------

class BatchScanTest : public ::testing::Test {
 protected:
  void Open(size_t stripe_rows, size_t batch_rows) {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = dual::MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
    cluster_ = std::make_unique<fs::ClusterModel>();

    dual::DualTableOptions options;
    options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
    options.writer_options.stripe_rows = stripe_rows;
    options.scan_batch_rows = batch_rows;
    auto t = dual::DualTable::Open(
        fs_.get(), metadata_.get(), cluster_.get(), "b",
        Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}), options);
    ASSERT_TRUE(t.ok());
    table_ = *t;
  }

  void InsertSequential(int n) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) rows.push_back({Value::Int64(i), Value::Int64(i * 10)});
    ASSERT_TRUE(table_->InsertRows(rows).ok());
  }

  /// Drains Scan (batch path by default) into (record_id, row) pairs.
  static std::vector<std::pair<uint64_t, Row>> Drain(RowIterator* it) {
    std::vector<std::pair<uint64_t, Row>> out;
    while (it->Next()) out.emplace_back(it->record_id(), it->row());
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    return out;
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<dual::MetadataTable> metadata_;
  std::unique_ptr<fs::ClusterModel> cluster_;
  std::shared_ptr<dual::DualTable> table_;
};

TEST_F(BatchScanTest, EmptyTableYieldsNoBatches) {
  Open(8, 4);
  auto batches = table_->ScanBatches(ScanSpec{});
  ASSERT_TRUE(batches.ok());
  RowBatch batch;
  EXPECT_FALSE((*batches)->Next(&batch));
  EXPECT_TRUE((*batches)->status().ok());

  auto rows = CollectRows(table_.get(), ScanSpec{});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(BatchScanTest, BatchBoundaryExactlyAtStripeEdge) {
  Open(/*stripe_rows=*/8, /*batch_rows=*/8);
  InsertSequential(24);  // exactly 3 stripes, batch == stripe
  auto batches = table_->ScanBatches(ScanSpec{});
  ASSERT_TRUE(batches.ok());
  RowBatch batch;
  int count = 0;
  uint64_t next_expected_value = 0;
  while ((*batches)->Next(&batch)) {
    EXPECT_EQ(batch.size(), 8u);
    EXPECT_TRUE(batch.contiguous_record_ids());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.ValueAt(0, i).AsInt64(),
                static_cast<int64_t>(next_expected_value++));
    }
    ++count;
  }
  EXPECT_TRUE((*batches)->status().ok());
  EXPECT_EQ(count, 3);
  EXPECT_EQ(next_expected_value, 24u);
}

TEST_F(BatchScanTest, BatchSmallerThanStripeCoversAllRows) {
  Open(/*stripe_rows=*/10, /*batch_rows=*/3);  // 10 % 3 != 0: ragged tail per stripe
  InsertSequential(25);
  auto rows = CollectRows(table_.get(), ScanSpec{});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 25u);
  for (int i = 0; i < 25; ++i) EXPECT_EQ((*rows)[i][0].AsInt64(), i);
}

TEST_F(BatchScanTest, ProjectionOnlyScanLeavesOtherColumnsNull) {
  Open(8, 4);
  InsertSequential(10);
  ScanSpec narrow;
  narrow.projection = {1};
  auto rows = CollectRows(table_.get(), narrow);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*rows)[i][0].is_null());
    EXPECT_EQ((*rows)[i][1].AsInt64(), i * 10);
  }
}

TEST_F(BatchScanTest, FullyDeletedBatchIsSkippedNotEmitted) {
  Open(/*stripe_rows=*/8, /*batch_rows=*/4);
  InsertSequential(12);
  // Delete physical rows [0, 4): exactly the first batch.
  const uint64_t file_id = table_->master()->files()[0].file_id;
  for (uint64_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(table_->attached()->PutDeleteMarker(dual::MakeRecordId(file_id, r)).ok());
  }
  table_->PublishEditCommit();
  auto batches = table_->ScanBatches(ScanSpec{});
  ASSERT_TRUE(batches.ok());
  RowBatch batch;
  size_t total = 0;
  while ((*batches)->Next(&batch)) {
    EXPECT_GT(batch.size(), 0u);  // contract: no empty batches emitted
    total += batch.size();
  }
  EXPECT_TRUE((*batches)->status().ok());
  EXPECT_EQ(total, 8u);
  EXPECT_EQ(*table_->CountRows(), 8u);
}

TEST_F(BatchScanTest, BatchPathMatchesModelOfInsertsAndPuts) {
  Open(/*stripe_rows=*/10, /*batch_rows=*/4);  // misaligned on purpose
  InsertSequential(57);
  InsertSequential(13);  // second master file
  const auto& files = table_->master()->files();
  ASSERT_EQ(files.size(), 2u);
  // The expected view, built from the inserts and puts alone: record ID ->
  // row, in record-ID (= scan) order.
  std::map<uint64_t, Row> model;
  for (int i = 0; i < 57; ++i) {
    model[dual::MakeRecordId(files[0].file_id, i)] = {Value::Int64(i), Value::Int64(i * 10)};
  }
  for (int i = 0; i < 13; ++i) {
    model[dual::MakeRecordId(files[1].file_id, i)] = {Value::Int64(i), Value::Int64(i * 10)};
  }
  // Mixed modifications: updates, deletes, update-after-delete.
  auto* att = table_->attached();
  auto put_update = [&](uint64_t rid, uint32_t column, int64_t v) {
    ASSERT_TRUE(att->PutUpdate(rid, column, Value::Int64(v)).ok());
    if (model.count(rid) > 0) model[rid][column] = Value::Int64(v);
  };
  auto put_delete = [&](uint64_t rid) {
    ASSERT_TRUE(att->PutDeleteMarker(rid).ok());
    model.erase(rid);
  };
  put_update(dual::MakeRecordId(files[0].file_id, 3), 1, -1);
  put_update(dual::MakeRecordId(files[0].file_id, 39), 0, 1000);
  put_delete(dual::MakeRecordId(files[0].file_id, 40));
  put_delete(dual::MakeRecordId(files[1].file_id, 0));
  put_delete(dual::MakeRecordId(files[1].file_id, 5));
  put_update(dual::MakeRecordId(files[1].file_id, 5), 1, 7);  // stays deleted
  table_->PublishEditCommit();

  ScanSpec spec;
  spec.projection = {0, 1};
  spec.predicate_columns = {0};
  spec.predicate = [](const Row& row) { return row[0].AsInt64() % 3 != 0; };
  std::vector<std::pair<uint64_t, Row>> expected;
  for (const auto& [rid, row] : model) {
    if (spec.predicate(row)) expected.emplace_back(rid, row);
  }

  auto batch_scan = table_->Scan(spec);  // the row view over the batch scan
  ASSERT_TRUE(batch_scan.ok());
  auto batch_rows = Drain(batch_scan->get());
  ASSERT_EQ(expected.size(), batch_rows.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, batch_rows[i].first) << "record id at row " << i;
    ASSERT_EQ(expected[i].second.size(), batch_rows[i].second.size());
    for (size_t c = 0; c < expected[i].second.size(); ++c) {
      EXPECT_EQ(expected[i].second[c].Compare(batch_rows[i].second[c]), 0)
          << "row " << i << " col " << c;
    }
  }
}

TEST_F(BatchScanTest, MasterPredicateEmitsFullPassBatchesAndSkipsAllDropped) {
  Open(/*stripe_rows=*/4, /*batch_rows=*/4);
  InsertSequential(16);
  ScanSpec spec;
  spec.predicate_columns = {0};
  spec.predicate = [](const Row& row) { return row[0].AsInt64() < 8; };
  // apply_predicate=true is the Hive(HDFS) batch-scan configuration: the
  // master iterator filters itself instead of deferring to UNION READ.
  auto it = table_->master()->NewBatchScanIterator(spec, /*apply_predicate=*/true,
                                                   /*batch_rows=*/4);
  ASSERT_TRUE(it.ok());
  RowBatch batch;
  int64_t expected = 0;
  while ((*it)->Next(&batch)) {
    ASSERT_GT(batch.size(), 0u);  // all-dropped batches must be skipped
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.ValueAt(0, i).AsInt64(), expected++);
    }
  }
  EXPECT_TRUE((*it)->status().ok());
  EXPECT_EQ(expected, 8);  // the two fully-passing batches were emitted intact
}

TEST_F(BatchScanTest, PassthroughBatchesAreMeteredOnUnmodifiedTable) {
  Open(8, 4);
  InsertSequential(16);
  const ScanSnapshot before = GlobalScanMeter().Snapshot();
  auto rows = CollectRows(table_.get(), ScanSpec{});
  ASSERT_TRUE(rows.ok());
  const ScanSnapshot delta = GlobalScanMeter().Snapshot() - before;
  EXPECT_EQ(delta.rows, 16u);
  EXPECT_EQ(delta.batches, 4u);  // 2 stripes x 2 batches each
  EXPECT_EQ(delta.passthrough_batches, 4u);  // empty attached: all pass through
  EXPECT_EQ(delta.masked_rows, 0u);
  EXPECT_EQ(delta.patched_rows, 0u);
}

}  // namespace
}  // namespace dtl::table
