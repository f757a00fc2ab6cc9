#include <gtest/gtest.h>

#include <algorithm>

#include "exec/operators.h"

namespace dtl::exec {
namespace {

/// Test-local batch source: emits `rows` as owned-column batches of
/// `batch_rows` rows. With `pred`, failing rows stay in place behind a
/// selection vector (as a storage scan's pushed predicate leaves them) and
/// batches with no survivors are skipped.
class VectorBatchSource : public BatchOperator {
 public:
  VectorBatchSource(std::vector<Row> rows, size_t batch_rows,
                    table::RowPredicateFn pred = nullptr)
      : rows_(std::move(rows)), batch_rows_(batch_rows), pred_(std::move(pred)) {}
  bool Next(table::RowBatch* batch) override {
    while (next_ < rows_.size()) {
      const size_t n = std::min(batch_rows_, rows_.size() - next_);
      const size_t width = rows_[next_].size();
      batch->Reset(width, n);
      for (size_t c = 0; c < width; ++c) {
        std::vector<Value> column;
        for (size_t r = next_; r < next_ + n; ++r) column.push_back(rows_[r][c]);
        batch->column(c).SetOwned(std::move(column));
      }
      next_ += n;
      if (pred_) batch->FilterSelected(pred_, &scratch_, &meter_);
      if (!batch->empty()) return true;
    }
    return false;
  }
  const Status& status() const override { return status_; }

 private:
  std::vector<Row> rows_;
  size_t batch_rows_;
  table::RowPredicateFn pred_;
  size_t next_ = 0;
  Row scratch_;
  table::ScanMeter meter_;
  Status status_;
};

/// Two-row batches, so every operator sees several input batches.
std::unique_ptr<BatchOperator> Source(std::vector<Row> rows) {
  return std::make_unique<VectorBatchSource>(std::move(rows), 2);
}

/// Child operator that fails immediately with an error status.
class FailingSource : public BatchOperator {
 public:
  bool Next(table::RowBatch*) override {
    status_ = Status::Internal("child exploded");
    return false;
  }
  const Status& status() const override { return status_; }

 private:
  Status status_;
};

Row R(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Int64(v));
  return row;
}

ValueFn Col(size_t i) {
  return [i](const Row& row) { return row[i]; };
}

TEST(OperatorTest, FilterKeepsMatches) {
  BatchFilterOperator plan(Source({R({1}), R({2}), R({3}), R({4}), R({5})}),
                           [](const Row& row) { return row[0].AsInt64() % 2 == 0; });
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 2);
  EXPECT_EQ((*rows)[1][0].AsInt64(), 4);
}

TEST(OperatorTest, ProjectComputes) {
  BatchProjectOperator plan(Source({R({3, 4})}),
                            std::vector<ValueFn>{[](const Row& row) {
                              return Value::Int64(row[0].AsInt64() + row[1].AsInt64());
                            }},
                            std::vector<int>{-1});
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 7);
}

TEST(OperatorTest, InnerHashJoinMatchesKeys) {
  HashJoinOperator plan(Source({R({1, 10}), R({2, 20}), R({3, 30})}),
                        Source({R({2, 200}), R({3, 300}), R({3, 301}), R({9, 900})}),
                        std::vector<ValueFn>{Col(0)}, std::vector<ValueFn>{Col(0)}, 2,
                        HashJoinOperator::Kind::kInner);
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);  // key2 ×1, key3 ×2
  for (const Row& row : *rows) {
    EXPECT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].AsInt64(), row[2].AsInt64());
  }
  // Probe order, then build order within a key.
  EXPECT_EQ((*rows)[1][3].AsInt64(), 300);
  EXPECT_EQ((*rows)[2][3].AsInt64(), 301);
}

TEST(OperatorTest, LeftOuterJoinPreservesProbeRows) {
  HashJoinOperator plan(Source({R({1}), R({2})}), Source({R({2, 200})}),
                        std::vector<ValueFn>{Col(0)}, std::vector<ValueFn>{Col(0)}, 2,
                        HashJoinOperator::Kind::kLeftOuter);
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // Unmatched probe row gets NULL build columns.
  EXPECT_TRUE((*rows)[0][1].is_null());
  EXPECT_TRUE((*rows)[0][2].is_null());
  EXPECT_EQ((*rows)[1][2].AsInt64(), 200);
}

TEST(OperatorTest, JoinNullKeysNeverMatch) {
  std::vector<Row> probe_rows = {{Value::Null(), Value::Int64(1)}};
  std::vector<Row> build_rows = {{Value::Null(), Value::Int64(2)}};
  HashJoinOperator plan(Source(probe_rows), Source(build_rows),
                        std::vector<ValueFn>{Col(0)}, std::vector<ValueFn>{Col(0)}, 2,
                        HashJoinOperator::Kind::kInner);
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(OperatorTest, JoinFanOutSpansSeveralOutputBatches) {
  // One probe row matching more build rows than fit in one batch, behind a
  // probe selection: every match is emitted once, in build order.
  const size_t matches = table::kDefaultBatchRows + 10;
  std::vector<Row> build;
  for (size_t i = 0; i < matches; ++i) build.push_back(R({7, static_cast<int64_t>(i)}));
  HashJoinOperator plan(
      std::make_unique<VectorBatchSource>(
          std::vector<Row>{R({6, 0}), R({7, 1}), R({7, 2})}, 3,
          [](const Row& row) { return row[1].AsInt64() != 1; }),
      std::make_unique<VectorBatchSource>(std::move(build), 100),
      std::vector<ValueFn>{Col(0)}, std::vector<ValueFn>{Col(0)}, 2,
      HashJoinOperator::Kind::kInner);
  table::RowBatch batch;
  size_t batches = 0;
  size_t total = 0;
  while (plan.Next(&batch)) {
    ++batches;
    for (size_t i = 0; i < batch.size(); ++i, ++total) {
      EXPECT_EQ(batch.ValueAt(1, i).AsInt64(), 2);  // the probe row that survived
      EXPECT_EQ(batch.ValueAt(3, i).AsInt64(), static_cast<int64_t>(total));
    }
  }
  ASSERT_TRUE(plan.status().ok());
  EXPECT_EQ(total, matches);
  EXPECT_GE(batches, 2u);
}

TEST(OperatorTest, AggregateGroupsAndComputes) {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, Col(1)});
  aggs.push_back(AggSpec{AggKind::kCountStar, nullptr});
  aggs.push_back(AggSpec{AggKind::kMax, Col(1)});
  HashAggregateOperator plan(Source({R({2, 5}), R({1, 10}), R({1, 20})}),
                             std::vector<ValueFn>{Col(0)}, std::move(aggs));
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // Groups come out in key order.
  EXPECT_EQ((*rows)[0][0].AsInt64(), 1);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 30);
  EXPECT_EQ((*rows)[0][2].AsInt64(), 2);
  EXPECT_EQ((*rows)[0][3].AsInt64(), 20);
  EXPECT_EQ((*rows)[1][0].AsInt64(), 2);
}

TEST(OperatorTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kCountStar, nullptr});
  aggs.push_back(AggSpec{AggKind::kSum, Col(0)});
  HashAggregateOperator plan(Source({}), std::vector<ValueFn>{}, std::move(aggs));
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 0);
  EXPECT_TRUE((*rows)[0][1].is_null());  // SUM of nothing is NULL
}

TEST(OperatorTest, AggregatesSkipNulls) {
  std::vector<Row> input = {{Value::Int64(5)}, {Value::Null()}, {Value::Int64(15)}};
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kAvg, Col(0)});
  aggs.push_back(AggSpec{AggKind::kCount, Col(0)});
  HashAggregateOperator plan(Source(input), std::vector<ValueFn>{}, std::move(aggs));
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ((*rows)[0][0].AsDouble(), 10.0);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 2);
}

TEST(OperatorTest, SortAscendingDescending) {
  SortOperator plan(Source({R({3, 1}), R({1, 2}), R({2, 3})}),
                    std::vector<ValueFn>{Col(0)}, std::vector<bool>{false});
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 3);
  EXPECT_EQ((*rows)[2][0].AsInt64(), 1);

  SortOperator ascending(Source({R({3, 1}), R({1, 2}), R({2, 3})}),
                         std::vector<ValueFn>{Col(0)}, std::vector<bool>{true});
  rows = CollectBatches(&ascending);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].AsInt64(), 1);
  EXPECT_EQ((*rows)[2][0].AsInt64(), 3);
}

TEST(OperatorTest, SortIsStable) {
  SortOperator plan(Source({R({2, 0}), R({1, 1}), R({2, 2}), R({1, 3}), R({2, 4})}),
                    std::vector<ValueFn>{Col(0)}, std::vector<bool>{true});
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  std::vector<int64_t> order;
  for (const Row& row : *rows) order.push_back(row[1].AsInt64());
  EXPECT_EQ(order, (std::vector<int64_t>{1, 3, 0, 2, 4}));
}

TEST(OperatorTest, LimitStopsEarly) {
  BatchLimitOperator plan(Source({R({1}), R({2}), R({3})}), 2);
  auto rows = CollectBatches(&plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(OperatorSafetyTest, CollectOnEmptyOperatorsIsSafe) {
  auto rows = CollectBatches(Source({}).get());
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());

  SortOperator empty_sort(Source({}), {Col(0)}, {true});
  auto sorted = CollectBatches(&empty_sort);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(sorted->empty());
  table::RowBatch batch;
  EXPECT_FALSE(empty_sort.Next(&batch));  // still exhausted on a second pull
}

TEST(OperatorSafetyTest, CollectSurfacesChildStatus) {
  SortOperator sort(std::make_unique<FailingSource>(), {Col(0)}, {true});
  auto rows = CollectBatches(&sort);
  EXPECT_FALSE(rows.ok());
  EXPECT_FALSE(sort.status().ok());

  HashJoinOperator join(Source({R({1})}), std::make_unique<FailingSource>(), {Col(0)},
                        {Col(0)}, 1, HashJoinOperator::Kind::kInner);
  EXPECT_FALSE(CollectBatches(&join).ok());
}

TEST(BatchOperatorTest, FilterProjectLimitPipeline) {
  // Filtered batches -> vectorized project/limit -> rows.
  std::vector<Row> input;
  for (int i = 0; i < 20; ++i) input.push_back(R({i, i * 2}));
  std::unique_ptr<BatchOperator> plan = std::make_unique<VectorBatchSource>(
      std::move(input), 6, [](const Row& row) { return row[0].AsInt64() % 2 == 0; });
  plan = std::make_unique<BatchProjectOperator>(
      std::move(plan),
      std::vector<ValueFn>{Col(1), [](const Row& row) {
                             return Value::Int64(row[0].AsInt64() + 100);
                           }},
      std::vector<int>{1, -1});
  plan = std::make_unique<BatchLimitOperator>(std::move(plan), 4);
  auto out = CollectBatches(plan.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*out)[i][0].AsInt64(), static_cast<int64_t>(i * 4));    // col 1 of even rows
    EXPECT_EQ((*out)[i][1].AsInt64(), static_cast<int64_t>(i * 2 + 100));
  }
}

TEST(BatchOperatorTest, ZeroCopyProjectionForwardsSelection) {
  std::vector<Row> input;
  for (int i = 0; i < 8; ++i) input.push_back(R({i, i * 3}));
  std::unique_ptr<BatchOperator> plan = std::make_unique<VectorBatchSource>(
      std::move(input), 8, [](const Row& row) { return row[0].AsInt64() >= 4; });
  // Pure column refs: projection must not copy cells.
  plan = std::make_unique<BatchProjectOperator>(std::move(plan),
                                                std::vector<ValueFn>{Col(1), Col(0)},
                                                std::vector<int>{1, 0});
  auto out = CollectBatches(plan.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  EXPECT_EQ((*out)[0][0].AsInt64(), 12);
  EXPECT_EQ((*out)[0][1].AsInt64(), 4);
  EXPECT_EQ((*out)[3][0].AsInt64(), 21);
  EXPECT_EQ((*out)[3][1].AsInt64(), 7);
}

}  // namespace
}  // namespace dtl::exec
