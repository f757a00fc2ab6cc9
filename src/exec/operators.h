// Batch-at-a-time relational operators used by the SQL executor. There is
// one operator interface, BatchOperator (a table::BatchIterator), so a
// storage scan is the leaf of a pipeline as is and every operator above it
// pulls RowBatches: filter, project and limit work on the selection vector
// or on column views; hash join, hash aggregate and sort evaluate their
// bound expressions on one reused scratch row per visible row and emit
// owned-column batches. Rows materialize once, at the result boundary
// (CollectBatches). Value extraction is injected as std::functions, so this
// layer does not depend on the SQL expression representation.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "table/row_batch.h"
#include "table/scan_stats.h"
#include "table/storage_table.h"

namespace dtl::exec {

/// Batch pull operator: same contract as table::BatchIterator — producers
/// fill the caller's RowBatch, never emit an empty batch, and the contents
/// stay valid until the next call. Operators are schema-free: columns are
/// positional and the planner tracks their meaning.
using BatchOperator = table::BatchIterator;

/// Extracts a value from a full-width row (compiled expression).
using ValueFn = std::function<Value(const Row&)>;

/// Hash and equality of a row of key values (join keys, group keys, MERGE
/// keys). Equality is Value::Compare; a NULL equals a NULL here, so callers
/// that need SQL join semantics skip NULL keys themselves.
struct RowKeyHash {
  size_t operator()(const Row& key) const;
};
struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const;
};

/// Base of the operators that compute their whole output before emitting
/// any of it (sort, aggregate, deferred rows): the first Next() calls
/// Materialize() once, then the rows leave as owned-column batches of at
/// most table::kDefaultBatchRows rows.
class MaterializingOperator : public BatchOperator {
 public:
  bool Next(table::RowBatch* batch) final;
  const Status& status() const final { return status_; }

 protected:
  /// The operator's complete output, all rows the same width.
  virtual Result<std::vector<Row>> Materialize() = 0;

 private:
  bool materialized_ = false;
  std::vector<Row> rows_;
  size_t next_ = 0;
  Status status_;
};

/// Emits the rows `produce` returns, computed on the first Next() (so a
/// traced pipeline charges the work to this step): an index lookup's
/// matches, a parallel aggregate's row.
class DeferredRowsOperator : public MaterializingOperator {
 public:
  explicit DeferredRowsOperator(std::function<Result<std::vector<Row>>()> produce)
      : produce_(std::move(produce)) {}

 protected:
  Result<std::vector<Row>> Materialize() override { return produce_(); }

 private:
  std::function<Result<std::vector<Row>>()> produce_;
};

/// Keeps the visible rows that pass `pred` by narrowing each batch's
/// selection (RowBatch::FilterSelected, the call the scan's pushed
/// predicate uses); batches left empty are skipped.
class BatchFilterOperator : public BatchOperator {
 public:
  BatchFilterOperator(std::unique_ptr<BatchOperator> child, table::RowPredicateFn pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}
  bool Next(table::RowBatch* batch) override;
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<BatchOperator> child_;
  table::RowPredicateFn pred_;
  Row scratch_;
  /// Residual-filter drops are not scan predicate drops; they stay here
  /// instead of reaching the session or global scan meter.
  table::ScanMeter drops_;
};

/// Hash equi-join; output row = probe row ++ build row. The build side is
/// fully materialized (Hive's map join). Supports INNER and LEFT OUTER
/// (probe side preserved, build columns NULL). NULL keys never match.
/// Output batches hold at most table::kDefaultBatchRows rows.
class HashJoinOperator : public BatchOperator {
 public:
  enum class Kind { kInner, kLeftOuter };

  HashJoinOperator(std::unique_ptr<BatchOperator> probe,
                   std::unique_ptr<BatchOperator> build, std::vector<ValueFn> probe_keys,
                   std::vector<ValueFn> build_keys, size_t build_width, Kind kind);

  bool Next(table::RowBatch* batch) override;
  const Status& status() const override { return status_; }

 private:
  Status BuildTable();
  /// Evaluates `fns` on `row` into key_; false when a key is NULL.
  bool MakeKey(const Row& row, const std::vector<ValueFn>& fns);

  std::unique_ptr<BatchOperator> probe_;
  std::unique_ptr<BatchOperator> build_;
  std::vector<ValueFn> probe_keys_;
  std::vector<ValueFn> build_keys_;
  size_t build_width_;
  Kind kind_;

  bool built_ = false;
  std::unordered_map<Row, std::vector<Row>, RowKeyHash, RowKeyEq> hash_;
  table::RowBatch in_;     // current probe batch
  size_t next_probe_ = 0;  // next visible row of in_ to probe
  Row scratch_;            // the probe row being joined
  /// Build rows matching scratch_ and the next one to emit; null when the
  /// probe row is done.
  const std::vector<Row>* matches_ = nullptr;
  size_t match_index_ = 0;
  Row key_;
  std::vector<std::vector<Value>> cols_;
  Status status_;
};

/// Aggregate function kinds supported by HashAggregateOperator.
enum class AggKind { kCount, kCountStar, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  ValueFn input;  // unused for kCountStar
};

/// Mergeable accumulator for one aggregate call. HashAggregateOperator keeps
/// one per (group, agg); a parallel scan keeps one per (worker, agg) and
/// folds the partials together with Merge at the barrier — Update + Merge +
/// Finalize reproduce serial SQL semantics exactly (NULL inputs skipped,
/// SUM's int64 arithmetic unless a double ever appears, SUM/AVG of zero
/// inputs = NULL, COUNT(*) counts rows).
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_double = false;
  int64_t isum = 0;
  Value min;
  Value max;
  bool seen = false;

  /// Folds one input row in. InvalidArgument on SUM/AVG over non-numerics.
  [[nodiscard]] Status Update(const AggSpec& spec, const Row& in);

  /// Folds another partial state for the same aggregate kind in. Merge order
  /// does not affect any Finalize result.
  void Merge(AggKind kind, const AggState& other);

  /// The aggregate's SQL result value.
  Value Finalize(AggKind kind) const;
};

/// Hash GROUP BY; output row = group keys ++ aggregate results, groups in
/// key order. With no group keys produces exactly one global-aggregate row
/// (even on empty input, matching SQL semantics).
class HashAggregateOperator : public MaterializingOperator {
 public:
  HashAggregateOperator(std::unique_ptr<BatchOperator> child,
                        std::vector<ValueFn> group_keys, std::vector<AggSpec> aggs)
      : child_(std::move(child)),
        group_keys_(std::move(group_keys)),
        aggs_(std::move(aggs)) {}

 protected:
  Result<std::vector<Row>> Materialize() override;

 private:
  std::unique_ptr<BatchOperator> child_;
  std::vector<ValueFn> group_keys_;
  std::vector<AggSpec> aggs_;
};

/// Full stable sort (ORDER BY). Comparators applied in order; `ascending[i]`
/// pairs with `keys[i]`.
class SortOperator : public MaterializingOperator {
 public:
  SortOperator(std::unique_ptr<BatchOperator> child, std::vector<ValueFn> keys,
               std::vector<bool> ascending)
      : child_(std::move(child)),
        keys_(std::move(keys)),
        ascending_(std::move(ascending)) {}

 protected:
  Result<std::vector<Row>> Materialize() override;

 private:
  std::unique_ptr<BatchOperator> child_;
  std::vector<ValueFn> keys_;
  std::vector<bool> ascending_;
};

/// Vectorized projection. When every output is a plain column reference
/// (`column_refs[i] >= 0` for all i) the output batch is zero-copy views of
/// the input columns with the selection forwarded; otherwise each visible
/// row is materialized once into a scratch row and the expressions evaluated
/// per row. Output batches carry no record IDs (projection derives new rows).
class BatchProjectOperator : public BatchOperator {
 public:
  /// `column_refs[i]` is the input ordinal when `exprs[i]` is a bare column
  /// reference, -1 otherwise. Must be the same length as `exprs`.
  BatchProjectOperator(std::unique_ptr<BatchOperator> child, std::vector<ValueFn> exprs,
                       std::vector<int> column_refs);
  bool Next(table::RowBatch* batch) override;
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<BatchOperator> child_;
  std::vector<ValueFn> exprs_;
  std::vector<int> column_refs_;
  bool all_refs_;
  table::RowBatch in_;
  Row scratch_;
  std::vector<std::vector<Value>> cols_;
};

/// Vectorized LIMIT: truncates the selection of the batch that crosses the
/// limit instead of counting rows one at a time.
class BatchLimitOperator : public BatchOperator {
 public:
  BatchLimitOperator(std::unique_ptr<BatchOperator> child, uint64_t limit)
      : child_(std::move(child)), remaining_(limit) {}
  bool Next(table::RowBatch* batch) override {
    if (remaining_ == 0) return false;
    if (!child_->Next(batch)) return false;
    if (batch->size() > remaining_) batch->TruncateSelection(static_cast<size_t>(remaining_));
    remaining_ -= batch->size();
    return true;
  }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<BatchOperator> child_;
  uint64_t remaining_;
};

/// Drains a batch operator tree into rows: the QueryResult boundary.
Result<std::vector<Row>> CollectBatches(BatchOperator* op);

}  // namespace dtl::exec
