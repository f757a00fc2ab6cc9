// Scan and DML specifications shared by every storage system (Hive-on-HDFS,
// Hive-on-HBase, Hive ACID, DualTable). The SQL layer compiles statements
// into these; benches and examples may also build them directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"

namespace dtl::table {

class ScanMeter;

/// Inclusive value bounds on one column, used for stripe-level pruning
/// against ORC statistics. A scan may carry several.
struct ColumnBound {
  size_t column = 0;
  std::optional<Value> lower;
  std::optional<Value> upper;
};

/// Row filter evaluated over a full-schema-width row (non-required columns
/// hold NULL). Shared so operators can hold copies cheaply.
using RowPredicateFn = std::function<bool(const Row&)>;

/// What a scan must produce.
struct ScanSpec {
  /// Column ordinals the consumer will read. Empty means every column.
  std::vector<size_t> projection;
  /// Optional residual filter; evaluated on the storage side.
  RowPredicateFn predicate;
  /// Columns the predicate touches (must be materialized even if not
  /// projected).
  std::vector<size_t> predicate_columns;
  /// Stats-prunable bounds implied by the predicate (conjunctive).
  std::vector<ColumnBound> bounds;
  /// Meter the scan reports to; nullptr means the process-global one.
  /// Parallel scans point each worker's spec at a worker-local meter.
  ScanMeter* meter = nullptr;

  /// Ordinals that must be materialized: projection ∪ predicate_columns
  /// (empty means all).
  std::vector<size_t> RequiredColumns(size_t num_fields) const;
};

/// One SET clause: assigns `column` the value computed from the current
/// (full-width) row. Pure function of the row; fails when the value cannot
/// be stored in the column (the statement then writes nothing).
struct Assignment {
  size_t column = 0;
  std::function<Result<Value>(const Row&)> compute;
  /// Columns `compute` reads (must be materialized by the DML scan).
  std::vector<size_t> input_columns;
};

/// Which physical plan a DML statement executed with.
enum class DmlPlan {
  kOverwrite,  // whole-table rewrite (Hive's INSERT OVERWRITE path)
  kEdit,       // delta records into the attached store (DualTable EDIT)
  kInPlace,    // direct record mutation (Hive-on-HBase)
  kDelta,      // new delta file (Hive ACID)
};

const char* DmlPlanName(DmlPlan plan);
/// What the plan does to storage, for EXPLAIN.
const char* DmlPlanDescription(DmlPlan plan);

/// The two DML statements a storage system plans and runs.
enum class DmlKind { kUpdate, kDelete };

/// One UPDATE or DELETE, bound against its table.
struct DmlSpec {
  DmlKind kind = DmlKind::kUpdate;
  /// The WHERE clause: predicate, the columns it reads, stats bounds, meter.
  ScanSpec filter;
  /// The SET clauses (UPDATE only).
  std::vector<Assignment> assignments;

  /// The scan that locates the matching rows: `filter` projected onto the
  /// predicate columns and every SET input (column 0 when both are empty).
  ScanSpec LocateSpec() const;
  /// The SET values for one matched full-width row, in assignment order,
  /// every one computed from the unmodified row.
  Status ComputeSet(const Row& row, std::vector<Value>* values) const;
  /// Applies the statement to one matched full-width row in place. False
  /// for DELETE (drop the row); UPDATE computes every SET value before
  /// assigning any.
  Result<bool> Apply(Row* row) const;
};

/// Where a DML statement's modification ratio came from.
enum class RatioSource { kHint, kHistory, kDefault };
const char* RatioSourceName(RatioSource source);

/// Outcome of a cost-model plan decision, with both plan costs.
struct PlanDecision {
  DmlPlan plan = DmlPlan::kEdit;
  double cost_overwrite_seconds = 0.0;
  double cost_edit_seconds = 0.0;
  /// Cost_OVERWRITE − Cost_EDIT (Eq. 1 / Eq. 2); positive ⇒ EDIT chosen.
  double cost_difference_seconds = 0.0;

  std::string ToString() const;
};

/// What chose a DML plan.
enum class PlanChooser {
  kFixed,      // the storage runs every UPDATE and DELETE with one plan
  kPlanMode,   // forced by the storage's configured plan mode
  kCostModel,  // the cost model's decision at the resolved ratio
};

/// The plan one UPDATE or DELETE takes and why, from StorageTable::PlanDml.
/// Execution runs it and EXPLAIN renders it, so both name the same plan.
struct DmlPlanChoice {
  DmlPlan plan = DmlPlan::kEdit;
  PlanChooser chosen_by = PlanChooser::kFixed;
  /// The resolved ratio, its source and the decision at it (kCostModel).
  double ratio = 0;
  RatioSource ratio_source = RatioSource::kDefault;
  PlanDecision decision;
  /// The ratio where the cost model's decision flips, for storages that
  /// have one; taken in the same critical section as `decision`.
  std::optional<double> crossover_ratio;

  static DmlPlanChoice Fixed(DmlPlan plan);
};

/// Outcome of an UPDATE or DELETE.
struct DmlResult {
  uint64_t rows_matched = 0;
  uint64_t rows_scanned = 0;
  DmlPlan plan = DmlPlan::kOverwrite;
};

}  // namespace dtl::table
