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

/// A pinned, immutable view of one table's committed state (StorageTable::
/// Pin), shared by every read of a statement so all of them see one state.
class PinnedRead {
 public:
  PinnedRead() = default;
  PinnedRead(const PinnedRead&) = delete;
  PinnedRead& operator=(const PinnedRead&) = delete;
  virtual ~PinnedRead() = default;
};
using PinnedReadPtr = std::shared_ptr<const PinnedRead>;

/// One unit of parallel scan work: a contiguous stripe range of one base
/// file. Morsels never split a stripe, so each surviving stripe is decoded by
/// exactly one worker (merged ScanMeter counts match a serial scan).
struct ScanMorsel {
  uint64_t file_id = 0;
  size_t stripe_begin = 0;
  size_t stripe_end = 0;  // exclusive
  /// Record-ID window [first_record_id, end_record_id) covered by the
  /// morsel's stripes; bounds the delta scan per worker.
  uint64_t first_record_id = 0;
  uint64_t end_record_id = 0;
  uint64_t num_rows = 0;  // physical rows in surviving stripes
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

/// What a COMPACT does to storage.
enum class CompactAction {
  kNone,         // nothing to fold: the statement writes nothing
  kRewrite,      // every delta folded into a new generation of base files
  kIncremental,  // only the files dense enough in deltas are rewritten
};
const char* CompactActionName(CompactAction action);

/// Delta density of one stripe of a base file: the fraction of its rows with
/// at least one delta.
struct StripeDensity {
  uint64_t first_row = 0;
  uint64_t rows = 0;
  uint64_t delta_rows = 0;  // rows in [first_row, first_row+rows) with deltas

  double density() const {
    return rows == 0 ? 0.0 : static_cast<double>(delta_rows) / static_cast<double>(rows);
  }
};

/// One base file's rollup in an incremental fold. The file is the swap unit;
/// within a selected file, dirty stripes are re-encoded and clean ones copied.
struct FileCompactionPlan {
  uint64_t file_id = 0;
  uint64_t rows = 0;
  uint64_t delta_rows = 0;
  bool selected = false;  // density() >= the plan threshold
  std::vector<StripeDensity> stripes;

  double density() const {
    return rows == 0 ? 0.0 : static_cast<double>(delta_rows) / static_cast<double>(rows);
  }
};

/// An incremental fold: which files it rewrites and why.
struct IncrementalCompactionPlan {
  double threshold = 0.0;  // density at/above which a file is rewritten
  std::vector<FileCompactionPlan> files;  // ascending file_id
  /// Delta record IDs whose file is not in the pinned view (leftovers of
  /// earlier rewrites); invisible to reads, reclaimed by the fold.
  std::vector<uint64_t> stray_record_ids;

  size_t selected_files() const;
  uint64_t total_delta_rows() const;
  std::string ToString() const;  // EXPLAIN rendering, one line per file
};

/// One COMPACT [INCREMENTAL], from StorageTable::PlanCompact. Execution runs
/// it and EXPLAIN renders it, so both name the same action.
struct CompactPlan {
  CompactAction action = CompactAction::kNone;
  /// What the action does, or why there is nothing to do (EXPLAIN's `plan:`).
  std::string reason;
  /// Incremental plans: each file's density and whether the fold rewrites it.
  IncrementalCompactionPlan fold;
  /// The view the plan was made from (incremental plans); ExecuteCompact
  /// reuses the plan while the table still shows that view.
  PinnedReadPtr pin;
};

/// Outcome of a COMPACT: the action executed and what it did.
struct CompactResult {
  CompactAction action = CompactAction::kNone;
  std::string summary;
};

}  // namespace dtl::table
