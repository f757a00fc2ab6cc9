// The storage-agnostic table interface every system under test implements.
// The SQL executor, the benches, and the examples talk only to this.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "table/row_batch.h"
#include "table/spec.h"

namespace dtl::obs {
class Tracer;
}  // namespace dtl::obs

namespace dtl::table {

/// Pull iterator over scan results in column-major batches — the one scan
/// currency of every storage system. Producers fill the caller's batch (so
/// one batch's storage is reused across the scan) and never emit empty
/// batches.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;

  /// Fills `*batch` with the next non-empty batch. False at end or error
  /// (check status()). The batch contents stay valid until the next call.
  virtual bool Next(RowBatch* batch) = 0;
  virtual const Status& status() const = 0;
};

class ScanMeter;

/// A scan's rows, one at a time: a view over its BatchIterator that
/// materializes one (reused) full-width row per visible batch row. Only the
/// scan's required columns are defined; the others read as NULL unless the
/// storage read them anyway. Each row is charged to `meter` (the
/// process-global scan meter when null) as a materialized row.
class RowIterator {
 public:
  RowIterator(std::unique_ptr<BatchIterator> batches, ScanMeter* meter)
      : batches_(std::move(batches)), meter_(meter) {}

  /// Advances; false at end or error (check status()).
  bool Next();
  const Row& row() const { return row_; }
  /// Record ID of the current row (DualTable's, or the storage's own row
  /// key); 0 for systems without one.
  uint64_t record_id() const { return record_id_; }
  const Status& status() const { return batches_->status(); }

 private:
  std::unique_ptr<BatchIterator> batches_;
  ScanMeter* meter_;
  RowBatch batch_;
  size_t index_ = 0;
  Row row_;
  uint64_t record_id_ = 0;
};

/// The status PlanCompact and ExecuteCompact return on storages without that
/// compaction.
Status UnsupportedCompact(bool incremental);

/// A named table in some storage system.
class StorageTable {
 public:
  virtual ~StorageTable() = default;

  virtual const std::string& name() const = 0;
  virtual const Schema& schema() const = 0;

  /// Pins the committed state every read of one statement shares. Default:
  /// none; the scan, index and morsel calls below then read the latest state.
  virtual PinnedReadPtr Pin() const { return nullptr; }

  /// Sequential scan at `pin` (this table's Pin(), or null for the latest
  /// state) honoring the spec (projection, predicate, pruning). The only
  /// scan every storage system implements.
  virtual Result<std::unique_ptr<BatchIterator>> ScanBatchesAt(const PinnedReadPtr& pin,
                                                               const ScanSpec& spec) = 0;
  /// ScanBatchesAt the latest state.
  Result<std::unique_ptr<BatchIterator>> ScanBatches(const ScanSpec& spec) {
    return ScanBatchesAt(nullptr, spec);
  }
  /// ScanBatchesAt's rows, one at a time.
  Result<std::unique_ptr<RowIterator>> ScanAt(const PinnedReadPtr& pin,
                                              const ScanSpec& spec);
  /// ScanAt the latest state.
  Result<std::unique_ptr<RowIterator>> Scan(const ScanSpec& spec) {
    return ScanAt(nullptr, spec);
  }

  /// Splits a scan at `pin` into morsels for parallel workers, covering
  /// exactly what a serial scan reads. Default: one morsel, the whole table.
  virtual Result<std::vector<ScanMorsel>> PlanScanMorselsAt(const PinnedReadPtr& pin,
                                                            const ScanSpec& spec,
                                                            size_t stripes_per_morsel);
  /// Scans one morsel of PlanScanMorselsAt(pin, ...) into `meter` (a worker's
  /// own; null for the global meter). Default: ScanBatchesAt(pin, spec).
  virtual Result<std::unique_ptr<BatchIterator>> ScanMorselAt(const PinnedReadPtr& pin,
                                                              const ScanMorsel& morsel,
                                                              const ScanSpec& spec,
                                                              ScanMeter* meter);

  /// True when IndexLookupAt answers equality probes on `column`. Default:
  /// no column is indexed.
  virtual bool IndexesColumn(size_t column) const;
  /// The rows at `pin` whose `column` equals one of `probes` and that pass
  /// spec.predicate, as (record ID, row) pairs in scan order — what a scan
  /// with `WHERE column IN (probes)` returns. Default: NotSupported.
  virtual Result<std::vector<std::pair<uint64_t, Row>>> IndexLookupAt(
      const PinnedReadPtr& pin, size_t column, const std::vector<Value>& probes,
      const ScanSpec& spec);

  /// Appends rows (INSERT INTO / LOAD).
  virtual Status InsertRows(const std::vector<Row>& rows) = 0;

  /// Replaces the table's entire contents (INSERT OVERWRITE TABLE).
  virtual Status OverwriteRows(const std::vector<Row>& rows) = 0;

  /// Plans one UPDATE or DELETE: the plan ExecuteDml will run and what
  /// chose it (the storage's fixed plan, its plan mode or its cost model at
  /// the hinted or resolved ratio). Takes no writer lock; EXPLAIN renders
  /// the same choice execution runs.
  virtual DmlPlanChoice PlanDml(DmlKind kind,
                                std::optional<double> ratio_hint) const = 0;

  /// Runs a planned UPDATE or DELETE. A failing SET value fails the
  /// statement before the table changes (rewrites stage their files until
  /// the final publish). InvalidArgument for a plan this storage cannot run.
  virtual Result<DmlResult> ExecuteDml(const DmlSpec& spec,
                                       const DmlPlanChoice& choice) = 0;

  /// UPDATE <table> SET <assignments> WHERE <filter>: PlanDml, then
  /// ExecuteDml. `ratio_hint` is the WITH RATIO hint.
  Result<DmlResult> Update(const ScanSpec& filter,
                           const std::vector<Assignment>& assignments,
                           std::optional<double> ratio_hint = std::nullopt);

  /// DELETE FROM <table> WHERE <filter>: PlanDml, then ExecuteDml.
  Result<DmlResult> Delete(const ScanSpec& filter,
                           std::optional<double> ratio_hint = std::nullopt);

  /// Plans one COMPACT [INCREMENTAL]: nothing to do, a full rewrite or an
  /// incremental fold, and why. Takes no writer lock and writes nothing.
  /// Default: NotSupported (UnsupportedCompact).
  virtual Result<CompactPlan> PlanCompact(bool incremental) const {
    return UnsupportedCompact(incremental);
  }
  /// Runs a planned COMPACT; the result names the action it executed (a
  /// writer may have changed the table since the plan). `tracer` (optional)
  /// receives the storage's compaction spans. Default: NotSupported.
  virtual Result<CompactResult> ExecuteCompact(const CompactPlan& plan,
                                               obs::Tracer* tracer = nullptr);

  /// Total number of live rows (post-merge view).
  Result<uint64_t> CountRows();

  /// Removes all backing storage.
  virtual Status Drop() = 0;
};

/// The status an executor returns for a DML plan it cannot run.
Status UnsupportedDmlPlan(const std::string& table, DmlPlan plan);

/// Drains a scan into memory (tests/examples; not for big tables).
Result<std::vector<Row>> CollectRows(StorageTable* table, const ScanSpec& spec);

/// Drains a statement-internal scan (a DML locate, a COMPACT rewrite) of
/// `table` into `consume`, row by row with its record ID. Rows and bytes go
/// to a statement-local meter; only its pruning counters reach spec.meter or
/// the global meter, so the statement's caller meters its own scan.
Status ScanInternalRows(StorageTable* table, const ScanSpec& spec,
                        const std::function<Status(uint64_t, const Row&)>& consume);

}  // namespace dtl::table
