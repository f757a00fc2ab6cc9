#include "dualtable/dual_table.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/stopwatch.h"
#include "dualtable/record_id.h"
#include "obs/cost_audit.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/telemetry_clock.h"
#include "obs/trace.h"

namespace dtl::dual {

std::string IncrementalCompactStats::ToString() const {
  std::ostringstream out;
  out << "rewrote " << files_selected << "/" << files_total << " files ("
      << stripes_rewritten << " stripes re-encoded, " << stripes_copied
      << " copied, " << rows_rewritten << " rows, " << mods_folded
      << " mods folded)";
  return out.str();
}

Result<std::shared_ptr<DualTable>> DualTable::Open(fs::SimFileSystem* fs,
                                                   MetadataTable* metadata,
                                                   const fs::ClusterModel* cluster,
                                                   const std::string& name, Schema schema,
                                                   DualTableOptions options) {
  auto dual = std::shared_ptr<DualTable>(
      new DualTable(fs, metadata, name, schema, std::move(options), cluster));
  DTL_ASSIGN_OR_RETURN(dual->master_,
                       MasterTable::Open(fs, metadata, name, std::move(schema),
                                         dual->options_.warehouse_dir,
                                         dual->options_.writer_options,
                                         dual->options_.stripe_cache));
  DTL_ASSIGN_OR_RETURN(dual->attached_,
                       AttachedTable::Open(fs, name, dual->options_.attached_options));
  // Everything recovered from the WAL was acknowledged before the crash, so
  // the initial commit timestamp is the recovered clock.
  dual->commit_ts_ = dual->attached_->LastTimestamp();
  if (!dual->options_.indexed_columns.empty()) {
    DTL_ASSIGN_OR_RETURN(
        dual->index_,
        SecondaryIndex::Open(fs, name, dual->options_.indexed_columns, dual->schema_,
                             dual->options_.attached_options));
    // Bind before the recovery check so an Open-time rebuild is counted.
    dual->index_->BindMetrics(dual->options_.metrics, name);
    // Recovery: a crash between a table commit and its index meta write
    // leaves a detectably stale index; rebuild it before serving lookups.
    DTL_RETURN_NOT_OK(dual->EnsureIndexFresh());
    dual->index_commit_ts_ = dual->index_->LastTimestamp();
  }
  if (dual->options_.metrics != nullptr) {
    obs::MetricsRegistry* metrics = dual->options_.metrics;
    dual->edit_hist_ = metrics->histogram(obs::names::kDualEditSeconds, name);
    dual->overwrite_hist_ = metrics->histogram(obs::names::kDualOverwriteSeconds, name);
    dual->compact_hist_ = metrics->histogram(obs::names::kDualCompactSeconds, name);
    dual->union_read_rows_hist_ =
        metrics->histogram(obs::names::kDualUnionReadRows, name);
    dual->union_read_seconds_hist_ =
        metrics->histogram(obs::names::kDualUnionReadSeconds, name);
    dual->incremental_compact_hist_ =
        metrics->histogram(obs::names::kDualIncrementalCompactSeconds, name);
    dual->stripe_density_hist_ =
        metrics->histogram(obs::names::kDualStripeDensityPpm, name);
    dual->stripes_rewritten_ctr_ =
        metrics->counter(obs::names::kDualStripesRewritten, name);
    dual->stripes_copied_ctr_ = metrics->counter(obs::names::kDualStripesCopied, name);
    dual->mods_folded_ctr_ = metrics->counter(obs::names::kDualModsFolded, name);
    dual->edit_scale_gauge_ = metrics->gauge(obs::names::kDualEditCostScalePpm, name);
    dual->overwrite_scale_gauge_ =
        metrics->gauge(obs::names::kDualOverwriteCostScalePpm, name);
    dual->edit_scale_gauge_->Set(
        static_cast<int64_t>(dual->options_.cost_params.edit_cost_scale * 1e6));
    dual->overwrite_scale_gauge_->Set(
        static_cast<int64_t>(dual->options_.cost_params.overwrite_cost_scale * 1e6));
    dual->maint_rounds_ctr_ = metrics->counter(obs::names::kMaintenanceRounds, name);
    dual->maint_skips_ctr_ = metrics->counter(obs::names::kMaintenanceSkips, name);
    dual->maint_preview_scans_ctr_ =
        metrics->counter(obs::names::kMaintenancePreviewScans, name);
    dual->maint_incremental_ctr_ =
        metrics->counter(obs::names::kMaintenanceIncrementalCompacts, name);
    dual->maint_full_ctr_ = metrics->counter(obs::names::kMaintenanceFullCompacts, name);
    dual->maint_reclaims_ctr_ = metrics->counter(obs::names::kMaintenanceReclaims, name);
    dual->maint_trigger_density_ctr_ =
        metrics->counter(obs::names::kMaintenanceTriggers, "density");
    dual->maint_trigger_latency_ctr_ =
        metrics->counter(obs::names::kMaintenanceTriggers, "latency");
    dual->maint_trigger_bytes_ctr_ =
        metrics->counter(obs::names::kMaintenanceTriggers, "bytes");
    dual->maint_p95_gauge_ = metrics->gauge(obs::names::kMaintenanceUnionReadP95Us, name);
    dual->maint_density_gauge_ =
        metrics->gauge(obs::names::kMaintenanceDeltaDensityPpm, name);
  }
  if (dual->options_.scheduler != nullptr && dual->options_.background_compaction) {
    // Maintenance used to surface only through scans, so compaction debt
    // accumulated unobserved on write-only workloads; the scheduler polls it
    // instead. The raw pointer is safe: ~DualTable unregisters (blocking out
    // an in-flight poll) before members die.
    DualTable* raw = dual.get();
    dual->scheduler_job_ = dual->options_.scheduler->Register(
        "compact:" + name, [raw] { raw->BackgroundMaintenance(); });
  }
  return dual;
}

DualTable::~DualTable() {
  if (scheduler_job_ != 0) options_.scheduler->Unregister(scheduler_job_);
}

SnapshotPtr DualTable::AcquireSnapshot() const {
  auto snap = std::make_shared<Snapshot>();
  {
    // The generation and the KV state must be captured as one unit: pairing
    // them non-atomically around a PublishRewrite could combine the OLD
    // generation with the CLEARED attached store and silently drop every
    // delta the rewrite folded in.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snap->generation = master_->CurrentGeneration();
    snap->attached = attached_->store()->GetSnapshot();
    // Clamp visibility to the last acknowledged EDIT: cells an in-flight
    // statement already wrote (timestamps past commit_ts_) stay invisible
    // until its WAL sync publishes them.
    snap->attached.read_ts = std::min(snap->attached.read_ts, commit_ts_);
    if (index_ != nullptr) {
      // Same clamp for the index store: entries an in-flight statement wrote
      // ahead of its commit stay invisible, so the index view and the table
      // view agree under every snapshot.
      snap->index = index_->GetSnapshot();
      snap->index.read_ts = std::min(snap->index.read_ts, index_commit_ts_);
      snap->has_index = true;
    }
  }
  // Exact emptiness of the PINNED state — AttachedTable::Empty() reads the
  // live store, which a concurrent EDIT mutates. The pinned SST set is
  // immutable; the pinned memtable only grows, which can only flip the
  // answer to "not empty" — the conservative direction (disables stripe-stat
  // pruning that an empty attached table would have allowed).
  uint64_t cells =
      snap->attached.mem != nullptr ? snap->attached.mem->cell_count() : 0;
  for (const auto& sst : snap->attached.tables) cells += sst->cell_count();
  snap->attached_empty = cells == 0;
  snap->tracker = snapshot_tracker_;
  snap->tracker_token = snapshot_tracker_->OnAcquire();
  return snap;
}

void DualTable::PublishEditCommit() {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  commit_ts_ = attached_->LastTimestamp();
  // The statement's index entries were written (and synced) before its
  // attached cells, so publishing both clocks together can only expose
  // entries whose table state is already visible.
  if (index_ != nullptr) index_commit_ts_ = index_->LastTimestamp();
}

Status DualTable::PublishRewrite(std::vector<MasterFileInfo> new_files) {
  // Caller holds mu_ (writers are serialized).
  std::unordered_set<uint64_t> dead_files;
  if (index_ != nullptr) {
    // Index the staged files BEFORE the swap: once the new generation is
    // visible, a snapshot may need their entries, and the stale-tolerant
    // protocol only permits extra entries, never missing ones. A crash after
    // this stage leaves entries for orphan files — harmless, verified away.
    DTL_RETURN_NOT_OK(IndexStagedFiles(new_files));
    DTL_RETURN_NOT_OK(index_->Sync());
    for (const MasterFileInfo& f : master_->files()) dead_files.insert(f.file_id);
  }
  {
    // snapshot_mu_ nests inside mu_.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    DTL_RETURN_NOT_OK(master_->ReplaceAllFiles(std::move(new_files)));
    // If Clear() fails after the generation swap the table is still correct:
    // the new generation's files carry fresh file IDs, so leftover attached
    // record IDs can never match a new-generation row.
    DTL_RETURN_NOT_OK(attached_->Clear());
    if (index_ != nullptr) index_commit_ts_ = index_->LastTimestamp();
  }
  if (index_ != nullptr) {
    // Post-commit cleanup: entries of the replaced files are unreachable
    // (their file IDs left the generation), fold them out and record the
    // committed state. A crash here only costs an Open-time rebuild.
    DTL_RETURN_NOT_OK(index_->FoldDeadFiles(dead_files));
    DTL_RETURN_NOT_OK(CommitIndexMeta());
  }
  return Status::OK();
}

table::ScanSpec DualTable::MasterSpecFor(const table::ScanSpec& spec,
                                         const SnapshotPtr& snapshot) const {
  table::ScanSpec master_spec = spec;
  // Attached updates can move cell values across stripe-stat boundaries, so
  // stats pruning is only sound when the snapshot's attached state is empty.
  if (!snapshot->attached_empty) master_spec.bounds.clear();
  return master_spec;
}

Result<std::unique_ptr<UnionReadBatchIterator>> DualTable::NewUnionReadBatch(
    const SnapshotPtr& snapshot, const table::ScanSpec& spec, StripeReads reads,
    uint64_t as_of) {
  DTL_ASSIGN_OR_RETURN(auto master_it,
                       master_->NewBatchScanIterator(snapshot->generation,
                                                     MasterSpecFor(spec, snapshot),
                                                     /*apply_predicate=*/false,
                                                     options_.scan_batch_rows, reads));
  auto attached_it =
      attached_->NewScannerAt(snapshot->attached, 0, UINT64_MAX, as_of);
  auto it = std::make_unique<UnionReadBatchIterator>(std::move(master_it),
                                                     std::move(attached_it),
                                                     spec.predicate,
                                                     schema_.num_fields(), spec.meter);
  it->AnchorSnapshot(snapshot);
  return it;
}

Result<std::unique_ptr<UnionReadBatchIterator>> DualTable::NewUnionReadBatchForFile(
    const SnapshotPtr& snapshot, uint64_t file_id, const table::ScanSpec& spec,
    StripeReads reads) {
  DTL_ASSIGN_OR_RETURN(
      auto master_it,
      master_->NewFileBatchScanIterator(snapshot->generation, file_id,
                                        MasterSpecFor(spec, snapshot),
                                        /*apply_predicate=*/false,
                                        options_.scan_batch_rows, reads));
  auto attached_it = attached_->NewScannerAt(
      snapshot->attached, MakeRecordId(file_id, 0), MakeRecordId(file_id + 1, 0));
  auto it = std::make_unique<UnionReadBatchIterator>(std::move(master_it),
                                                     std::move(attached_it),
                                                     spec.predicate,
                                                     schema_.num_fields(), spec.meter);
  it->AnchorSnapshot(snapshot);
  return it;
}

namespace {

/// The snapshot behind a PinnedReadPtr: every pin a DualTable reads at is one
/// of its own AcquireSnapshot() results.
SnapshotPtr AsSnapshot(const table::PinnedReadPtr& pin) {
  return std::static_pointer_cast<const Snapshot>(pin);
}

}  // namespace

Result<std::vector<ScanMorsel>> DualTable::PlanScanMorselsAt(
    const table::PinnedReadPtr& pin, const table::ScanSpec& spec,
    size_t stripes_per_morsel) {
  const SnapshotPtr snapshot = AsSnapshot(pin);
  return master_->PlanMorsels(snapshot->generation, MasterSpecFor(spec, snapshot),
                              stripes_per_morsel);
}

Result<std::unique_ptr<table::BatchIterator>> DualTable::ScanMorselAt(
    const table::PinnedReadPtr& pin, const ScanMorsel& morsel, const table::ScanSpec& spec,
    table::ScanMeter* meter) {
  DTL_ASSIGN_OR_RETURN(auto it,
                       NewUnionReadBatchForMorselAt(AsSnapshot(pin), morsel, spec, meter));
  return std::unique_ptr<table::BatchIterator>(std::move(it));
}

Result<std::unique_ptr<UnionReadBatchIterator>> DualTable::NewUnionReadBatchForMorselAt(
    const SnapshotPtr& snapshot, const ScanMorsel& morsel, const table::ScanSpec& spec,
    table::ScanMeter* meter, StripeReads reads) {
  table::ScanSpec master_spec = MasterSpecFor(spec, snapshot);
  master_spec.meter = meter;
  DTL_ASSIGN_OR_RETURN(
      auto master_it,
      master_->NewMorselBatchScanIterator(snapshot->generation, morsel, master_spec,
                                          /*apply_predicate=*/false,
                                          options_.scan_batch_rows, reads));
  auto attached_it = attached_->NewScannerAt(snapshot->attached,
                                             morsel.first_record_id,
                                             morsel.end_record_id);
  auto it = std::make_unique<UnionReadBatchIterator>(std::move(master_it),
                                                     std::move(attached_it),
                                                     spec.predicate,
                                                     schema_.num_fields(), meter);
  it->AnchorSnapshot(snapshot);
  return it;
}

namespace {

// Counts the rows a UNION READ scan emits and reports the total — plus the
// scan's wall seconds, construction to destruction — into the per-table
// histograms when the scan ends (destruction = end of scan, whether drained
// or abandoned). The seconds histogram's window ring is what the adaptive
// maintenance latency trigger reads.
class RowsObservingBatchIterator : public table::BatchIterator {
 public:
  RowsObservingBatchIterator(std::unique_ptr<table::BatchIterator> inner,
                             obs::Histogram* rows_hist, obs::Histogram* seconds_hist)
      : inner_(std::move(inner)), rows_hist_(rows_hist), seconds_hist_(seconds_hist) {}
  ~RowsObservingBatchIterator() override {
    rows_hist_->Observe(rows_);
    if (seconds_hist_ != nullptr) seconds_hist_->ObserveSeconds(watch_.ElapsedSeconds());
  }

  bool Next(table::RowBatch* batch) override {
    if (!inner_->Next(batch)) return false;
    rows_ += batch->size();
    return true;
  }
  const Status& status() const override { return inner_->status(); }

 private:
  std::unique_ptr<table::BatchIterator> inner_;
  obs::Histogram* rows_hist_;
  obs::Histogram* seconds_hist_;
  uint64_t rows_ = 0;
  Stopwatch watch_;
};

}  // namespace

std::unique_ptr<table::BatchIterator> DualTable::ObserveUnionReadRows(
    std::unique_ptr<table::BatchIterator> it) {
  if (union_read_rows_hist_ == nullptr) return it;
  return std::make_unique<RowsObservingBatchIterator>(
      std::move(it), union_read_rows_hist_, union_read_seconds_hist_);
}

Result<std::unique_ptr<table::BatchIterator>> DualTable::ScanBatchesAt(
    const table::PinnedReadPtr& pin, const table::ScanSpec& spec) {
  const SnapshotPtr snapshot = pin != nullptr ? AsSnapshot(pin) : AcquireSnapshot();
  DTL_ASSIGN_OR_RETURN(auto it, NewUnionReadBatch(snapshot, spec, StripeReads::kCached));
  return ObserveUnionReadRows(std::move(it));
}

Result<std::unique_ptr<table::RowIterator>> DualTable::ScanAsOf(
    const table::ScanSpec& spec, uint64_t as_of) {
  DTL_ASSIGN_OR_RETURN(
      auto it, NewUnionReadBatch(AcquireSnapshot(), spec, StripeReads::kCached, as_of));
  return std::make_unique<table::RowIterator>(std::move(it), spec.meter);
}

Status DualTable::ScanInternal(const SnapshotPtr& snapshot, const table::ScanSpec& spec,
                               std::optional<uint64_t> file_id,
                               const std::function<Status(const table::RowBatch&)>& consume) {
  table::ScanMeter statement_meter;
  table::ScanSpec local = spec;
  local.meter = &statement_meter;
  std::unique_ptr<UnionReadBatchIterator> it;
  if (file_id.has_value()) {
    DTL_ASSIGN_OR_RETURN(
        it, NewUnionReadBatchForFile(snapshot, *file_id, local, StripeReads::kUncached));
  } else {
    DTL_ASSIGN_OR_RETURN(it, NewUnionReadBatch(snapshot, local, StripeReads::kUncached));
  }
  table::RowBatch batch;
  while (it->Next(&batch)) DTL_RETURN_NOT_OK(consume(batch));
  DTL_RETURN_NOT_OK(it->status());
  (spec.meter != nullptr ? *spec.meter : table::GlobalScanMeter())
      .Add(statement_meter.Snapshot().PruningOnly());
  return Status::OK();
}

Status DualTable::InsertRows(const std::vector<Row>& rows) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (rows.empty()) return Status::OK();
  DTL_ASSIGN_OR_RETURN(auto writer, master_->NewFileWriter());
  for (const Row& row : rows) DTL_RETURN_NOT_OK(writer->Append(row));
  DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
  if (index_ != nullptr) {
    // Entries first, visibility second: the new file's entries must be
    // durable and published before RegisterFile makes its rows reachable.
    // Until RegisterFile lands, the entries point at a file outside every
    // generation and lookups drop them as stale.
    const uint64_t file_id = info.file_id;
    for (size_t i = 0; i < rows.size(); ++i) {
      DTL_RETURN_NOT_OK(index_->AddRow(rows[i], MakeRecordId(file_id, i)));
    }
    DTL_RETURN_NOT_OK(index_->Sync());
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    index_commit_ts_ = index_->LastTimestamp();
  }
  // RegisterFile publishes the successor generation on its own: an INSERT
  // never touches the attached store, so there is no torn pairing for a
  // concurrent AcquireSnapshot to observe.
  DTL_RETURN_NOT_OK(master_->RegisterFile(std::move(info)));
  return CommitIndexMeta();
}

Status DualTable::OverwriteRows(const std::vector<Row>& rows) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  RollingFileWriter out(master_.get(), options_.rewrite_file_rows);
  for (const Row& row : rows) DTL_RETURN_NOT_OK(out.Append(row));
  DTL_RETURN_NOT_OK(out.Finish());
  return PublishRewrite(std::move(out.files()));
}

double DualTable::AvgRowBytes() const {
  const uint64_t rows = master_->TotalRows();
  if (rows == 0) return 1.0;
  return static_cast<double>(master_->TotalBytes()) / static_cast<double>(rows);
}

table::PlanDecision DualTable::PreviewUpdateDecision(double alpha) const {
  std::lock_guard<std::mutex> lock(cost_model_mu_);
  return cost_model_.DecideUpdate(master_->TotalBytes(), alpha);
}

table::DmlPlanChoice DualTable::PlanDml(table::DmlKind kind,
                                        std::optional<double> ratio_hint) const {
  const bool cost_model = options_.plan_mode == DualTableOptions::PlanMode::kCostModel;
  table::DmlPlanChoice choice;
  choice.chosen_by =
      cost_model ? table::PlanChooser::kCostModel : table::PlanChooser::kPlanMode;
  choice.plan = options_.plan_mode == DualTableOptions::PlanMode::kForceOverwrite
                    ? table::DmlPlan::kOverwrite
                    : table::DmlPlan::kEdit;
  if (ratio_hint.has_value()) {
    choice.ratio = std::clamp(*ratio_hint, 0.0, 1.0);
    choice.ratio_source = table::RatioSource::kHint;
  } else if (cost_model) {
    // Recorded ratios lie in [0, 1], so a negative fallback marks "no history".
    auto hist = metadata_->HistoricalModificationRatio(name_, -1.0);
    if (hist.ok() && *hist >= 0) {
      choice.ratio = std::clamp(*hist, 0.0, 1.0);
      choice.ratio_source = table::RatioSource::kHistory;
    } else {
      choice.ratio = kDefaultModificationRatio;
      choice.ratio_source = table::RatioSource::kDefault;
    }
  }
  const bool update = kind == table::DmlKind::kUpdate;
  const uint64_t bytes = master_->TotalBytes();
  const double row_bytes = AvgRowBytes();
  std::lock_guard<std::mutex> lock(cost_model_mu_);
  choice.crossover_ratio = update ? cost_model_.UpdateCrossoverRatio(bytes)
                                  : cost_model_.DeleteCrossoverRatio(bytes, row_bytes);
  if (cost_model) {
    choice.decision = update ? cost_model_.DecideUpdate(bytes, choice.ratio)
                             : cost_model_.DecideDelete(bytes, choice.ratio, row_bytes);
    choice.plan = choice.decision.plan;
  }
  return choice;
}

CostModelParams DualTable::cost_model_params() const {
  std::lock_guard<std::mutex> lock(cost_model_mu_);
  return cost_model_.params();
}

Result<table::DmlResult> DualTable::ExecuteDml(const table::DmlSpec& spec,
                                               const table::DmlPlanChoice& choice) {
  if (choice.plan != table::DmlPlan::kEdit && choice.plan != table::DmlPlan::kOverwrite) {
    return table::UnsupportedDmlPlan(name_, choice.plan);
  }
  if (spec.kind == table::DmlKind::kUpdate && spec.assignments.empty()) {
    return Status::InvalidArgument("UPDATE with no assignments");
  }
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const fs::IoSnapshot io_before = fs_->meter()->Snapshot();
  Stopwatch watch;
  Result<table::DmlResult> result =
      choice.plan == table::DmlPlan::kEdit ? ExecuteEdit(spec) : ExecuteOverwrite(spec);
  DTL_RETURN_NOT_OK(result.status());
  RecordDmlObservation(spec.kind, choice, *result, watch.ElapsedSeconds(), io_before);
  if (result->rows_scanned > 0) {
    // Propagate metadata failures: a silently stale modification ratio would
    // skew every later cost-model plan choice (found by the nodiscard sweep).
    DTL_RETURN_NOT_OK(metadata_->RecordModificationRatio(
        name_, static_cast<double>(result->rows_matched) /
                   static_cast<double>(result->rows_scanned)));
  }
  if (options_.auto_compact && NeedsCompaction()) DTL_RETURN_NOT_OK(Compact());
  return result;
}

Result<table::DmlResult> DualTable::ExecuteEdit(const table::DmlSpec& spec) {
  // The paper's UDTFs: scan the up-to-date view and, for every matching
  // record, put a DELETE marker or the new field values into the attached
  // table. The scan reads from a snapshot acquired at statement start, so
  // the statement's own puts can never feed back into its scan.
  SnapshotPtr snapshot = AcquireSnapshot();
  table::DmlResult result;
  result.plan = table::DmlPlan::kEdit;
  const bool update = spec.kind == table::DmlKind::kUpdate;
  struct PendingUpdate {
    uint64_t record_id;
    uint32_t column;
    Value value;
  };
  // UPDATE computes every new value before its first put, so a failing SET
  // expression leaves the table unchanged.
  std::vector<PendingUpdate> pending;
  Row row;
  std::vector<Value> values;
  auto locate = [&](const table::RowBatch& batch) -> Status {
    result.rows_matched += batch.size();  // the predicate ran inside the union read
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!update) {
        DTL_RETURN_NOT_OK(attached_->PutDeleteMarker(batch.record_id(i)));
        continue;
      }
      batch.MaterializeRow(i, &row);  // SET expressions evaluate over rows
      DTL_RETURN_NOT_OK(spec.ComputeSet(row, &values));
      for (size_t a = 0; a < values.size(); ++a) {
        pending.push_back(PendingUpdate{batch.record_id(i),
                                        static_cast<uint32_t>(spec.assignments[a].column),
                                        std::move(values[a])});
      }
    }
    return Status::OK();
  };
  DTL_RETURN_NOT_OK(ScanInternal(snapshot, spec.LocateSpec(), std::nullopt, locate));
  if (index_ != nullptr && update) {
    // Index entries for the new values go in (and sync) before the attached
    // cells: a crash in between leaves extra entries that lookups verify
    // away, whereas the reverse order could leave a visible update with no
    // entry — the one hazard the stale-tolerant protocol excludes. Deletes
    // add no entries: the deleted rows' entries go stale and are dropped at
    // verify time.
    for (const PendingUpdate& p : pending) {
      if (index_->IndexesColumn(p.column)) {
        DTL_RETURN_NOT_OK(index_->Add(p.column, p.value, p.record_id));
      }
    }
    DTL_RETURN_NOT_OK(index_->Sync());
  }
  for (const PendingUpdate& p : pending) {
    DTL_RETURN_NOT_OK(attached_->PutUpdate(p.record_id, p.column, p.value));
  }
  // The statement is acknowledged on return, so its attached-table cells
  // must be WAL-durable first: a crash after the ack must replay them.
  DTL_RETURN_NOT_OK(attached_->Sync());
  // Only now do the cells become visible — a snapshot acquired during the
  // statement reads the pre-statement commit timestamp.
  PublishEditCommit();
  // The index meta row tracks every commit, deletes included, or the next
  // Open would rebuild the index for nothing.
  DTL_RETURN_NOT_OK(CommitIndexMeta());
  result.rows_scanned = snapshot->generation->TotalRows();
  return result;
}

Status DualTable::RewriteMaster(const std::function<Result<bool>(Row* row)>& transform) {
  // Stream the merged view into a staged new master generation. The rewrite
  // folds deltas up to its snapshot's commit timestamp; writers are
  // serialized under mu_, so nothing can commit past it before the publish.
  RollingFileWriter out(master_.get(), options_.rewrite_file_rows);
  Row row;
  auto rewrite = [&](const table::RowBatch& batch) -> Status {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &row);
      DTL_ASSIGN_OR_RETURN(bool keep, transform(&row));
      if (keep) DTL_RETURN_NOT_OK(out.Append(row));
    }
    return Status::OK();
  };
  // Every column, no predicate.
  DTL_RETURN_NOT_OK(
      ScanInternal(AcquireSnapshot(), table::ScanSpec{}, std::nullopt, rewrite));
  DTL_RETURN_NOT_OK(out.Finish());
  return PublishRewrite(std::move(out.files()));
}

Result<table::DmlResult> DualTable::ExecuteOverwrite(const table::DmlSpec& spec) {
  // Hive's INSERT OVERWRITE path: rewrite every row, matching rows dropped
  // (DELETE) or with their SET columns replaced (UPDATE); ends with a fresh
  // empty attached table (paper §III-C).
  table::DmlResult result;
  result.plan = table::DmlPlan::kOverwrite;
  result.rows_scanned = master_->TotalRows();
  auto transform = [&](Row* row) -> Result<bool> {
    if (spec.filter.predicate && !spec.filter.predicate(*row)) return true;
    ++result.rows_matched;
    return spec.Apply(row);
  };
  DTL_RETURN_NOT_OK(RewriteMaster(transform));
  return result;
}

Status DualTable::RewriteMasterParallel() {
  // One rewrite job per master file: file f's union-read view (attached scan
  // bounded to f's record-ID range) streams into fresh files. Every job
  // reads from ONE shared snapshot, and jobs only STAGE data — registration
  // happens after the barrier, in one PublishRewrite call, so the manifest
  // rename remains the single commit point and a crash anywhere before it
  // keeps the old generation intact.
  SnapshotPtr snapshot = AcquireSnapshot();
  const std::vector<MasterFileInfo>& master_files = snapshot->generation->files();
  std::vector<RollingFileWriter> outs;
  outs.reserve(master_files.size());  // no reallocation: jobs hold pointers

  TaskGroup group(options_.pool);
  for (const MasterFileInfo& file : master_files) {
    RollingFileWriter* out = &outs.emplace_back(master_.get(), options_.rewrite_file_rows);
    const uint64_t file_id = file.file_id;
    group.Spawn([this, out, file_id, &snapshot]() -> Status {
      Row row;
      auto rewrite = [&](const table::RowBatch& batch) -> Status {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch.MaterializeRow(i, &row);
          DTL_RETURN_NOT_OK(out->Append(row));
        }
        return Status::OK();
      };
      // Every column, no predicate.
      DTL_RETURN_NOT_OK(ScanInternal(snapshot, table::ScanSpec{}, file_id, rewrite));
      return out->Finish();
    });
  }
  Status st = group.Wait();
  if (!st.ok()) {
    // Staged files from jobs that finished are orphans (never committed to
    // the manifest); delete them now rather than waiting for the next
    // Open()'s garbage collection.
    for (RollingFileWriter& out : outs) {
      for (const MasterFileInfo& info : out.files()) {
        DTL_IGNORE_STATUS(fs_->Delete(info.path),
                          "failed COMPACT cleanup; next Open() garbage-collects");
      }
    }
    return st;
  }

  std::vector<MasterFileInfo> new_files;
  for (RollingFileWriter& out : outs) {
    for (MasterFileInfo& info : out.files()) new_files.push_back(std::move(info));
  }
  return PublishRewrite(std::move(new_files));
}

Status DualTable::Compact() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (attached_->Empty()) return Status::OK();
  Stopwatch watch;
  if (options_.pool != nullptr && master_->files().size() >= 2) {
    DTL_RETURN_NOT_OK(RewriteMasterParallel());
  } else {
    DTL_RETURN_NOT_OK(RewriteMaster([](Row*) -> Result<bool> { return true; }));
  }
  if (compact_hist_ != nullptr) compact_hist_->ObserveSeconds(watch.ElapsedSeconds());
  return Status::OK();
}

double DualTable::IncrementalDensityThreshold() const {
  if (options_.incremental_density_override >= 0) {
    return std::min(options_.incremental_density_override, 1.0);
  }
  // The update crossover ratio is the modification fraction where folding
  // into the master (OVERWRITE economics) beats keeping deltas attached;
  // files whose accumulated density reaches it are worth rewriting. The
  // floor keeps a tiny master from making every stripe "dense".
  std::lock_guard<std::mutex> lock(cost_model_mu_);
  return std::clamp(cost_model_.UpdateCrossoverRatio(master_->TotalBytes()), 0.01, 1.0);
}

Result<table::CompactPlan> DualTable::PlanCompact(bool incremental) const {
  table::CompactPlan plan;
  if (!incremental) {
    const bool empty = attached_->Empty();
    plan.action = empty ? table::CompactAction::kNone : table::CompactAction::kRewrite;
    plan.reason = empty ? "the attached table is empty"
                        : "UNION READ into a new master generation, then clear the "
                          "attached table";
    return plan;
  }
  SnapshotPtr snapshot = AcquireSnapshot();
  DTL_ASSIGN_OR_RETURN(plan.fold, PreviewIncrementalCompactionAt(snapshot));
  plan.pin = std::move(snapshot);
  const size_t selected = plan.fold.selected_files();
  const size_t strays = plan.fold.stray_record_ids.size();
  plan.action = selected > 0 || strays > 0 ? table::CompactAction::kIncremental
                                           : table::CompactAction::kNone;
  std::ostringstream reason;
  reason << selected << "/" << plan.fold.files.size() << " files at delta density >= "
         << plan.fold.threshold << ", " << strays << " stray cell(s)";
  plan.reason = reason.str();
  return plan;
}

Result<table::CompactResult> DualTable::ExecuteCompact(const table::CompactPlan& plan,
                                                       obs::Tracer* tracer) {
  table::CompactResult result{table::CompactAction::kNone, plan.reason};
  if (plan.action == table::CompactAction::kNone) return result;
  if (plan.action == table::CompactAction::kIncremental) {
    DTL_ASSIGN_OR_RETURN(IncrementalCompactStats stats, CompactIncremental(tracer, &plan));
    if (stats.files_selected == 0 && stats.mods_folded == 0) {
      result.summary = "no file reaches the delta density threshold";
      return result;
    }
    result.action = table::CompactAction::kIncremental;
    result.summary = stats.ToString();
    return result;
  }
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (attached_->Empty()) {
    result.summary = "the attached table is empty";
    return result;
  }
  DTL_RETURN_NOT_OK(Compact());
  result.action = table::CompactAction::kRewrite;
  result.summary = "folded the attached table into a new master generation";
  return result;
}

bool DualTable::PlanStillHolds(const table::CompactPlan& planned) {
  if (planned.pin == nullptr) return false;
  const Snapshot& was = *AsSnapshot(planned.pin);
  if (planned.fold.threshold != IncrementalDensityThreshold()) return false;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  const kv::KvSnapshot now = attached_->store()->GetSnapshot();
  return master_->CurrentGeneration() == was.generation &&
         std::min(now.read_ts, commit_ts_) == was.attached.read_ts &&
         now.mem == was.attached.mem && now.tables == was.attached.tables;
}

Result<table::IncrementalCompactionPlan> DualTable::PreviewIncrementalCompactionAt(
    const SnapshotPtr& snapshot) const {
  table::IncrementalCompactionPlan plan;
  plan.threshold = IncrementalDensityThreshold();
  const std::vector<MasterFileInfo>& gen_files = snapshot->generation->files();
  plan.files.reserve(gen_files.size());
  for (const MasterFileInfo& info : gen_files) {
    DTL_ASSIGN_OR_RETURN(auto reader,
                         master_->OpenReader(snapshot->generation, info.file_id));
    table::FileCompactionPlan f;
    f.file_id = info.file_id;
    f.rows = info.num_rows;
    f.stripes.reserve(reader->num_stripes());
    for (size_t s = 0; s < reader->num_stripes(); ++s) {
      const orc::StripeInfo& st = reader->stripe(s);
      f.stripes.push_back(table::StripeDensity{st.first_row, st.num_rows, 0});
    }
    plan.files.push_back(std::move(f));
  }
  // One ascending pass over every pinned attached modification, binned
  // two-pointer style: files ascend by ID and stripes tile each file's row
  // space, so both cursors only ever move forward.
  auto mods = attached_->NewScannerAt(snapshot->attached);
  size_t fi = 0;
  size_t si = 0;
  while (mods->Next()) {
    const uint64_t rid = mods->modification().record_id;
    const uint64_t fid = RecordFileId(rid);
    const uint64_t row = RecordRowNumber(rid);
    while (fi < plan.files.size() && plan.files[fi].file_id < fid) {
      ++fi;
      si = 0;
    }
    if (fi >= plan.files.size() || plan.files[fi].file_id != fid) {
      // No such master file (leftovers of an earlier rewrite): invisible to
      // UNION READ; the next publish tombstones them.
      plan.stray_record_ids.push_back(rid);
      continue;
    }
    table::FileCompactionPlan& f = plan.files[fi];
    while (si < f.stripes.size() && f.stripes[si].first_row + f.stripes[si].rows <= row) {
      ++si;
    }
    if (si < f.stripes.size() && row >= f.stripes[si].first_row) {
      ++f.stripes[si].delta_rows;
      ++f.delta_rows;
    } else {
      // Row number beyond the file's stripes: also unreachable garbage.
      plan.stray_record_ids.push_back(rid);
    }
  }
  DTL_RETURN_NOT_OK(mods->status());
  for (table::FileCompactionPlan& f : plan.files) {
    f.selected = f.rows > 0 && f.delta_rows > 0 && f.density() >= plan.threshold;
  }
  return plan;
}

Status DualTable::RewriteFileIncremental(const SnapshotPtr& snapshot,
                                         const table::FileCompactionPlan& file,
                                         std::vector<MasterFileInfo>* new_files,
                                         std::vector<uint64_t>* folded,
                                         IncrementalCompactStats* stats) {
  DTL_ASSIGN_OR_RETURN(auto reader,
                       master_->OpenReader(snapshot->generation, file.file_id));
  // Lazy writer: a file whose every surviving row is deleted produces no
  // replacement file at all.
  std::unique_ptr<MasterFileWriter> writer;
  auto ensure_writer = [&]() -> Status {
    if (writer == nullptr) {
      DTL_ASSIGN_OR_RETURN(writer, master_->NewFileWriter());
    }
    return Status::OK();
  };
  // A statement-internal scan: its rows and bytes meter nowhere else.
  table::ScanMeter statement_meter;
  table::RowBatch batch;
  Row row;
  for (size_t s = 0; s < reader->num_stripes(); ++s) {
    const orc::StripeInfo& info = reader->stripe(s);
    const bool dirty = s < file.stripes.size() && file.stripes[s].delta_rows > 0;
    if (!dirty) {
      // Clean stripe: carry the encoded bytes (and their CRCs/stats) across
      // verbatim — no decode, no re-encode.
      DTL_ASSIGN_OR_RETURN(std::string raw, reader->ReadRawStripe(s));
      DTL_RETURN_NOT_OK(ensure_writer());
      DTL_RETURN_NOT_OK(writer->AppendRawStripe(info, raw));
      ++stats->stripes_copied;
      continue;
    }
    // Dirty stripe: the batch UNION READ over this one stripe patches the
    // updates and masks the deletes; the visible rows are re-encoded.
    const ScanMorsel morsel{
        .file_id = file.file_id,
        .stripe_begin = s,
        .stripe_end = s + 1,
        .first_record_id = MakeRecordId(file.file_id, info.first_row),
        .end_record_id = MakeRecordId(file.file_id, info.first_row + info.num_rows),
        .num_rows = info.num_rows};
    DTL_ASSIGN_OR_RETURN(auto it,
                         NewUnionReadBatchForMorselAt(snapshot, morsel, table::ScanSpec{},
                                                      &statement_meter,
                                                      StripeReads::kUncached));
    while (it->Next(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        batch.MaterializeRow(i, &row);
        DTL_RETURN_NOT_OK(ensure_writer());
        DTL_RETURN_NOT_OK(writer->Append(row));
      }
    }
    DTL_RETURN_NOT_OK(it->status());
    ++stats->stripes_rewritten;
    stats->rows_rewritten += info.num_rows;
  }
  // Every modification of the file's rows dies with the file. Clean stripes
  // hold none, so these are the dirty stripes' mods; mods past the last
  // stripe are strays the plan already folds.
  auto mods = attached_->NewScannerAt(snapshot->attached, MakeRecordId(file.file_id, 0),
                                      MakeRecordId(file.file_id, file.rows));
  while (mods->Next()) {
    folded->push_back(mods->modification().record_id);
    ++stats->mods_folded;
  }
  DTL_RETURN_NOT_OK(mods->status());
  if (writer != nullptr) {
    DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
    new_files->push_back(std::move(info));
  }
  return Status::OK();
}

Result<IncrementalCompactStats> DualTable::CompactIncremental(
    obs::Tracer* tracer, const table::CompactPlan* planned) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Stopwatch watch;
  SnapshotPtr snapshot;
  table::IncrementalCompactionPlan plan;
  {
    obs::Span span(tracer, obs::names::kSpanCompactPlan);
    // A DML statement may have landed since `planned` was made outside mu_;
    // then the files are selected again.
    if (planned != nullptr && PlanStillHolds(*planned)) {
      snapshot = AsSnapshot(planned->pin);
      plan = planned->fold;
    } else {
      snapshot = AcquireSnapshot();
      DTL_ASSIGN_OR_RETURN(plan, PreviewIncrementalCompactionAt(snapshot));
    }
    span.AddRows(plan.total_delta_rows());
    span.SetDetail(std::to_string(plan.selected_files()) + "/" +
                   std::to_string(plan.files.size()) + " files >= " +
                   std::to_string(plan.threshold));
  }
  IncrementalCompactStats stats;
  stats.files_total = plan.files.size();
  stats.files_selected = plan.selected_files();
  if (stats.files_selected == 0) {
    if (plan.stray_record_ids.empty()) return stats;
    // Nothing to rewrite, but reclaimable garbage exists: drop it without
    // touching the master generation. With no live deltas anywhere the store
    // holds nothing a reader can see besides the strays.
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    DTL_RETURN_NOT_OK(ReclaimAttached(plan.stray_record_ids, plan.total_delta_rows() == 0));
    stats.mods_folded += plan.stray_record_ids.size();
    // Record the new attached clock so the next Open's freshness check
    // doesn't mistake this reclamation for a lost commit.
    DTL_RETURN_NOT_OK(CommitIndexMeta());
    return stats;
  }

  std::vector<MasterFileInfo> new_files;
  std::vector<uint64_t> folded = plan.stray_record_ids;
  stats.mods_folded += plan.stray_record_ids.size();
  {
    obs::Span span(tracer, obs::names::kSpanCompactRewrite);
    Status st = Status::OK();
    for (const table::FileCompactionPlan& f : plan.files) {
      if (!f.selected) continue;
      st = RewriteFileIncremental(snapshot, f, &new_files, &folded, &stats);
      if (!st.ok()) break;
    }
    if (!st.ok()) {
      // Staged replacements never reached the manifest; delete them now
      // rather than waiting for the next Open()'s garbage collection.
      for (const MasterFileInfo& info : new_files) {
        DTL_IGNORE_STATUS(fs_->Delete(info.path),
                          "failed incremental COMPACT cleanup; next Open() collects");
      }
      return st;
    }
    span.AddRows(stats.rows_rewritten);
  }
  // Kept files carry over verbatim: same path, same file ID, so their record
  // IDs — and their still-attached deltas — stay valid across the swap.
  const std::vector<MasterFileInfo>& gen_files = snapshot->generation->files();
  bool fold_complete = true;
  for (size_t i = 0; i < gen_files.size(); ++i) {
    if (plan.files[i].selected) continue;
    new_files.push_back(gen_files[i]);
    if (plan.files[i].delta_rows > 0) fold_complete = false;
  }
  DTL_RETURN_NOT_OK(
      PublishIncrementalRewrite(std::move(new_files), folded, fold_complete));
  if (incremental_compact_hist_ != nullptr) {
    incremental_compact_hist_->ObserveSeconds(watch.ElapsedSeconds());
  }
  if (stripes_rewritten_ctr_ != nullptr) {
    stripes_rewritten_ctr_->Inc(stats.stripes_rewritten);
    stripes_copied_ctr_->Inc(stats.stripes_copied);
    mods_folded_ctr_->Inc(stats.mods_folded);
  }
  return stats;
}

Status DualTable::PublishIncrementalRewrite(std::vector<MasterFileInfo> full_set,
                                            const std::vector<uint64_t>& folded_record_ids,
                                            bool fold_complete) {
  // Caller holds mu_ (writers are serialized).
  std::unordered_set<uint64_t> dead_files;
  if (index_ != nullptr) {
    // Replacement files are the ones not yet stamped with a birth
    // generation; kept files carry their original stamp and their entries
    // are already in the index. Same entries-before-visibility ordering as
    // PublishRewrite.
    std::vector<MasterFileInfo> fresh;
    std::unordered_set<uint64_t> surviving;
    for (const MasterFileInfo& f : full_set) {
      if (f.born_generation == 0) fresh.push_back(f);
      surviving.insert(f.file_id);
    }
    DTL_RETURN_NOT_OK(IndexStagedFiles(fresh));
    DTL_RETURN_NOT_OK(index_->Sync());
    for (const MasterFileInfo& f : master_->files()) {
      if (surviving.count(f.file_id) == 0) dead_files.insert(f.file_id);
    }
  }
  // snapshot_mu_ nests inside mu_.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  DTL_RETURN_NOT_OK(master_->ReplaceAllFiles(std::move(full_set)));
  // The manifest rename above is the commit point. Everything below only
  // reclaims attached cells whose file IDs just died; a crash that loses the
  // reclamation is harmless (UNION READ is master-driven, so cells with no
  // master row never surface) and the next incremental COMPACT re-collects
  // them as strays. A complete fold (the kept files had no deltas) drops the
  // store wholesale, exactly as a full COMPACT would.
  DTL_RETURN_NOT_OK(ReclaimAttached(folded_record_ids, fold_complete));
  if (index_ != nullptr) {
    index_commit_ts_ = index_->LastTimestamp();
    // Post-commit fold + meta, as in PublishRewrite. snapshot_mu_ is still
    // held, which is fine: the fold touches only the index store.
    DTL_RETURN_NOT_OK(index_->FoldDeadFiles(dead_files));
    DTL_RETURN_NOT_OK(CommitIndexMeta());
  }
  return Status::OK();
}

Status DualTable::ReclaimAttached(const std::vector<uint64_t>& record_ids, bool all) {
  if (all) {
    DTL_RETURN_NOT_OK(attached_->Clear());
  } else {
    for (uint64_t rid : record_ids) {
      DTL_RETURN_NOT_OK(attached_->store()->DeleteRow(RecordIdKey(rid)));
    }
    // Tombstones alone would grow the byte debt NeedsCompaction() watches;
    // the KV merge drops them together with the cells they mask.
    DTL_RETURN_NOT_OK(attached_->store()->Compact());
  }
  // No in-flight EDIT can straddle this (mu_ serializes writers), so the
  // store clock is quiescent.
  commit_ts_ = attached_->LastTimestamp();
  return Status::OK();
}

const char* DualTable::AdaptiveTriggerReason() {
  // Delta-density proxy without a preview scan: attached cells over master
  // rows. Overcounts rows carrying several modified columns, so it fires
  // earlier than the exact per-file density — a conservative trigger; the
  // preview that follows still ranks files by the exact densities.
  const uint64_t master_rows = master_->TotalRows();
  const uint64_t cells = attached_->ApproximateCellCount();
  double density = master_rows == 0
                       ? (cells > 0 ? 1.0 : 0.0)
                       : static_cast<double>(cells) / static_cast<double>(master_rows);
  if (density > 1.0) density = 1.0;
  if (maint_density_gauge_ != nullptr) {
    maint_density_gauge_->Set(static_cast<int64_t>(density * 1e6));
  }

  uint64_t window_count = 0;
  uint64_t p95_us = 0;
  if (union_read_seconds_hist_ != nullptr) {
    obs::TelemetryClock* clock = options_.telemetry_clock != nullptr
                                     ? options_.telemetry_clock
                                     : obs::DefaultTelemetryClock();
    const uint64_t now_us = clock->NowMicros();
    union_read_seconds_hist_->MaybeRotate(now_us);
    const obs::HistogramSnapshot window = union_read_seconds_hist_->WindowSnapshot(
        static_cast<uint64_t>(kAdaptiveWindowSeconds * 1e6), now_us);
    window_count = window.count;
    p95_us = window.ValueAtQuantile(0.95);
    if (maint_p95_gauge_ != nullptr) {
      maint_p95_gauge_->Set(static_cast<int64_t>(p95_us));
    }
  }

  if (density >= IncrementalDensityThreshold()) return "density";
  if (window_count >= options_.adaptive_min_window_count &&
      static_cast<double>(p95_us) > options_.adaptive_latency_slo_seconds * 1e6) {
    return "latency";
  }
  if (NeedsCompaction()) return "bytes";
  return nullptr;
}

void DualTable::BackgroundMaintenance() {
  if (maint_rounds_ctr_ != nullptr) maint_rounds_ctr_->Inc();
  if (options_.adaptive_maintenance) {
    const char* reason = AdaptiveTriggerReason();
    if (reason == nullptr) {
      // Nothing in the telemetry says work is needed: skip without scanning
      // the attached store at all (the preview scan below is the per-round
      // cost this mode exists to eliminate).
      if (maint_skips_ctr_ != nullptr) maint_skips_ctr_->Inc();
      return;
    }
    if (maint_trigger_density_ctr_ != nullptr) {
      if (reason[0] == 'd') maint_trigger_density_ctr_->Inc();
      if (reason[0] == 'l') maint_trigger_latency_ctr_->Inc();
      if (reason[0] == 'b') maint_trigger_bytes_ctr_->Inc();
    }
  }
  if (maint_preview_scans_ctr_ != nullptr) maint_preview_scans_ctr_->Inc();
  Result<table::CompactPlan> plan = PlanCompact(/*incremental=*/true);
  if (!plan.ok()) return;  // transient failure; retried next round
  if (stripe_density_hist_ != nullptr) {
    for (const table::FileCompactionPlan& f : plan->fold.files) {
      for (const table::StripeDensity& s : f.stripes) {
        stripe_density_hist_->Observe(static_cast<uint64_t>(s.density() * 1e6));
      }
    }
  }
  if (plan->action == table::CompactAction::kIncremental) {
    // CompactIncremental re-plans under mu_ when a DML statement landed
    // between this plan and the lock, so it still folds correctly.
    if (maint_incremental_ctr_ != nullptr) maint_incremental_ctr_->Inc();
    Result<IncrementalCompactStats> done = CompactIncremental(nullptr, &*plan);
    DTL_IGNORE_STATUS(done.status(),
                      "background incremental compaction is retried next round");
    return;
  }
  if (!NeedsCompaction()) return;
  if (plan->fold.total_delta_rows() > 0) {
    // Attached bytes piled up without any single file crossing the density
    // threshold (deltas spread thin): fall back to the full rewrite. The
    // delta-rows guard keeps KV tombstone bloat alone from triggering a
    // pointless full rewrite.
    if (maint_full_ctr_ != nullptr) maint_full_ctr_->Inc();
    DTL_IGNORE_STATUS(Compact(), "background compaction failure is retried next round");
    return;
  }
  // Bytes above the threshold but zero live modifications: pure tombstone
  // bloat left behind by earlier partial folds. Reclaim it without touching
  // the master generation.
  if (maint_reclaims_ctr_ != nullptr) maint_reclaims_ctr_->Inc();
  ReclaimAttachedGarbage();
}

void DualTable::ReclaimAttachedGarbage() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Re-plan under the writer lock: a DML statement may have landed between
  // the caller's lock-free preview and here.
  SnapshotPtr snapshot = AcquireSnapshot();
  Result<table::IncrementalCompactionPlan> plan = PreviewIncrementalCompactionAt(snapshot);
  if (!plan.ok()) return;
  if (plan->total_delta_rows() > 0 || !plan->stray_record_ids.empty()) return;
  // The scanner surfaced nothing, so every cell in the store is a tombstone
  // or masked by one; dropping the store wholesale is invisible to readers.
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    DTL_IGNORE_STATUS(attached_->Clear(),
                      "attached garbage reclamation is retried next round");
  }
  DTL_IGNORE_STATUS(CommitIndexMeta(),
                    "stale index meta only costs an Open-time rebuild");
}

void DualTable::RecordDmlObservation(table::DmlKind kind,
                                     const table::DmlPlanChoice& choice,
                                     const table::DmlResult& result,
                                     double wall_seconds,
                                     const fs::IoSnapshot& io_before) {
  const table::DmlPlan plan = choice.plan;
  const table::PlanDecision& decision = choice.decision;
  obs::Histogram* hist =
      plan == table::DmlPlan::kEdit ? edit_hist_ : overwrite_hist_;
  if (hist != nullptr) hist->ObserveSeconds(wall_seconds);
  if (choice.chosen_by != table::PlanChooser::kCostModel) return;
  if (options_.cost_audit == nullptr) return;
  obs::CostAuditRecord record;
  record.table = name_;
  record.statement = kind == table::DmlKind::kUpdate ? "UPDATE" : "DELETE";
  record.ratio = choice.ratio;
  record.ratio_from_hint = choice.ratio_source == table::RatioSource::kHint;
  record.predicted_edit_seconds = decision.cost_edit_seconds;
  record.predicted_overwrite_seconds = decision.cost_overwrite_seconds;
  record.predicted_plan = table::DmlPlanName(decision.plan);
  record.executed_plan = table::DmlPlanName(plan);
  record.rows_matched = result.rows_matched;
  record.measured_wall_seconds = wall_seconds;
  if (cluster_ != nullptr) {
    record.measured_modeled_seconds =
        cluster_->JobSeconds(fs_->meter()->Snapshot() - io_before);
  }
  if (options_.cost_calibration_gain > 0 && record.measured_modeled_seconds > 0) {
    // Closed loop (DESIGN.md §12): nudge the executed plan's cost scale
    // toward measured/predicted so the next decision — and the incremental-
    // compaction density threshold derived from the crossover — track
    // observed behavior instead of the open-loop paper coefficients.
    std::lock_guard<std::mutex> lock(cost_model_mu_);
    cost_model_.Calibrate(plan == table::DmlPlan::kEdit,
                          record.PredictedExecutedSeconds(),
                          record.measured_modeled_seconds,
                          options_.cost_calibration_gain);
    if (edit_scale_gauge_ != nullptr) {
      edit_scale_gauge_->Set(
          static_cast<int64_t>(cost_model_.params().edit_cost_scale * 1e6));
      overwrite_scale_gauge_->Set(
          static_cast<int64_t>(cost_model_.params().overwrite_cost_scale * 1e6));
    }
  }
  options_.cost_audit->Record(std::move(record));
}

bool DualTable::NeedsCompaction() const {
  // Called from the scheduler thread, which may race DML on the user thread.
  // Every input is individually thread-safe (the generation totals read a
  // pinned file list; the attached counts are approximate by contract), and
  // a racy decision is benign: Compact() re-checks under mu_ and a skipped
  // round is retried at the next poll.
  const uint64_t master_bytes = master_->TotalBytes();
  if (master_bytes == 0) return attached_->ApproximateCellCount() > 0;
  return static_cast<double>(attached_->ApproximateBytes()) >=
         options_.compact_threshold * static_cast<double>(master_bytes);
}

Status DualTable::CommitIndexMeta() {
  if (index_ == nullptr) return Status::OK();
  return index_->WriteMeta(master_->CurrentGeneration()->number(),
                           attached_->LastTimestamp());
}

Status DualTable::EnsureIndexFresh() {
  DTL_ASSIGN_OR_RETURN(auto meta, index_->ReadMeta());
  if (meta.has_value() &&
      meta->master_generation == master_->CurrentGeneration()->number() &&
      meta->attached_ts == attached_->LastTimestamp() &&
      meta->columns == index_->columns()) {
    return Status::OK();
  }
  return RebuildIndex();
}

Status DualTable::RebuildIndex() {
  // Only sound at Open time, before snapshots exist: ClearAll() exposes
  // missing entries to any snapshot pinned mid-rebuild. Rebuilding from the
  // UNION READ view (updated values, deleted rows absent) is exact for every
  // snapshot that can still be acquired — pre-crash history is gone.
  index_->CountRebuild();
  DTL_RETURN_NOT_OK(index_->ClearAll());
  Row row;
  auto add_rows = [&](const table::RowBatch& batch) -> Status {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &row);
      DTL_RETURN_NOT_OK(index_->AddRow(row, batch.record_id(i)));
    }
    return Status::OK();
  };
  // Every column, no predicate.
  DTL_RETURN_NOT_OK(
      ScanInternal(AcquireSnapshot(), table::ScanSpec{}, std::nullopt, add_rows));
  DTL_RETURN_NOT_OK(index_->Sync());
  return CommitIndexMeta();
}

Status DualTable::IndexStagedFiles(const std::vector<MasterFileInfo>& files) {
  for (const MasterFileInfo& info : files) {
    // Staged files are not part of any generation yet; open them directly.
    DTL_ASSIGN_OR_RETURN(auto reader, orc::OrcReader::Open(fs_, info.path));
    for (size_t s = 0; s < reader->num_stripes(); ++s) {
      DTL_ASSIGN_OR_RETURN(orc::StripeBatch batch,
                           reader->ReadStripe(s, index_->columns()));
      for (size_t i = 0; i < batch.num_rows; ++i) {
        const uint64_t rid = MakeRecordId(info.file_id, batch.first_row + i);
        for (size_t c = 0; c < batch.projection.size(); ++c) {
          DTL_RETURN_NOT_OK(
              index_->Add(batch.projection[c], batch.columns[c][i], rid));
        }
      }
    }
  }
  return Status::OK();
}

bool DualTable::IndexesColumn(size_t column) const {
  return index_ != nullptr && index_->IndexesColumn(column);
}

Result<std::vector<std::pair<uint64_t, Row>>> DualTable::IndexLookupAt(
    const table::PinnedReadPtr& pin, size_t column, const std::vector<Value>& probes,
    const table::ScanSpec& spec) {
  if (!IndexesColumn(column)) {
    return Status::InvalidArgument("no secondary index on the probed column");
  }
  const SnapshotPtr snapshot = AsSnapshot(pin);
  if (snapshot == nullptr || !snapshot->has_index) {
    return Status::InvalidArgument("snapshot does not pin the secondary index");
  }
  // Candidate record IDs across all probes, deduplicated and ascending —
  // record-ID order is scan order, so the verified output matches what a
  // full UNION READ with the same predicate would emit.
  std::vector<uint64_t> rids;
  for (const Value& probe : probes) {
    DTL_ASSIGN_OR_RETURN(std::vector<uint64_t> part,
                         index_->LookupAt(snapshot->index, column, probe));
    rids.insert(rids.end(), part.begin(), part.end());
  }
  std::sort(rids.begin(), rids.end());
  rids.erase(std::unique(rids.begin(), rids.end()), rids.end());

  const size_t num_fields = schema_.num_fields();
  std::vector<size_t> required = spec.RequiredColumns(num_fields);
  if (!required.empty() &&
      std::find(required.begin(), required.end(), column) == required.end()) {
    // The verify step must read the indexed column even when the consumer
    // doesn't project it.
    required.push_back(column);
    std::sort(required.begin(), required.end());
  }

  std::vector<std::pair<uint64_t, Row>> out;
  const std::vector<MasterFileInfo>& files = snapshot->generation->files();
  size_t file_pos = 0;  // ascending rids -> the file cursor only moves forward
  std::shared_ptr<orc::OrcReader> reader;
  std::shared_ptr<const orc::StripeBatch> stripe;
  for (uint64_t rid : rids) {
    const uint64_t file_id = RecordFileId(rid);
    const uint64_t row_no = RecordRowNumber(rid);
    while (file_pos < files.size() && files[file_pos].file_id < file_id) ++file_pos;
    if (file_pos >= files.size() || files[file_pos].file_id != file_id) {
      // Entry for a file outside the pinned generation (replaced by a
      // COMPACT, or staged by an uncommitted INSERT): stale, drop.
      index_->CountStaleSkipped();
      continue;
    }
    if (reader == nullptr || reader->file_id() != file_id) {
      DTL_ASSIGN_OR_RETURN(reader, master_->OpenReader(snapshot->generation, file_id));
      stripe.reset();
    }
    if (row_no >= reader->num_rows()) {
      index_->CountStaleSkipped();
      continue;
    }
    DTL_ASSIGN_OR_RETURN(auto mod, attached_->GetModificationAt(snapshot->attached, rid));
    if (mod.has_value() && mod->deleted) {
      index_->CountStaleSkipped();
      continue;
    }
    if (stripe == nullptr || row_no < stripe->first_row ||
        row_no >= stripe->first_row + stripe->num_rows) {
      // Binary-search the stripe that holds the row, then fetch it through
      // the shared cache: hot stripes decode once per generation process-wide.
      size_t lo = 0;
      size_t hi = reader->num_stripes();
      while (lo + 1 < hi) {
        const size_t mid = (lo + hi) / 2;
        if (reader->stripe(mid).first_row <= row_no) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      DTL_ASSIGN_OR_RETURN(stripe, reader->ReadStripeShared(lo, required));
    }
    const size_t local = static_cast<size_t>(row_no - stripe->first_row);
    Row row(num_fields, Value::Null());
    for (size_t c = 0; c < stripe->projection.size(); ++c) {
      row[stripe->projection[c]] = stripe->columns[c][local];
    }
    if (mod.has_value()) {
      // Patch every updated column, matching UNION READ exactly (it patches
      // beyond the required set too).
      for (const auto& [col, value] : mod->updates) {
        if (col < num_fields) row[col] = value;
      }
    }
    // Re-verify the indexed column against the probes: stale entries (the
    // value moved off the probe since the entry was written) are dropped
    // here, never served. This is what makes extra entries harmless.
    bool matches = false;
    if (!row[column].is_null()) {
      for (const Value& probe : probes) {
        if (row[column].Compare(probe) == 0) {
          matches = true;
          break;
        }
      }
    }
    if (!matches) {
      index_->CountStaleSkipped();
      continue;
    }
    if (spec.predicate && !spec.predicate(row)) continue;
    out.emplace_back(rid, std::move(row));
  }
  return out;
}

Status DualTable::Drop() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  DTL_RETURN_NOT_OK(master_->Drop());
  if (index_ != nullptr) DTL_RETURN_NOT_OK(index_->Drop());
  return attached_->Drop();
}

}  // namespace dtl::dual
