// DualTable (paper §III): the hybrid-storage table. Batch data lives in the
// ORC-on-HDFS Master Table; record modifications live in the HBase-backed
// Attached Table; reads go through UNION READ; UPDATE/DELETE choose between
// the OVERWRITE plan and the EDIT plan with the §IV cost model; COMPACT
// folds the attached table back into a new master generation.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/background_scheduler.h"
#include "common/thread_pool.h"
#include "dualtable/attached_table.h"
#include "dualtable/cost_model.h"
#include "dualtable/master_table.h"
#include "dualtable/metadata.h"
#include "dualtable/secondary_index.h"
#include "dualtable/snapshot.h"
#include "dualtable/union_read.h"
#include "fs/cluster_model.h"
#include "table/storage_table.h"

namespace dtl::obs {
class CostAudit;
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TelemetryClock;
class Tracer;
}  // namespace dtl::obs

namespace dtl::dual {

/// What one CompactIncremental call actually did.
struct IncrementalCompactStats {
  size_t files_total = 0;
  size_t files_selected = 0;
  size_t stripes_rewritten = 0;  // decoded, patched, re-encoded
  size_t stripes_copied = 0;     // clean: raw byte copy, no decode
  uint64_t rows_rewritten = 0;   // rows in re-encoded stripes (pre-delete)
  uint64_t mods_folded = 0;      // attached records folded into the master

  std::string ToString() const;
};

struct DualTableOptions {
  orc::WriterOptions writer_options;
  kv::KvStoreOptions attached_options;  // dir is derived from the table name
  std::string warehouse_dir = "/warehouse";
  CostModelParams cost_params;

  /// Plan selection: the cost model (paper default), or forced plans for the
  /// "DualTable EDIT" series and ablations in the evaluation.
  enum class PlanMode { kCostModel, kForceEdit, kForceOverwrite };
  PlanMode plan_mode = PlanMode::kCostModel;

  /// Rows per master file written by OVERWRITE/COMPACT (keeps per-file
  /// parallelism comparable to the pre-rewrite layout).
  uint64_t rewrite_file_rows = 1ull << 20;

  /// Fallback modification ratio when a statement carries no hint and the
  /// metadata table has no history yet.
  double default_modification_ratio = 0.01;

  /// When the attached table holds at least this fraction of master bytes,
  /// Scan suggests compaction (surfaced via NeedsCompaction()).
  double compact_threshold = 0.25;

  /// Compact automatically after a DML statement pushes the attached table
  /// past the threshold (the paper schedules COMPACT to off-line hours; this
  /// is the inline alternative).
  bool auto_compact = false;

  /// Stripe delta density at/above which incremental COMPACT rewrites a
  /// file. Negative (the default) derives the threshold from the cost
  /// model's calibrated update crossover ratio — the density where folding
  /// deltas into the master becomes cheaper than keeping them attached.
  double incremental_density_override = -1.0;

  /// Closed-loop cost-model calibration gain (DESIGN.md §12). After every
  /// audited kCostModel statement, the executed plan's cost scale moves by
  /// (measured/predicted)^gain. 0 (the default) keeps the open-loop paper
  /// model. Requires `cost_audit` to be wired (the audit record carries the
  /// modelled actuals the loop feeds on).
  double cost_calibration_gain = 0.0;

  /// Rows per RowBatch emitted by the vectorized scan. Small values exercise
  /// batch/stripe boundary handling in tests.
  size_t scan_batch_rows = table::kDefaultBatchRows;

  /// Worker pool for parallel COMPACT (one rewrite job per master file, one
  /// manifest commit at the end). nullptr or <2 master files = serial
  /// rewrite. Not owned; must outlive the table.
  ThreadPool* pool = nullptr;

  /// Background maintenance scheduler. When set together with
  /// `background_compaction`, the table registers a poll job that runs
  /// BackgroundMaintenance() every round: incremental COMPACT of the densest
  /// files when any cross the threshold, full COMPACT as the fallback when
  /// attached bytes pile up below it — so compaction debt is paid even on
  /// write-only workloads that never scan.
  std::shared_ptr<BackgroundScheduler> scheduler;
  bool background_compaction = false;

  /// Obs-driven adaptive maintenance (DESIGN.md §14). When on, a maintenance
  /// round first consults live telemetry — the attached-delta density gauge,
  /// the windowed union-read latency p95 vs the SLO below, and the byte
  /// debt — and SKIPS the round without any preview scan unless a trigger
  /// fires; once triggered, the preview still ranks stripes exactly as
  /// before. Off (the default) keeps the preview-every-round behavior.
  /// Requires `metrics` (the triggers read registry histograms).
  bool adaptive_maintenance = false;
  /// Latency trigger: fires when the union-read wall-seconds p95 over the
  /// window exceeds this.
  double adaptive_latency_slo_seconds = 0.050;
  /// How far back the latency window looks.
  double adaptive_window_seconds = 8.0;
  /// Minimum observations inside the window before the latency trigger may
  /// fire (a p95 of three reads is noise).
  uint64_t adaptive_min_window_count = 16;
  /// Clock driving window rotation in maintenance rounds. nullptr = the
  /// process steady clock; tests inject a ManualTelemetryClock.
  obs::TelemetryClock* telemetry_clock = nullptr;

  /// Column ordinals to maintain a KV-hosted secondary index over (point
  /// lookup serving tier). Only int64/date/string columns are indexable;
  /// Open rejects anything else. Empty = no index.
  std::vector<size_t> indexed_columns;

  /// Shared decoded-stripe cache for this table's master readers. nullptr =
  /// the process-wide StripeCache::Default(). Not owned; must outlive the
  /// table.
  orc::StripeCache* stripe_cache = nullptr;

  /// Observability hooks (both optional, not owned; must outlive the table).
  /// `metrics` receives the EDIT/OVERWRITE/COMPACT duration histograms and
  /// the UNION READ rows histogram, labeled by table name. `cost_audit`
  /// receives one record per PlanMode::kCostModel UPDATE/DELETE decision,
  /// pairing the predicted EDIT-vs-OVERWRITE costs with measured actuals.
  obs::MetricsRegistry* metrics = nullptr;
  obs::CostAudit* cost_audit = nullptr;
};

class DualTable : public table::StorageTable {
 public:
  /// Opens or creates the DualTable `name` (CREATE in paper §III-C makes
  /// both the master and the attached table).
  static Result<std::shared_ptr<DualTable>> Open(fs::SimFileSystem* fs,
                                                 MetadataTable* metadata,
                                                 const fs::ClusterModel* cluster,
                                                 const std::string& name, Schema schema,
                                                 DualTableOptions options = {});

  /// Unregisters from the background scheduler (blocking out an in-flight
  /// poll) before members are destroyed.
  ~DualTable() override;

  // --- StorageTable interface ---
  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  Result<std::unique_ptr<table::RowIterator>> Scan(const table::ScanSpec& spec) override {
    return ScanAt(nullptr, spec);
  }
  /// AcquireSnapshot().
  table::PinnedReadPtr Pin() const override { return AcquireSnapshot(); }
  /// UNION READ at `pin` (an AcquireSnapshot() of this table; null acquires
  /// one). Holding one snapshot across several scans gives them one view (a
  /// SQL statement, a parallel scan's morsels).
  Result<std::unique_ptr<table::BatchIterator>> ScanBatchesAt(
      const table::PinnedReadPtr& pin, const table::ScanSpec& spec) override;
  /// Splits the snapshot's view into stripe-aligned morsels (see
  /// MasterTable::PlanMorsels), with the same bounds treatment as a serial
  /// scan, so morsels cover exactly the stripes a serial scan would decode.
  Result<std::vector<ScanMorsel>> PlanScanMorselsAt(const table::PinnedReadPtr& pin,
                                                    const table::ScanSpec& spec,
                                                    size_t stripes_per_morsel) override;
  /// UNION READ over one morsel: the master stripe range merged with the
  /// attached modifications in the morsel's record-ID window — the map-side
  /// InputFormat merge of the paper, one per morsel. Within a morsel,
  /// batches arrive in record-ID order.
  Result<std::unique_ptr<table::BatchIterator>> ScanMorselAt(
      const table::PinnedReadPtr& pin, const ScanMorsel& morsel,
      const table::ScanSpec& spec, table::ScanMeter* meter) override;
  Status InsertRows(const std::vector<Row>& rows) override;
  /// INSERT OVERWRITE TABLE: a fresh master generation + empty attached.
  Status OverwriteRows(const std::vector<Row>& rows) override;
  /// The plan mode's forced plan, else the §IV cost model at the hinted
  /// ratio or the metadata table's ratio history (the configured default
  /// without one) — the paper's cost evaluator ("directly be given by the
  /// designer" is the hint).
  table::DmlPlanChoice PlanDml(table::DmlKind kind,
                               std::optional<double> ratio_hint) const override;
  /// EDIT: modification records into the attached table; OVERWRITE: a new
  /// master generation. Serialized with every other writer.
  Result<table::DmlResult> ExecuteDml(const table::DmlSpec& spec,
                                      const table::DmlPlanChoice& choice) override;
  /// The attached table's emptiness decides a full COMPACT; an incremental
  /// one plans each file's delta density at a snapshot (the plan's pin).
  Result<table::CompactPlan> PlanCompact(bool incremental) const override;
  /// Compact() or CompactIncremental(tracer, &plan) under the writer lock;
  /// NONE when the attached table turned out to hold nothing to fold.
  Result<table::CompactResult> ExecuteCompact(const table::CompactPlan& plan,
                                              obs::Tracer* tracer = nullptr) override;
  Status Drop() override;

  // --- MVCC snapshots ---

  /// Pins the table's current committed state: the master generation plus
  /// the attached store at the last published commit timestamp, captured
  /// atomically. Scans built from the snapshot return byte-identical results
  /// to a scan executed at acquisition time, no matter how many EDITs,
  /// COMPACTs, or OVERWRITEs commit meanwhile. Unsynced (unacknowledged)
  /// EDIT cells are invisible. Releasing the last SnapshotPtr unpins the
  /// generation and lets deferred file GC run.
  SnapshotPtr AcquireSnapshot() const;

  /// Tracker behind the snapshot.* metric views.
  const SnapshotTracker* snapshot_tracker() const { return snapshot_tracker_.get(); }

  /// EDIT commit: publishes the attached store's clock as the new commit
  /// timestamp, making everything written so far visible to snapshots
  /// acquired afterwards. The DML paths call this after their WAL sync;
  /// code writing through attached() directly (UDTF-style extensions,
  /// white-box tests) must call it itself or its cells stay invisible.
  void PublishEditCommit();

  // --- DualTable-specific operations ---

  /// COMPACT (paper §III-C): UNION READ into a new master generation, then
  /// clear the attached table. Blocks every other writer on this table.
  Status Compact();

  /// Incremental COMPACT: rewrites only the master files whose attached
  /// delta density crosses the cost-model threshold (clean stripes inside a
  /// rewritten file are raw-copied without decoding), publishes the swapped
  /// file set through the same manifest commit as full COMPACT, then
  /// tombstones exactly the folded records' attached cells. Kept files and
  /// their attached deltas are untouched, so read-after-update latency stays
  /// flat instead of saw-toothing on full rewrites. `tracer` (optional)
  /// receives compact-plan / compact-rewrite spans for EXPLAIN ANALYZE.
  /// `planned` (a PlanCompact(true) result) is reused when the table still
  /// shows its snapshot; otherwise, or without one, the files are planned
  /// under the writer lock.
  Result<IncrementalCompactStats> CompactIncremental(
      obs::Tracer* tracer = nullptr, const table::CompactPlan* planned = nullptr);

  /// The density at/above which a file is rewritten: the explicit override
  /// when set, else the calibrated cost model's update crossover ratio for
  /// the current master size.
  double IncrementalDensityThreshold() const;

  /// One background-scheduler round of maintenance: observes stripe
  /// densities into the metrics histogram, runs incremental COMPACT when the
  /// plan selects files, and falls back to full COMPACT when attached bytes
  /// exceed the threshold without any single file being dense enough. With
  /// options_.adaptive_maintenance the round starts with a telemetry check
  /// (AdaptiveTriggerReason) and skips all of the above — preview scan
  /// included — until a trigger fires.
  void BackgroundMaintenance();

  /// True when the attached table exceeds the compaction threshold.
  bool NeedsCompaction() const;

  /// Snapshot read: the table as it looked when the attached table's clock
  /// was at `as_of` (see AttachedTable::LastTimestamp). Built on the HBase
  /// multi-version feature the paper highlights in §V-C; only history since
  /// the last COMPACT/OVERWRITE is reconstructible (both reset the clock).
  Result<std::unique_ptr<table::RowIterator>> ScanAsOf(const table::ScanSpec& spec,
                                                       uint64_t as_of);

  /// Cost-model UPDATE decision that WOULD be taken at update ratio
  /// `alpha` (exposed for the cost-model ablation bench).
  table::PlanDecision PreviewUpdateDecision(double alpha) const;

  // --- Secondary index (point-lookup serving tier) ---

  /// True for the columns in options.indexed_columns.
  bool IndexesColumn(size_t column) const override;

  /// Index-driven point lookup: resolves candidate record IDs for the probe
  /// values through the pinned index snapshot, fetches exactly the stripes
  /// holding them (through the shared stripe cache), patches attached
  /// modifications, and re-verifies the indexed column against the probes —
  /// so stale index entries are dropped, never served. Results are
  /// (record_id, row) pairs in ascending record-ID order, i.e. exactly the
  /// order and content a full UNION READ scan with `WHERE col IN (probes)`
  /// under the same snapshot would produce. Rows are projected per
  /// spec.projection (full width when empty) and filtered by spec.predicate.
  /// Fails when `column` is not indexed or `pin` is not this table's snapshot.
  Result<std::vector<std::pair<uint64_t, Row>>> IndexLookupAt(
      const table::PinnedReadPtr& pin, size_t column, const std::vector<Value>& probes,
      const table::ScanSpec& spec) override;

  /// nullptr when options.indexed_columns is empty.
  SecondaryIndex* secondary_index() { return index_.get(); }

  MasterTable* master() { return master_.get(); }
  AttachedTable* attached() { return attached_.get(); }
  const CostModel& cost_model() const { return cost_model_; }
  /// Point-in-time copy of the cost-model coefficients (the calibration loop
  /// mutates them; a copy keeps cross-thread readers race-free).
  CostModelParams cost_model_params() const;

 private:
  DualTable(fs::SimFileSystem* fs, MetadataTable* metadata, std::string name,
            Schema schema, DualTableOptions options, const fs::ClusterModel* cluster)
      : fs_(fs),
        metadata_(metadata),
        name_(std::move(name)),
        schema_(std::move(schema)),
        options_(std::move(options)),
        cluster_(cluster),
        cost_model_(cluster, options_.cost_params) {}

  // All internal UNION READ constructors read from an explicit snapshot;
  // there is no latest-visible read path left (lint rule 8). `reads` is
  // fixed per call site: user scans kCached, statement-internal kUncached.
  Result<std::unique_ptr<UnionReadBatchIterator>> NewUnionReadBatch(
      const SnapshotPtr& snapshot, const table::ScanSpec& spec, StripeReads reads,
      uint64_t as_of = UINT64_MAX);
  /// ScanMorselAt; incremental COMPACT reads its one-stripe morsels
  /// kUncached, like every statement-internal scan.
  Result<std::unique_ptr<UnionReadBatchIterator>> NewUnionReadBatchForMorselAt(
      const SnapshotPtr& snapshot, const ScanMorsel& morsel, const table::ScanSpec& spec,
      table::ScanMeter* meter, StripeReads reads = StripeReads::kCached);
  Result<std::unique_ptr<UnionReadBatchIterator>> NewUnionReadBatchForFile(
      const SnapshotPtr& snapshot, uint64_t file_id, const table::ScanSpec& spec,
      StripeReads reads);

  /// Statement-internal UNION READ (DML locate, OVERWRITE, COMPACT, index
  /// rebuild) over `snapshot`, restricted to one master file when `file_id`
  /// is set: drains the scan into `consume` batch by batch. Stripes are read
  /// uncached, rows and bytes go to a statement-local meter (only the
  /// pruning counters reach spec.meter or the global meter), and the
  /// union_read.* histograms see nothing — the statement's caller meters its
  /// scan itself, and adaptive maintenance reads those histograms.
  Status ScanInternal(const SnapshotPtr& snapshot, const table::ScanSpec& spec,
                      std::optional<uint64_t> file_id,
                      const std::function<Status(const table::RowBatch&)>& consume);
  /// Clears stripe-stat bounds when the snapshot's attached state could
  /// invalidate them.
  table::ScanSpec MasterSpecFor(const table::ScanSpec& spec,
                                const SnapshotPtr& snapshot) const;

  /// COMPACT/OVERWRITE commit: swaps in the new master file set and clears
  /// the attached store as one atomic visibility event — a concurrent
  /// AcquireSnapshot sees either the old (generation, deltas) pair or the
  /// new (generation, empty) pair, never a torn mix.
  Status PublishRewrite(std::vector<MasterFileInfo> new_files);

  /// Incremental-COMPACT commit: swaps in `full_set` (kept files + rewritten
  /// replacements), then reclaims the folded attached cells — deltas of kept
  /// files survive. With `fold_complete` (no kept file held deltas) the store
  /// is cleared wholesale like a full COMPACT; otherwise `folded_record_ids`
  /// are tombstoned and the KV store merged to physically drop them. The
  /// manifest rename inside ReplaceAllFiles is the commit point; the
  /// reclamation is post-commit cleanup of cells whose file IDs just died
  /// (invisible to UNION READ either way).
  Status PublishIncrementalRewrite(std::vector<MasterFileInfo> full_set,
                                   const std::vector<uint64_t>& folded_record_ids,
                                   bool fold_complete);

  /// Reclaims folded attached cells: the whole store when `all`, else the
  /// cells of `record_ids`, merged away with their tombstones. Publishes the
  /// new attached clock. Caller holds mu_ and snapshot_mu_.
  Status ReclaimAttached(const std::vector<uint64_t>& record_ids, bool all);

  /// Drops the attached store when it holds only dead weight (tombstones and
  /// the cells they mask): re-plans under mu_ and clears the store iff the
  /// scan surfaces zero modifications. Called by BackgroundMaintenance when
  /// the byte debt crosses the compact threshold with no live deltas behind
  /// it.
  void ReclaimAttachedGarbage();

  /// Adaptive-maintenance decision (DESIGN.md §14): rotates the union-read
  /// latency window to "now", updates the decision gauges, and returns the
  /// trigger reason — "density" / "latency" / "bytes" — or nullptr when the
  /// round should be skipped. Reads only O(1) gauges and the histogram ring;
  /// never scans the attached store.
  const char* AdaptiveTriggerReason();

  /// Plan computation against a pinned snapshot (one attached scan, binned
  /// into stripe row windows two-pointer style).
  Result<table::IncrementalCompactionPlan> PreviewIncrementalCompactionAt(
      const SnapshotPtr& snapshot) const;
  /// True while the committed state and the density threshold are still
  /// those `planned` was made at, so a re-plan would select the same files.
  /// Caller holds mu_.
  bool PlanStillHolds(const table::CompactPlan& planned);

  /// Rewrites one selected file into (at most) one replacement: dirty
  /// stripes are re-encoded from the batch UNION READ of that stripe
  /// (updates patched, deletes masked), clean stripes raw-copied. Appends
  /// the replacement's info to `new_files` (nothing when every row was
  /// deleted) and the folded record IDs to `folded`.
  Status RewriteFileIncremental(const SnapshotPtr& snapshot,
                                const table::FileCompactionPlan& file,
                                std::vector<MasterFileInfo>* new_files,
                                std::vector<uint64_t>* folded,
                                IncrementalCompactStats* stats);

  /// Open-time index recovery: compares the index meta row against the
  /// table's (master generation, attached clock, column set) and rebuilds
  /// from a full UNION READ scan on any mismatch — the crash-consistency
  /// backstop for the stale-tolerant maintenance protocol.
  Status EnsureIndexFresh();
  Status RebuildIndex();

  /// Indexes freshly written (not yet visible) master files by streaming
  /// their indexed-column projection straight from ORC. Called BEFORE the
  /// generation swap so no snapshot can need entries that are not yet
  /// synced.
  Status IndexStagedFiles(const std::vector<MasterFileInfo>& files);

  /// Records the just-committed table state in the index meta row. Called
  /// after every visibility event; a crash beforehand only costs an
  /// Open-time rebuild.
  Status CommitIndexMeta();

  /// The paper's UPDATE and DELETE UDTFs (the EDIT plan).
  Result<table::DmlResult> ExecuteEdit(const table::DmlSpec& spec);
  /// Hive's INSERT OVERWRITE translation (the OVERWRITE plan).
  Result<table::DmlResult> ExecuteOverwrite(const table::DmlSpec& spec);

  /// Streams the union-read view through `transform` into a fresh master
  /// generation; used by OVERWRITE plans and COMPACT. `transform` returns
  /// false to drop the row and may mutate it in place; an error abandons
  /// the rewrite before the publish, leaving the table unchanged.
  Status RewriteMaster(const std::function<Result<bool>(Row* row)>& transform);

  /// COMPACT's parallel rewrite: one job per master file on options_.pool,
  /// each streaming its file's union-read view into fresh files; all new
  /// files land in ONE ReplaceAllFiles call, so the manifest rename stays
  /// the single commit point.
  Status RewriteMasterParallel();

  double AvgRowBytes() const;

  /// Feeds the duration histograms and (under kCostModel, when a cost_audit
  /// is wired) appends the predicted-vs-measured audit record for one DML
  /// statement.
  void RecordDmlObservation(table::DmlKind kind, const table::DmlPlanChoice& choice,
                            const table::DmlResult& result, double wall_seconds,
                            const fs::IoSnapshot& io_before);
  /// Wraps a batch iterator so the UNION READ rows histogram observes the
  /// total rows it emitted; pass-through when no metrics are wired.
  std::unique_ptr<table::BatchIterator> ObserveUnionReadRows(
      std::unique_ptr<table::BatchIterator> it);

  fs::SimFileSystem* fs_;
  MetadataTable* metadata_;
  std::string name_;
  Schema schema_;
  DualTableOptions options_;
  const fs::ClusterModel* cluster_;
  CostModel cost_model_;
  /// Guards cost_model_: the calibration loop mutates its params on the DML
  /// thread while the scheduler thread reads crossover ratios for the
  /// incremental threshold. Leaf lock — never held while taking mu_ or
  /// snapshot_mu_.
  mutable std::mutex cost_model_mu_;
  obs::Histogram* edit_hist_ = nullptr;       // EDIT-plan DML wall seconds
  obs::Histogram* overwrite_hist_ = nullptr;  // OVERWRITE-plan DML wall seconds
  obs::Histogram* compact_hist_ = nullptr;    // COMPACT wall seconds
  obs::Histogram* union_read_rows_hist_ = nullptr;  // rows per UNION READ scan
  obs::Histogram* union_read_seconds_hist_ = nullptr;  // wall seconds per UNION READ
  obs::Histogram* incremental_compact_hist_ = nullptr;  // incremental COMPACT wall s
  obs::Histogram* stripe_density_hist_ = nullptr;       // density ppm per stripe
  obs::Counter* stripes_rewritten_ctr_ = nullptr;
  obs::Counter* stripes_copied_ctr_ = nullptr;
  obs::Counter* mods_folded_ctr_ = nullptr;
  obs::Gauge* edit_scale_gauge_ = nullptr;       // edit_cost_scale × 1e6
  obs::Gauge* overwrite_scale_gauge_ = nullptr;  // overwrite_cost_scale × 1e6
  // Adaptive-maintenance decision instruments (maintenance.*, DESIGN.md §14).
  // Counters/gauges are labeled by table; the trigger counters by reason.
  obs::Counter* maint_rounds_ctr_ = nullptr;
  obs::Counter* maint_skips_ctr_ = nullptr;
  obs::Counter* maint_preview_scans_ctr_ = nullptr;
  obs::Counter* maint_incremental_ctr_ = nullptr;
  obs::Counter* maint_full_ctr_ = nullptr;
  obs::Counter* maint_reclaims_ctr_ = nullptr;
  obs::Counter* maint_trigger_density_ctr_ = nullptr;
  obs::Counter* maint_trigger_latency_ctr_ = nullptr;
  obs::Counter* maint_trigger_bytes_ctr_ = nullptr;
  obs::Gauge* maint_p95_gauge_ = nullptr;      // windowed union-read p95, µs
  obs::Gauge* maint_density_gauge_ = nullptr;  // attached-delta density, ppm
  std::unique_ptr<MasterTable> master_;
  std::unique_ptr<AttachedTable> attached_;
  /// KV-hosted secondary index; nullptr when no columns are indexed.
  std::unique_ptr<SecondaryIndex> index_;
  /// Serializes writers (DML, COMPACT). Reads no longer take it: they pin a
  /// snapshot and scan immutable state, so scans and COMPACT coexist.
  mutable std::recursive_mutex mu_;
  /// Guards the snapshot view (commit_ts_ + the generation/attached pair as
  /// one visibility unit). Ordering: mu_ before snapshot_mu_; never inverted.
  mutable std::mutex snapshot_mu_;
  /// Commit timestamp of the last acknowledged (WAL-synced) EDIT; snapshots
  /// read the attached store as of this clock value.
  uint64_t commit_ts_ = 0;
  /// Commit timestamp for the index store, advanced under snapshot_mu_ in
  /// the same critical section as the event whose entries it covers, so a
  /// snapshot's index view and table view always agree.
  uint64_t index_commit_ts_ = 0;
  std::shared_ptr<SnapshotTracker> snapshot_tracker_ =
      std::make_shared<SnapshotTracker>();
  uint64_t scheduler_job_ = 0;  // background-compaction handle; 0 = none
};

}  // namespace dtl::dual
