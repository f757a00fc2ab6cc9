#include "baseline/acid_table.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "orc/reader.h"
#include "table/scan_stats.h"

namespace dtl::baseline {

namespace {
constexpr int64_t kOpUpdate = 0;
constexpr int64_t kOpDelete = 1;
}  // namespace

/// Merge-on-read: each base batch with the preloaded delta map overlaid. A
/// deleted record leaves the selection vector, an updated record replaces
/// its whole row through copy-on-write columns, and the predicate then runs
/// on the merged batch. The base scan meters into `base_meter`, a private
/// meter; the caller's meter sees each emitted batch's rows and, when the
/// scan ends, the base scan's pruning counters.
class AcidBatchIterator : public table::BatchIterator {
 public:
  AcidBatchIterator(std::unique_ptr<table::ScanMeter> base_meter,
                    std::unique_ptr<dual::MasterScanBatchIterator> base,
                    AcidTable::DeltaMap deltas, table::ScanSpec spec)
      : base_meter_(std::move(base_meter)),
        base_(std::move(base)),
        deltas_(std::move(deltas)),
        spec_(std::move(spec)) {}
  ~AcidBatchIterator() override { meter().Add(base_meter_->Snapshot().PruningOnly()); }

  bool Next(table::RowBatch* batch) override {
    while (base_->Next(batch)) {
      Overlay(batch);
      if (spec_.predicate) {
        batch->FilterSelected(spec_.predicate, &scratch_, base_meter_.get());
      }
      if (batch->empty()) continue;
      meter().AddBatch(batch->size(), 0);
      return true;
    }
    return false;
  }

  const Status& status() const override { return base_->status(); }

 private:
  table::ScanMeter& meter() {
    return spec_.meter != nullptr ? *spec_.meter : table::GlobalScanMeter();
  }

  /// Base batches are contiguous record-ID slices, so the deltas touching
  /// one are a single range of the map.
  void Overlay(table::RowBatch* batch) {
    const size_t n = batch->num_rows();
    if (deltas_.empty() || n == 0) return;
    DTL_DCHECK(batch->contiguous_record_ids());
    const uint64_t first_id = batch->record_id(0);
    auto delta = deltas_.lower_bound(first_id);
    if (delta == deltas_.end() || delta->first >= first_id + n) return;
    std::vector<bool> deleted(n, false);
    size_t num_deleted = 0;
    for (; delta != deltas_.end() && delta->first < first_id + n; ++delta) {
      const size_t idx = static_cast<size_t>(delta->first - first_id);
      if (delta->second.deleted) {
        deleted[idx] = true;
        ++num_deleted;
        continue;
      }
      const Row& row = delta->second.row;
      for (size_t c = 0; c < row.size() && c < batch->num_columns(); ++c) {
        batch->column(c).MakeMutable(n)[idx] = row[c];
      }
    }
    if (num_deleted == 0) return;
    std::vector<uint32_t> selection;
    selection.reserve(n - num_deleted);
    for (size_t i = 0; i < n; ++i) {
      if (!deleted[i]) selection.push_back(static_cast<uint32_t>(i));
    }
    batch->SetSelection(std::move(selection));
  }

  std::unique_ptr<table::ScanMeter> base_meter_;  // outlives base_
  std::unique_ptr<dual::MasterScanBatchIterator> base_;
  AcidTable::DeltaMap deltas_;
  table::ScanSpec spec_;
  Row scratch_;
};

Result<std::shared_ptr<AcidTable>> AcidTable::Open(fs::SimFileSystem* fs,
                                                   dual::MetadataTable* metadata,
                                                   const std::string& name, Schema schema,
                                                   AcidTableOptions options) {
  auto acid =
      std::shared_ptr<AcidTable>(new AcidTable(fs, name, schema, std::move(options)));
  DTL_ASSIGN_OR_RETURN(
      acid->base_, dual::MasterTable::Open(fs, metadata, name, std::move(schema),
                                           acid->options_.warehouse_dir,
                                           acid->options_.writer_options));
  DTL_RETURN_NOT_OK(fs->CreateDir(acid->DeltaDir()));
  DTL_ASSIGN_OR_RETURN(auto names, fs->ListDir(acid->DeltaDir()));
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const std::string& n : names) {
    // A crash can leave a staged-but-uncommitted delta_*.orc.tmp; that
    // statement was never acknowledged, so discard it.
    if (n.size() >= 4 && n.compare(n.size() - 4, 4, ".tmp") == 0) {
      DTL_RETURN_NOT_OK(fs->Delete(fs::JoinPath(acid->DeltaDir(), n)));
      continue;
    }
    if (n.rfind("delta_", 0) != 0) continue;
    uint64_t txn = 0;
    auto r = std::from_chars(n.data() + 6, n.data() + n.size(), txn);
    if (r.ec != std::errc()) continue;
    if (std::string(r.ptr, n.data() + n.size() - r.ptr) != ".orc") continue;
    found.emplace_back(txn, fs::JoinPath(acid->DeltaDir(), n));
    acid->next_txn_ = std::max(acid->next_txn_, txn + 1);
  }
  std::sort(found.begin(), found.end());
  for (auto& [txn, path] : found) acid->delta_files_.push_back(path);
  return acid;
}

Schema AcidTable::DeltaSchema() const {
  std::vector<Field> fields;
  fields.push_back(Field{"__op", DataType::kInt64});
  fields.push_back(Field{"__record_id", DataType::kInt64});
  for (const Field& f : schema_.fields()) fields.push_back(f);
  return Schema(std::move(fields));
}

std::string AcidTable::DeltaDir() const {
  return fs::JoinPath(options_.warehouse_dir, name_ + "_delta");
}

std::string AcidTable::DeltaPath(uint64_t txn) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "delta_%08llu.orc", static_cast<unsigned long long>(txn));
  return fs::JoinPath(DeltaDir(), buf);
}

Result<AcidTable::DeltaMap> AcidTable::LoadDeltas() const {
  DeltaMap map;
  uint64_t txn_index = 0;
  for (const std::string& path : delta_files_) {
    ++txn_index;
    DTL_ASSIGN_OR_RETURN(auto reader, orc::OrcReader::Open(fs_, path));
    // Full sequential read of the delta file — the cost Hive ACID pays that
    // DualTable's random-access attached table avoids.
    orc::OrcRowIterator it(reader.get(), {});
    while (it.Next()) {
      const Row& raw = it.row();
      if (raw.size() < 2 || raw[0].is_null() || raw[1].is_null()) {
        return Status::Corruption("malformed delta row in " + path);
      }
      DeltaEntry entry;
      entry.txn = txn_index;
      entry.deleted = raw[0].AsInt64() == kOpDelete;
      const uint64_t record_id = static_cast<uint64_t>(raw[1].AsInt64());
      if (!entry.deleted) entry.row.assign(raw.begin() + 2, raw.end());
      auto existing = map.find(record_id);
      if (existing == map.end() || existing->second.txn <= entry.txn) {
        map[record_id] = std::move(entry);  // latest transaction wins
      }
    }
    DTL_RETURN_NOT_OK(it.status());
  }
  return map;
}

Result<std::unique_ptr<table::BatchIterator>> AcidTable::ScanBatchesAt(
    const table::PinnedReadPtr&, const table::ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(DeltaMap deltas, LoadDeltas());
  table::ScanSpec base_spec = spec;
  if (!deltas.empty()) {
    // Updated records replace whole rows, so projection pruning must keep
    // every column that could come from a delta; read full rows.
    base_spec.projection.clear();
    base_spec.bounds.clear();
  }
  auto base_meter = std::make_unique<table::ScanMeter>();
  base_spec.meter = base_meter.get();
  DTL_ASSIGN_OR_RETURN(auto base_it, base_->NewBatchScanIterator(
                                         base_spec, /*apply_predicate=*/false,
                                         table::kDefaultBatchRows,
                                         dual::StripeReads::kUncached));
  return std::unique_ptr<table::BatchIterator>(new AcidBatchIterator(
      std::move(base_meter), std::move(base_it), std::move(deltas), spec));
}

Status AcidTable::InsertRows(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  DTL_ASSIGN_OR_RETURN(auto writer, base_->NewFileWriter());
  for (const Row& row : rows) DTL_RETURN_NOT_OK(writer->Append(row));
  DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
  return base_->RegisterFile(std::move(info));
}

Status AcidTable::OverwriteRows(const std::vector<Row>& rows) {
  std::vector<dual::MasterFileInfo> new_files;
  if (!rows.empty()) {
    DTL_ASSIGN_OR_RETURN(auto writer, base_->NewFileWriter());
    for (const Row& row : rows) DTL_RETURN_NOT_OK(writer->Append(row));
    DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
    new_files.push_back(std::move(info));
  }
  DTL_RETURN_NOT_OK(base_->ReplaceAllFiles(std::move(new_files)));
  std::vector<std::string> old = std::move(delta_files_);
  delta_files_.clear();
  for (const std::string& path : old) DTL_RETURN_NOT_OK(fs_->Delete(path));
  return Status::OK();
}

Status AcidTable::WriteDeltaFile(uint64_t txn, const std::vector<Row>& delta_rows) {
  // Stage + rename: the rename is the statement's commit point, so a crash
  // mid-write leaves no torn delta and the statement simply never happened.
  const std::string path = DeltaPath(txn);
  DTL_ASSIGN_OR_RETURN(auto writer,
                       orc::OrcWriter::Create(fs_, path + ".tmp", DeltaSchema(), txn,
                                              options_.writer_options));
  for (const Row& row : delta_rows) DTL_RETURN_NOT_OK(writer->Append(row));
  DTL_RETURN_NOT_OK(writer->Close());
  DTL_RETURN_NOT_OK(fs_->Rename(path + ".tmp", path));
  delta_files_.push_back(path);
  return Status::OK();
}

table::DmlPlanChoice AcidTable::PlanDml(table::DmlKind, std::optional<double>) const {
  return table::DmlPlanChoice::Fixed(kDmlPlan);
}

Result<table::DmlResult> AcidTable::ExecuteDml(const table::DmlSpec& spec,
                                               const table::DmlPlanChoice& choice) {
  if (choice.plan != kDmlPlan) return table::UnsupportedDmlPlan(name_, choice.plan);
  table::DmlResult result;
  result.plan = kDmlPlan;
  result.rows_scanned = base_->TotalRows();

  // An update delta stores the whole record, so UPDATE scans full rows.
  const bool update = spec.kind == table::DmlKind::kUpdate;
  table::ScanSpec scan = spec.LocateSpec();
  if (update) scan.projection.clear();
  std::vector<Row> delta_rows;
  const size_t width = schema_.num_fields();
  DTL_RETURN_NOT_OK(table::ScanInternalRows(this, scan, [&](uint64_t id, const Row& row) {
    ++result.rows_matched;
    Row delta;
    delta.reserve(width + 2);
    delta.push_back(Value::Int64(update ? kOpUpdate : kOpDelete));
    delta.push_back(Value::Int64(static_cast<int64_t>(id)));
    Row record = update ? row : Row(width, Value::Null());
    if (update) DTL_RETURN_NOT_OK(spec.Apply(&record).status());
    delta.insert(delta.end(), record.begin(), record.end());
    delta_rows.push_back(std::move(delta));
    return Status::OK();
  }));
  DTL_RETURN_NOT_OK(WriteDeltaFile(next_txn_++, delta_rows));
  return result;
}

Status AcidTable::MinorCompact() {
  if (delta_files_.size() <= 1) return Status::OK();
  DTL_ASSIGN_OR_RETURN(DeltaMap deltas, LoadDeltas());
  std::vector<Row> merged;
  merged.reserve(deltas.size());
  const size_t width = schema_.num_fields();
  for (auto& [record_id, entry] : deltas) {
    Row delta;
    delta.push_back(Value::Int64(entry.deleted ? kOpDelete : kOpUpdate));
    delta.push_back(Value::Int64(static_cast<int64_t>(record_id)));
    if (entry.deleted) {
      delta.insert(delta.end(), width, Value::Null());
    } else {
      delta.insert(delta.end(), entry.row.begin(), entry.row.end());
    }
    merged.push_back(std::move(delta));
  }
  std::vector<std::string> old = std::move(delta_files_);
  delta_files_.clear();
  DTL_RETURN_NOT_OK(WriteDeltaFile(next_txn_++, merged));
  for (const std::string& path : old) DTL_RETURN_NOT_OK(fs_->Delete(path));
  return Status::OK();
}

Result<table::CompactPlan> AcidTable::PlanCompact(bool incremental) const {
  if (incremental) return table::UnsupportedCompact(incremental);
  table::CompactPlan plan;
  if (delta_files_.empty()) {
    plan.reason = "no delta files";
  } else {
    plan.action = table::CompactAction::kRewrite;
    plan.reason = "major compaction: fold " + std::to_string(delta_files_.size()) +
                  " delta file(s) into a new base";
  }
  return plan;
}

Result<table::CompactResult> AcidTable::ExecuteCompact(const table::CompactPlan& plan,
                                                       obs::Tracer*) {
  if (plan.action != table::CompactAction::kRewrite || delta_files_.empty()) {
    return table::CompactResult{table::CompactAction::kNone, "no delta files"};
  }
  table::CompactResult result{table::CompactAction::kRewrite,
                              "folded " + std::to_string(delta_files_.size()) +
                                  " delta file(s) into a new base"};
  dual::RollingFileWriter out(base_.get(), options_.rewrite_file_rows);
  auto append = [&out](uint64_t, const Row& row) { return out.Append(row); };
  DTL_RETURN_NOT_OK(table::ScanInternalRows(this, table::ScanSpec{}, append));
  DTL_RETURN_NOT_OK(out.Finish());
  DTL_RETURN_NOT_OK(base_->ReplaceAllFiles(std::move(out.files())));
  std::vector<std::string> old = std::move(delta_files_);
  delta_files_.clear();
  for (const std::string& path : old) DTL_RETURN_NOT_OK(fs_->Delete(path));
  return result;
}

uint64_t AcidTable::DeltaBytes() const {
  uint64_t total = 0;
  for (const std::string& path : delta_files_) {
    auto size = fs_->FileSize(path);
    if (size.ok()) total += *size;
  }
  return total;
}

Status AcidTable::Drop() {
  DTL_RETURN_NOT_OK(base_->Drop());
  return fs_->DeleteRecursively(DeltaDir());
}

}  // namespace dtl::baseline
