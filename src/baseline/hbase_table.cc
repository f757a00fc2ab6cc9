#include "baseline/hbase_table.h"

#include "common/coding.h"

namespace dtl::baseline {

namespace {

std::string RowKey(uint64_t id) {
  std::string key;
  PutBigEndian64(&key, id);
  return key;
}

/// Materializes KV rows into relational rows, applying spec columns and
/// predicate. Pays a per-cell decode on every scanned row — the structural
/// reason Hive(HBase) loses batch-read benchmarks.
class HBaseRowIterator : public table::RowIterator {
 public:
  HBaseRowIterator(std::unique_ptr<kv::RowScanner> rows, table::ScanSpec spec,
                   size_t num_fields)
      : rows_(std::move(rows)), spec_(std::move(spec)), num_fields_(num_fields) {
    required_ = spec_.RequiredColumns(num_fields_);
    needed_.assign(num_fields_, false);
    for (size_t c : required_) needed_[c] = true;
  }

  bool Next() override {
    while (rows_->Next()) {
      const kv::RowView& view = rows_->view();
      if (view.row.size() != 8) continue;  // non-data row
      row_.assign(num_fields_, Value::Null());
      bool bad = false;
      for (const kv::Cell& cell : view.cells) {
        if (cell.key.qualifier >= num_fields_) continue;
        if (!needed_[cell.key.qualifier]) continue;
        Slice in(cell.value.value);
        Value v;
        Status st = Value::DecodeFrom(&in, &v);
        if (!st.ok()) {
          status_ = st;
          bad = true;
          break;
        }
        row_[cell.key.qualifier] = std::move(v);
      }
      if (bad) return false;
      if (spec_.predicate && !spec_.predicate(row_)) continue;
      record_id_ = DecodeBigEndian64(view.row.data());
      return true;
    }
    status_ = rows_->status();
    return false;
  }

  const Row& row() const override { return row_; }
  uint64_t record_id() const override { return record_id_; }
  const Status& status() const override { return status_; }

 private:
  std::unique_ptr<kv::RowScanner> rows_;
  table::ScanSpec spec_;
  size_t num_fields_;
  std::vector<size_t> required_;
  std::vector<bool> needed_;
  Row row_;
  uint64_t record_id_ = 0;
  Status status_;
};

}  // namespace

Result<std::shared_ptr<HBaseTable>> HBaseTable::Open(fs::SimFileSystem* fs,
                                                     const std::string& name,
                                                     Schema schema,
                                                     HBaseTableOptions options) {
  options.store_options.dir = "/hbase/" + name;
  std::string dir = options.store_options.dir;
  auto hbase = std::shared_ptr<HBaseTable>(
      new HBaseTable(fs, name, std::move(schema), std::move(dir)));
  DTL_ASSIGN_OR_RETURN(hbase->store_,
                       kv::KvStore::Open(fs, std::move(options.store_options)));
  return hbase;
}

Result<uint64_t> HBaseTable::NextRowId() {
  if (!row_id_loaded_) {
    // Recover the high-water mark with one full key scan (open-time cost).
    auto scanner = store_->NewCellScanner();
    uint64_t max_id = 0;
    while (scanner->Valid()) {
      const kv::Cell& cell = scanner->cell();
      if (cell.key.row.size() == 8) {
        max_id = std::max(max_id, DecodeBigEndian64(cell.key.row.data()));
      }
      scanner->Next();
    }
    DTL_RETURN_NOT_OK(scanner->status());
    next_row_id_ = max_id + 1;
    row_id_loaded_ = true;
  }
  return next_row_id_++;
}

Result<std::unique_ptr<table::RowIterator>> HBaseTable::Scan(const table::ScanSpec& spec) {
  return std::unique_ptr<table::RowIterator>(
      new HBaseRowIterator(store_->NewRowScanner(), spec, schema_.num_fields()));
}

Status HBaseTable::InsertRows(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    if (row.size() != schema_.num_fields()) {
      return Status::InvalidArgument("row arity does not match schema");
    }
    DTL_ASSIGN_OR_RETURN(uint64_t id, NextRowId());
    const std::string key = RowKey(id);
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].is_null()) continue;  // sparse storage: NULLs are absent cells
      std::string encoded;
      row[c].EncodeTo(&encoded);
      DTL_RETURN_NOT_OK(store_->Put(key, static_cast<uint32_t>(c), encoded));
    }
  }
  return Status::OK();
}

Status HBaseTable::OverwriteRows(const std::vector<Row>& rows) {
  DTL_RETURN_NOT_OK(store_->Clear());
  next_row_id_ = 1;
  row_id_loaded_ = true;
  return InsertRows(rows);
}

table::DmlPlanChoice HBaseTable::PlanDml(table::DmlKind, std::optional<double>) const {
  return table::DmlPlanChoice::Fixed(kDmlPlan);
}

Result<table::DmlResult> HBaseTable::ExecuteDml(const table::DmlSpec& spec,
                                                const table::DmlPlanChoice& choice) {
  if (choice.plan != kDmlPlan) return table::UnsupportedDmlPlan(name_, choice.plan);
  table::DmlResult result;
  result.plan = kDmlPlan;
  // Phase 1: collect the matches and their new values (cannot write into a
  // live scan, and every SET value is computed before the first write).
  std::vector<std::pair<uint64_t, std::vector<Value>>> matches;
  {
    DTL_ASSIGN_OR_RETURN(auto it, Scan(spec.LocateSpec()));
    std::vector<Value> values;
    while (it->Next()) {
      DTL_RETURN_NOT_OK(spec.ComputeSet(it->row(), &values));
      matches.emplace_back(it->record_id(), values);
    }
    DTL_RETURN_NOT_OK(it->status());
  }
  result.rows_matched = matches.size();
  result.rows_scanned = matches.size();  // the scan filters in the store
  // Phase 2: put only the changed cells, or tombstone the rows.
  for (const auto& [id, values] : matches) {
    const std::string key = RowKey(id);
    if (spec.kind == table::DmlKind::kDelete) {
      DTL_RETURN_NOT_OK(store_->DeleteRow(key));
      continue;
    }
    for (size_t a = 0; a < values.size(); ++a) {
      std::string encoded;
      values[a].EncodeTo(&encoded);
      DTL_RETURN_NOT_OK(
          store_->Put(key, static_cast<uint32_t>(spec.assignments[a].column), encoded));
    }
  }
  return result;
}

Status HBaseTable::Drop() {
  DTL_RETURN_NOT_OK(store_->Clear());
  return fs_->DeleteRecursively(dir_);
}

}  // namespace dtl::baseline
