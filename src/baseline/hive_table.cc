#include "baseline/hive_table.h"

#include "table/scan_stats.h"

namespace dtl::baseline {

Result<std::shared_ptr<HiveTable>> HiveTable::Open(fs::SimFileSystem* fs,
                                                   dual::MetadataTable* metadata,
                                                   const std::string& name, Schema schema,
                                                   HiveTableOptions options) {
  auto hive = std::shared_ptr<HiveTable>(new HiveTable(name, schema, std::move(options)));
  DTL_ASSIGN_OR_RETURN(
      hive->storage_, dual::MasterTable::Open(fs, metadata, name, std::move(schema),
                                              hive->options_.warehouse_dir,
                                              hive->options_.writer_options));
  return hive;
}

Result<std::unique_ptr<table::BatchIterator>> HiveTable::ScanBatchesAt(
    const table::PinnedReadPtr&, const table::ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(auto it,
                       storage_->NewBatchScanIterator(spec, /*apply_predicate=*/true));
  return std::unique_ptr<table::BatchIterator>(std::move(it));
}

Status HiveTable::InsertRows(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  DTL_ASSIGN_OR_RETURN(auto writer, storage_->NewFileWriter());
  for (const Row& row : rows) DTL_RETURN_NOT_OK(writer->Append(row));
  DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
  return storage_->RegisterFile(std::move(info));
}

Status HiveTable::OverwriteRows(const std::vector<Row>& rows) {
  dual::RollingFileWriter out(storage_.get(), options_.rewrite_file_rows);
  for (const Row& row : rows) DTL_RETURN_NOT_OK(out.Append(row));
  DTL_RETURN_NOT_OK(out.Finish());
  return storage_->ReplaceAllFiles(std::move(out.files()));
}

table::DmlPlanChoice HiveTable::PlanDml(table::DmlKind, std::optional<double>) const {
  return table::DmlPlanChoice::Fixed(kDmlPlan);
}

Result<table::DmlResult> HiveTable::ExecuteDml(const table::DmlSpec& spec,
                                               const table::DmlPlanChoice& choice) {
  if (choice.plan != kDmlPlan) return table::UnsupportedDmlPlan(name_, choice.plan);
  // INSERT OVERWRITE: read every record and every column, write everything
  // back — cost proportional to total data, not modified data. Like
  // DualTable's statement-internal scans, the read bypasses the stripe cache
  // and meters into a private meter. The files are staged until the final
  // ReplaceAllFiles, so a failing SET value leaves the table unchanged.
  table::DmlResult result;
  result.plan = kDmlPlan;
  result.rows_scanned = storage_->TotalRows();
  table::ScanMeter statement_meter;
  table::ScanSpec all;
  all.meter = &statement_meter;
  DTL_ASSIGN_OR_RETURN(auto it, storage_->NewBatchScanIterator(
                                    all, /*apply_predicate=*/false,
                                    table::kDefaultBatchRows, dual::StripeReads::kUncached));

  dual::RollingFileWriter out(storage_.get(), options_.rewrite_file_rows);
  table::RowBatch batch;
  Row row;
  while (it->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &row);
      bool keep = true;
      if (!spec.filter.predicate || spec.filter.predicate(row)) {
        ++result.rows_matched;
        DTL_ASSIGN_OR_RETURN(keep, spec.Apply(&row));
      }
      if (keep) DTL_RETURN_NOT_OK(out.Append(row));
    }
  }
  DTL_RETURN_NOT_OK(it->status());
  DTL_RETURN_NOT_OK(out.Finish());
  DTL_RETURN_NOT_OK(storage_->ReplaceAllFiles(std::move(out.files())));
  return result;
}

Status HiveTable::Drop() { return storage_->Drop(); }

}  // namespace dtl::baseline
