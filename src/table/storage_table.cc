#include "table/storage_table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "table/scan_stats.h"

namespace dtl::table {

bool RowIterator::Next() {
  while (index_ >= batch_.size()) {
    if (!batches_->Next(&batch_)) return false;
    index_ = 0;
  }
  batch_.MaterializeRow(index_, &row_);
  record_id_ = batch_.record_id(index_);
  ++index_;
  (meter_ != nullptr ? *meter_ : GlobalScanMeter()).AddMaterializedRows(1);
  return true;
}

const char* DmlPlanName(DmlPlan plan) {
  switch (plan) {
    case DmlPlan::kOverwrite:
      return "OVERWRITE";
    case DmlPlan::kEdit:
      return "EDIT";
    case DmlPlan::kInPlace:
      return "INPLACE";
    case DmlPlan::kDelta:
      return "DELTA";
  }
  return "?";
}

const char* CompactActionName(CompactAction action) {
  constexpr const char* kNames[] = {"NONE", "REWRITE", "INCREMENTAL"};
  return kNames[static_cast<size_t>(action)];
}

size_t IncrementalCompactionPlan::selected_files() const {
  size_t n = 0;
  for (const FileCompactionPlan& f : files) n += f.selected ? 1 : 0;
  return n;
}

uint64_t IncrementalCompactionPlan::total_delta_rows() const {
  uint64_t n = 0;
  for (const FileCompactionPlan& f : files) n += f.delta_rows;
  return n;
}

std::string IncrementalCompactionPlan::ToString() const {
  std::ostringstream out;
  out << "incremental compact plan: threshold=" << threshold << " files="
      << files.size() << " selected=" << selected_files() << " strays="
      << stray_record_ids.size();
  for (const FileCompactionPlan& f : files) {
    out << "\n  f_" << f.file_id << ": rows=" << f.rows << " deltas="
        << f.delta_rows << " density=" << f.density()
        << (f.selected ? " REWRITE" : " keep") << " stripes[";
    for (size_t s = 0; s < f.stripes.size(); ++s) {
      if (s > 0) out << " ";
      out << s << ":" << f.stripes[s].density();
    }
    out << "]";
  }
  return out.str();
}

const char* DmlPlanDescription(DmlPlan plan) {
  switch (plan) {
    case DmlPlan::kOverwrite:
      return "full INSERT OVERWRITE rewrite";
    case DmlPlan::kEdit:
      return "modification records into the attached table";
    case DmlPlan::kInPlace:
      return "in-place puts of the changed cells";
    case DmlPlan::kDelta:
      return "one new ACID delta file";
  }
  return "?";
}

const char* RatioSourceName(RatioSource source) {
  switch (source) {
    case RatioSource::kHint:
      return "WITH RATIO hint";
    case RatioSource::kHistory:
      return "history";
    case RatioSource::kDefault:
      return "default";
  }
  return "?";
}

std::string PlanDecision::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (overwrite=%.3fs edit=%.3fs diff=%.3fs)",
                DmlPlanName(plan), cost_overwrite_seconds, cost_edit_seconds,
                cost_difference_seconds);
  return buf;
}

DmlPlanChoice DmlPlanChoice::Fixed(DmlPlan plan) {
  DmlPlanChoice choice;
  choice.plan = plan;
  choice.chosen_by = PlanChooser::kFixed;
  return choice;
}

ScanSpec DmlSpec::LocateSpec() const {
  ScanSpec spec = filter;
  std::vector<size_t> needed = filter.predicate_columns;
  for (const Assignment& a : assignments) {
    needed.insert(needed.end(), a.input_columns.begin(), a.input_columns.end());
  }
  if (needed.empty()) needed.push_back(0);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  spec.projection = std::move(needed);
  return spec;
}

Status DmlSpec::ComputeSet(const Row& row, std::vector<Value>* values) const {
  values->clear();
  for (const Assignment& a : assignments) {
    DTL_ASSIGN_OR_RETURN(Value v, a.compute(row));
    values->push_back(std::move(v));
  }
  return Status::OK();
}

Result<bool> DmlSpec::Apply(Row* row) const {
  if (kind == DmlKind::kDelete) return false;
  std::vector<Value> values;
  DTL_RETURN_NOT_OK(ComputeSet(*row, &values));
  for (size_t i = 0; i < assignments.size(); ++i) {
    (*row)[assignments[i].column] = std::move(values[i]);
  }
  return true;
}

Status UnsupportedDmlPlan(const std::string& table, DmlPlan plan) {
  return Status::InvalidArgument(table + " cannot run the " + DmlPlanName(plan) +
                                 " plan");
}

Result<DmlResult> StorageTable::Update(const ScanSpec& filter,
                                       const std::vector<Assignment>& assignments,
                                       std::optional<double> ratio_hint) {
  DmlSpec spec{DmlKind::kUpdate, filter, assignments};
  return ExecuteDml(spec, PlanDml(DmlKind::kUpdate, ratio_hint));
}

Result<DmlResult> StorageTable::Delete(const ScanSpec& filter,
                                       std::optional<double> ratio_hint) {
  DmlSpec spec{DmlKind::kDelete, filter, {}};
  return ExecuteDml(spec, PlanDml(DmlKind::kDelete, ratio_hint));
}

std::vector<size_t> ScanSpec::RequiredColumns(size_t num_fields) const {
  if (projection.empty()) {
    std::vector<size_t> all(num_fields);
    for (size_t i = 0; i < num_fields; ++i) all[i] = i;
    return all;
  }
  std::vector<size_t> required = projection;
  required.insert(required.end(), predicate_columns.begin(), predicate_columns.end());
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()), required.end());
  return required;
}

Result<std::unique_ptr<RowIterator>> StorageTable::ScanAt(const PinnedReadPtr& pin,
                                                          const ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(auto it, ScanBatchesAt(pin, spec));
  return std::make_unique<RowIterator>(std::move(it), spec.meter);
}

Result<std::vector<ScanMorsel>> StorageTable::PlanScanMorselsAt(const PinnedReadPtr&,
                                                                const ScanSpec&, size_t) {
  return std::vector<ScanMorsel>(1);
}

Result<std::unique_ptr<BatchIterator>> StorageTable::ScanMorselAt(const PinnedReadPtr& pin,
                                                                  const ScanMorsel&,
                                                                  const ScanSpec& spec,
                                                                  ScanMeter* meter) {
  ScanSpec local = spec;
  local.meter = meter;
  return ScanBatchesAt(pin, local);
}

bool StorageTable::IndexesColumn(size_t) const { return false; }

Result<std::vector<std::pair<uint64_t, Row>>> StorageTable::IndexLookupAt(
    const PinnedReadPtr&, size_t, const std::vector<Value>&, const ScanSpec&) {
  return Status::NotSupported(name() + " has no secondary index");
}

Status UnsupportedCompact(bool incremental) {
  return Status::NotSupported(incremental
                                  ? "COMPACT INCREMENTAL supports dualtable tables only"
                                  : "COMPACT supports dualtable and acid tables only");
}

Result<CompactResult> StorageTable::ExecuteCompact(const CompactPlan& plan, obs::Tracer*) {
  return UnsupportedCompact(plan.action == CompactAction::kIncremental);
}

Result<uint64_t> StorageTable::CountRows() {
  ScanSpec spec;
  // Project the narrowest single column; counting does not need data, but a
  // scan must decode something.
  spec.projection = {0};
  DTL_ASSIGN_OR_RETURN(auto it, ScanBatches(spec));
  RowBatch batch;
  uint64_t count = 0;
  while (it->Next(&batch)) count += batch.size();
  DTL_RETURN_NOT_OK(it->status());
  return count;
}

Result<std::vector<Row>> CollectRows(StorageTable* table, const ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(auto it, table->Scan(spec));
  std::vector<Row> rows;
  while (it->Next()) rows.push_back(it->row());
  DTL_RETURN_NOT_OK(it->status());
  return rows;
}

Status ScanInternalRows(StorageTable* table, const ScanSpec& spec,
                        const std::function<Status(uint64_t, const Row&)>& consume) {
  ScanMeter statement_meter;
  ScanSpec local = spec;
  local.meter = &statement_meter;
  {
    // Scoped: a scan may fold its counters into the meter when it ends.
    DTL_ASSIGN_OR_RETURN(auto rows, table->Scan(local));
    while (rows->Next()) DTL_RETURN_NOT_OK(consume(rows->record_id(), rows->row()));
    DTL_RETURN_NOT_OK(rows->status());
  }
  (spec.meter != nullptr ? *spec.meter : GlobalScanMeter())
      .Add(statement_meter.Snapshot().PruningOnly());
  return Status::OK();
}

}  // namespace dtl::table
