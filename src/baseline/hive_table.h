// Hive(HDFS) baseline: the paper's primary comparison target. Data lives in
// ORC files on the (simulated) HDFS; UPDATE and DELETE can only be realized
// as INSERT OVERWRITE — a full rewrite of the table regardless of how little
// data changes, which is exactly the cost the paper attacks.
#pragma once

#include <memory>
#include <string>

#include "dualtable/master_table.h"
#include "dualtable/metadata.h"
#include "fs/filesystem.h"
#include "table/storage_table.h"

namespace dtl::baseline {

struct HiveTableOptions {
  orc::WriterOptions writer_options;
  std::string warehouse_dir = "/warehouse";
  uint64_t rewrite_file_rows = 1ull << 20;
};

/// Plain Hive-on-HDFS table (ORC storage, overwrite-only updates).
class HiveTable : public table::StorageTable {
 public:
  static Result<std::shared_ptr<HiveTable>> Open(fs::SimFileSystem* fs,
                                                 dual::MetadataTable* metadata,
                                                 const std::string& name, Schema schema,
                                                 HiveTableOptions options = {});

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  /// Reads the latest state; Hive has no pinned view.
  Result<std::unique_ptr<table::BatchIterator>> ScanBatchesAt(
      const table::PinnedReadPtr& pin, const table::ScanSpec& spec) override;
  Status InsertRows(const std::vector<Row>& rows) override;
  Status OverwriteRows(const std::vector<Row>& rows) override;

  /// The plan of every UPDATE and DELETE here.
  static constexpr table::DmlPlan kDmlPlan = table::DmlPlan::kOverwrite;
  table::DmlPlanChoice PlanDml(table::DmlKind kind,
                               std::optional<double> ratio_hint) const override;

  /// INSERT OVERWRITE translation of UPDATE and DELETE: reads every row and
  /// every column and rewrites the whole table, matching rows updated or
  /// dropped (paper Listing 2).
  Result<table::DmlResult> ExecuteDml(const table::DmlSpec& spec,
                                      const table::DmlPlanChoice& choice) override;

  Status Drop() override;

  dual::MasterTable* storage() { return storage_.get(); }

 private:
  HiveTable(std::string name, Schema schema, HiveTableOptions options)
      : name_(std::move(name)), schema_(std::move(schema)), options_(std::move(options)) {}

  std::string name_;
  Schema schema_;
  HiveTableOptions options_;
  std::unique_ptr<dual::MasterTable> storage_;
};

}  // namespace dtl::baseline
