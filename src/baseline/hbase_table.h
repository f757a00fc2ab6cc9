// Hive(HBase) baseline: the whole table lives in the KV store — every row is
// an HBase row, every column a qualifier. Record-level updates and deletes
// are cheap and in place, but batch reads pay the LSM merge/decode cost per
// cell, which is why the paper finds this system "much slower" for analytic
// scans (Fig. 11).
#pragma once

#include <memory>
#include <string>

#include "fs/filesystem.h"
#include "kv/store.h"
#include "table/storage_table.h"

namespace dtl::baseline {

struct HBaseTableOptions {
  kv::KvStoreOptions store_options;  // dir derived from table name
};

class HBaseTable : public table::StorageTable {
 public:
  static Result<std::shared_ptr<HBaseTable>> Open(fs::SimFileSystem* fs,
                                                  const std::string& name, Schema schema,
                                                  HBaseTableOptions options = {});

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  /// Reads the latest state; HBase has no pinned view.
  Result<std::unique_ptr<table::BatchIterator>> ScanBatchesAt(
      const table::PinnedReadPtr& pin, const table::ScanSpec& spec) override;
  Status InsertRows(const std::vector<Row>& rows) override;
  Status OverwriteRows(const std::vector<Row>& rows) override;

  /// The plan of every UPDATE and DELETE here.
  static constexpr table::DmlPlan kDmlPlan = table::DmlPlan::kInPlace;
  table::DmlPlanChoice PlanDml(table::DmlKind kind,
                               std::optional<double> ratio_hint) const override;

  /// In-place DML: scan, then Put only the changed cells (the EDIT-like plan
  /// the paper implements for HBase-backed Hive with UDFs) or write row
  /// tombstones.
  Result<table::DmlResult> ExecuteDml(const table::DmlSpec& spec,
                                      const table::DmlPlanChoice& choice) override;

  Status Drop() override;

  kv::KvStore* store() { return store_.get(); }

 private:
  HBaseTable(fs::SimFileSystem* fs, std::string name, Schema schema, std::string dir)
      : fs_(fs), name_(std::move(name)), schema_(std::move(schema)), dir_(std::move(dir)) {}

  Result<uint64_t> NextRowId();

  fs::SimFileSystem* fs_;
  std::string name_;
  Schema schema_;
  std::string dir_;
  std::unique_ptr<kv::KvStore> store_;
  uint64_t next_row_id_ = 0;  // recovered on open from the max existing key
  bool row_id_loaded_ = false;
};

}  // namespace dtl::baseline
