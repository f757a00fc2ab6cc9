#include "harness/client.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "exec/parallel_scan.h"
#include "orc/reader.h"
#include "orc/stripe_cache.h"
#include "sql/parser.h"
#include "table/scan_stats.h"

namespace perfbench {

namespace dual = dtl::dual;
namespace sql = dtl::sql;
namespace table = dtl::table;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Drains a batch iterator; returns the visible rows it produced.
uint64_t Drain(table::BatchIterator* it) {
  table::RowBatch batch;
  uint64_t rows = 0;
  while (it->Next(&batch)) rows += batch.size();
  return rows;
}

/// Values one stripe decode produced: rows x projected columns.
double ValuesDecoded(const dtl::orc::StripeBatch& batch) {
  return static_cast<double>(batch.num_rows) * static_cast<double>(batch.columns.size());
}

}  // namespace

Client::Client(sql::Session* session, SpanRecorder* spans, bool cold)
    : session_(session), spans_(spans), cold_(cold) {}

dual::DualTable* Client::Dual(const std::string& name) {
  auto entry = session_->catalog()->Lookup(name);
  if (!entry.ok()) return nullptr;
  return dynamic_cast<dual::DualTable*>(entry->table.get());
}

void Client::DropCachedStripes(dual::DualTable* table) {
  if (cold_) dtl::orc::StripeCache::Default()->EraseOwner(table->master()->cache_owner());
}

void Client::Fail(const std::string& what) {
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void Client::ExpectPlan(const std::string& cls, const sql::QueryResult& result,
                        const std::string& expected) {
  ++plans_[cls][result.dml_plan];
  if (result.dml_plan != expected) {
    Fail(cls + " resolved to " + result.dml_plan + ", expected " + expected);
  }
}

std::optional<sql::QueryResult> Client::Run(const Stmt& stmt) {
  ++attempted_;
  uint32_t request = 0;
  double parse_us = 0;
  double locate_us = 0;
  if (spans_ != nullptr) {
    request = spans_->BeginRequest("request." + stmt.cls);
    {
      ScopedSpan span(spans_, "sql.parse", request);
      auto parsed = sql::ParseStatement(stmt.sql);
      parse_us = span.End();
      if (!parsed.ok()) Fail("parse " + stmt.cls + ": " + parsed.status().ToString());
    }
    layers_.Add("sql.parse_us", parse_us);
    if (stmt.kind == Kind::kDml) {
      if (dual::DualTable* t = Dual(stmt.dml_table)) {
        dual::SnapshotPtr snapshot = t->AcquireSnapshot();
        table::ScanSpec spec = stmt.locate;
        table::ScanMeter scratch_meter;  // keep replays out of the session counters
        spec.meter = &scratch_meter;
        DropCachedStripes(t);
        ScopedSpan span(spans_, "dualtable.dml_locate", request);
        auto it = t->ScanBatchesAt(snapshot, spec);
        if (it.ok()) Drain(it->get());
        locate_us = span.End();
        DropCachedStripes(t);
        layers_.Add("dualtable.dml_locate_ms", locate_us / 1e3);
      }
    }
  }

  if (stmt.kind == Kind::kDml) {
    // The DML locate scan visits every master row (DmlResult::rows_scanned)
    // through a path the scan meter does not count.
    if (dual::DualTable* t = Dual(stmt.dml_table)) rows_scanned_ += t->master()->TotalRows();
  }
  const dtl::fs::IoSnapshot io_before = session_->fs()->meter()->Snapshot();
  const table::ScanSnapshot scan_before = table::GlobalScanMeter().Snapshot();
  const dtl::orc::StripeCacheStats cache_before = dtl::orc::StripeCache::Default()->Stats();
  uint32_t exec_span = spans_ != nullptr ? spans_->Begin("sql.execute", request) : 0;
  const Clock::time_point start = Clock::now();
  auto result = session_->Execute(stmt.sql);
  const double seconds = SecondsSince(start);
  if (spans_ != nullptr) spans_->End(exec_span);
  const table::ScanSnapshot scan = table::GlobalScanMeter().Snapshot() - scan_before;
  const dtl::fs::IoSnapshot io = session_->fs()->meter()->Snapshot() - io_before;
  if (stmt.kind != Kind::kPoint) {
    const dtl::orc::StripeCacheStats cache = dtl::orc::StripeCache::Default()->Stats();
    scan_cache_hits_ += cache.hits - cache_before.hits;
    scan_cache_misses_ += cache.misses - cache_before.misses;
  }

  exec_seconds_ += seconds;
  rows_scanned_ += scan.rows;
  by_class_[stmt.cls].push_back(seconds);
  switch (stmt.kind) {
    case Kind::kRead:
      read_seconds_.push_back(seconds);
      break;
    case Kind::kPoint:
      point_seconds_.push_back(seconds);
      break;
    case Kind::kDml:
      dml_seconds_.push_back(seconds);
      break;
    case Kind::kMaintenance:
      break;
  }
  if (!result.ok()) {
    Fail(stmt.cls + ": " + result.status().ToString());
    if (spans_ != nullptr) spans_->End(request);
    return std::nullopt;
  }
  if (spans_ == nullptr) return std::move(*result);

  // ---- traced pass: counters around the statement, then the replays ----
  const double exec_us = seconds * 1e6;
  if (stmt.kind == Kind::kRead || stmt.kind == Kind::kPoint) {
    layers_.Add("fs.bytes_read_per_query", static_cast<double>(io.hdfs_bytes_read));
    layers_.Count("table.batches", static_cast<double>(scan.batches));
    layers_.Count("table.passthrough_batches", static_cast<double>(scan.passthrough_batches));
    layers_.Count("table.rows", static_cast<double>(scan.rows));
    layers_.Count("table.materialized_rows", static_cast<double>(scan.materialized_rows));
  }
  if (stmt.kind == Kind::kDml) {
    layers_.Add("fs.bytes_written_per_dml", static_cast<double>(io.hdfs_bytes_written));
    layers_.Add("kv.bytes_written", static_cast<double>(io.hbase_bytes_written));
    layers_.Count("dml.rows_changed", static_cast<double>(result->affected_rows));
    if (result->dml_plan == "EDIT") layers_.Count("dualtable.plan_edit", 1);
    if (result->dml_plan == "OVERWRITE") layers_.Count("dualtable.plan_overwrite", 1);
    layers_.Add("sql.execute_self_us", exec_us - parse_us - locate_us);
  }
  if (stmt.kind == Kind::kDml || stmt.kind == Kind::kMaintenance) {
    layers_.Count("fs.change_bytes_written",
                  static_cast<double>(io.hdfs_bytes_written + io.hbase_bytes_written));
  }
  if (stmt.kind == Kind::kMaintenance) {
    layers_.Add("dualtable.compact_ms", seconds * 1e3);
    // "... copied, <rows> rows, ..." (IncrementalCompactStats::ToString).
    const std::string& msg = result->message;
    const size_t at = msg.find("copied, ");
    if (at != std::string::npos) {
      layers_.Add("dualtable.compact_rows_rewritten",
                  std::strtod(msg.c_str() + at + 8, nullptr));
    }
  }

  double union_us = 0;
  for (const ScanTarget& target : stmt.scans) ReplayScan(target, request, &union_us);
  double lookup_us = 0;
  if (!stmt.probes.empty()) ReplayIndex(stmt, request, &lookup_us);
  if (stmt.kind == Kind::kRead) {
    layers_.Add("exec.self_ms", (exec_us - parse_us - union_us) / 1e3);
  } else if (stmt.kind == Kind::kPoint) {
    layers_.Add("sql.execute_self_us",
                exec_us - parse_us - (stmt.probes.empty() ? union_us : lookup_us));
  }
  if (stmt.parallel) {
    if (dual::DualTable* t = Dual(stmt.parallel_table)) {
      dual::SnapshotPtr snapshot = t->AcquireSnapshot();
      ScopedSpan span(spans_, "exec.parallel_aggregate", request);
      Status st = stmt.parallel(t, snapshot);
      layers_.Add("exec.parallel_aggregate_ms", span.End() / 1e3);
      if (!st.ok()) Fail("parallel replay " + stmt.cls + ": " + st.ToString());
    }
  }
  spans_->End(request);
  return std::move(*result);
}

void Client::ReplayScan(const ScanTarget& target, uint32_t request, double* union_us) {
  dual::DualTable* t = Dual(target.table);
  if (t == nullptr) return;
  dual::SnapshotPtr snapshot = t->AcquireSnapshot();
  table::ScanSpec spec;
  spec.projection = target.projection;
  spec.predicate = target.predicate;
  spec.predicate_columns = target.predicate_columns;
  spec.bounds = target.bounds;
  table::ScanMeter scratch_meter;  // keep replays out of the session counters
  spec.meter = &scratch_meter;

  double union_scan_us = 0;
  DropCachedStripes(t);
  {
    ScopedSpan span(spans_, "dualtable.union_read", request);
    auto it = t->ScanBatchesAt(snapshot, spec);
    if (it.ok()) Drain(it->get());
    union_scan_us = span.End();
  }
  double master_us = 0;
  DropCachedStripes(t);
  {
    ScopedSpan span(spans_, "dualtable.master_scan", request);
    auto it = t->master()->NewBatchScanIterator(snapshot->generation, spec,
                                                /*apply_predicate=*/false);
    if (it.ok()) Drain(it->get());
    master_us = span.End();
  }
  DropCachedStripes(t);
  double kv_us = 0;
  uint64_t cells = 0;
  {
    ScopedSpan span(spans_, "kv.delta_scan", request);
    auto scanner = t->attached()->NewScannerAt(snapshot->attached);
    while (scanner->Next()) ++cells;
    kv_us = span.End();
  }
  *union_us += union_scan_us;
  layers_.Add("dualtable.union_read_ms", union_scan_us / 1e3);
  layers_.Add("dualtable.master_scan_ms", master_us / 1e3);
  layers_.Add("kv.delta_scan_ms", kv_us / 1e3);
  layers_.Add("kv.delta_cells", static_cast<double>(cells));
  layers_.Add("dualtable.patch_ms", (union_scan_us - master_us - kv_us) / 1e3);

  // Uncached decode and raw read of one stripe, rotating through the table.
  const std::vector<dual::MasterFileInfo>& files = snapshot->generation->files();
  if (files.empty()) return;
  const dual::MasterFileInfo& file = files[sample_stripe_ % files.size()];
  auto reader = t->master()->OpenReader(snapshot->generation, file.file_id);
  if (!reader.ok() || (*reader)->num_stripes() == 0) return;
  const size_t stripe = (sample_stripe_ / files.size()) % (*reader)->num_stripes();
  ++sample_stripe_;
  {
    ScopedSpan span(spans_, "orc.read_stripe", request);
    auto batch = (*reader)->ReadStripe(stripe, target.projection);
    const double us = span.End();
    if (batch.ok() && ValuesDecoded(*batch) > 0) {
      layers_.Count("orc.decode_ns", us * 1e3);
      layers_.Count("orc.values_decoded", ValuesDecoded(*batch));
    }
  }
  auto raw = session_->fs()->NewRandomAccessFile(file.path);
  if (raw.ok()) {
    const dtl::orc::StripeInfo& info = (*reader)->stripe(stripe);
    std::string bytes;
    ScopedSpan span(spans_, "fs.read_at", request);
    Status st = (*raw)->ReadAt(info.offset, info.length, &bytes);
    const double us = span.End();
    if (st.ok()) {
      layers_.Count("fs.read_bytes", static_cast<double>(bytes.size()));
      layers_.Count("fs.read_us", us);
    }
  }
}

void Client::ReplayIndex(const Stmt& stmt, uint32_t request, double* lookup_us) {
  dual::DualTable* t = Dual(stmt.index_table);
  if (t == nullptr) return;
  dual::SnapshotPtr snapshot = t->AcquireSnapshot();
  std::vector<Value> probes;
  for (int64_t p : stmt.probes) probes.push_back(Value::Int64(p));
  table::ScanSpec spec;
  spec.projection = stmt.index_projection;
  table::ScanMeter scratch_meter;
  spec.meter = &scratch_meter;
  std::vector<std::pair<uint64_t, Row>> matches;
  {
    ScopedSpan span(spans_, "dualtable.index_lookup", request);
    auto found = t->IndexLookupAt(snapshot, stmt.index_column, probes, spec);
    *lookup_us = span.End();
    if (!found.ok()) {
      Fail("index replay " + stmt.cls + ": " + found.status().ToString());
      return;
    }
    matches = std::move(*found);
  }
  layers_.Add("dualtable.index_lookup_us", *lookup_us);
  for (const auto& [record_id, row] : matches) {
    ScopedSpan span(spans_, "kv.get", request);
    auto mod = t->attached()->GetModificationAt(snapshot->attached, record_id);
    layers_.Add("kv.get_us", span.End());
    if (!mod.ok()) Fail("kv get replay: " + mod.status().ToString());
  }
}

ScanTarget KeyLookupTarget(const std::string& table, std::vector<size_t> projection,
                           size_t column, int64_t key) {
  ScanTarget target(table, std::move(projection));
  target.predicate = [column, key](const Row& r) {
    return r[column].is_int64() && r[column].AsInt64() == key;
  };
  target.predicate_columns = {column};
  target.bounds = {{column, Value::Int64(key), Value::Int64(key)}};
  return target;
}

sql::SessionOptions BenchSessionOptions() {
  sql::SessionOptions options;
  // Two pool threads, two morsel workers: single-table global aggregates run
  // on the morsel-driven ParallelScanner.
  options.pool_threads = 2;
  options.parallelism = 2;
  options.morsel_stripes = 1;
  options.background_compaction = false;  // maintenance is the workload's own
  options.observability = true;           // the product default
  for (auto* writer : {&options.dual_defaults.writer_options,
                       &options.hive_defaults.writer_options,
                       &options.acid_defaults.writer_options}) {
    writer->stripe_rows = 8 * 1024;
  }
  // No simulated RPC sleep: wall time is program work.
  options.dual_defaults.attached_options.put_latency_micros = 0.0;
  // Cost-model calibration of the existing benches: one read per DML (k = 1)
  // and effective attached-table rates that put Eq. 1's update crossover
  // near 35%, between the workloads' small (~1%) and large (~42%) updates.
  options.dual_defaults.cost_params.k = 1.0;
  options.dual_defaults.cost_params.delete_marker_bytes = 200.0;
  options.cluster.hbase_write_bps = 0.175e9;
  options.cluster.hbase_read_bps = 0.35e9;
  // COMPACT INCREMENTAL folds a file once 1% of its rows carry deltas, so
  // the update/read mix's periodic compaction rewrites instead of idling
  // under the ~35% crossover-derived default.
  options.dual_defaults.incremental_density_override = 0.01;
  return options;
}

std::string CreateTableSql(const std::string& name, const dtl::Schema& schema,
                           const std::string& suffix) {
  std::string sql = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) sql += ", ";
    sql += schema.field(i).name + " " + dtl::DataTypeName(schema.field(i).type);
  }
  return sql + ") STORED AS DUALTABLE" + suffix;
}

double AsNumber(const Value& v) {
  if (v.is_int64()) return static_cast<double>(v.AsInt64());
  if (v.is_double()) return v.AsDouble();
  return std::nan("");
}

bool RowsAgree(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_double() || b[i].is_double()) {
      const double x = AsNumber(a[i]);
      const double y = AsNumber(b[i]);
      if (!(std::fabs(x - y) <= 1e-9 * std::max(1.0, std::fabs(y)))) return false;
    } else if (a[i].Compare(b[i]) != 0) {
      return false;
    }
  }
  return true;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowsAgree(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace perfbench
