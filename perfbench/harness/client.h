// The benchmark's closed-loop client and workload interface.
//
// One Client drives one sql::Session from one thread: it sends a statement,
// waits for the answer, and only then sends the next. It times every
// Session::Execute call, counts attempted and failed statements, and groups
// latencies by statement class and kind.
//
// With a SpanRecorder attached (the traced pass) the client also attributes
// each statement to the engine's layers. It never instruments src/: it wraps
// the statement and a replay of the layer calls the statement makes, each in
// a span, and reads the counters those modules already expose:
//
//   request
//   ├─ sql.parse                 sql::ParseStatement
//   ├─ dualtable.dml_locate      DualTable::ScanBatchesAt with the DML predicate
//   ├─ sql.execute               Session::Execute (the statement itself)
//   ├─ dualtable.union_read      DualTable::ScanBatchesAt, query projection
//   ├─ dualtable.master_scan     MasterTable::NewBatchScanIterator, same generation
//   ├─ kv.delta_scan             AttachedTable::NewScannerAt, same snapshot
//   ├─ orc.read_stripe           OrcReader::ReadStripe, uncached, query projection
//   ├─ fs.read_at                RandomAccessFile::ReadAt over the stripe range
//   ├─ dualtable.index_lookup    DualTable::IndexLookupAt
//   ├─ kv.get                    AttachedTable::GetModificationAt
//   └─ exec.parallel_aggregate   exec::ParallelScanner::Count / Aggregate
//
// Replays run right after (locate: right before) the statement, against a
// snapshot of the same table state the statement saw. On a cold workload
// each replay starts from, and leaves behind, a stripe cache without the
// table's entries, as the statement itself found it; otherwise the replay
// would read back the stripes the statement just decoded.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dualtable/dual_table.h"
#include "harness/spans.h"
#include "sql/session.h"

namespace perfbench {

using dtl::Row;
using dtl::Status;
using dtl::Value;

/// What a statement is, for the end-to-end latency groups.
enum class Kind {
  kRead,         // every other SELECT: read_ms
  kPoint,        // SELECT of one key: point_us
  kDml,          // UPDATE / DELETE
  kMaintenance,  // COMPACT INCREMENTAL
};

/// One table a statement reads, with the columns it needs and (for key
/// lookups) the filter and stripe-pruning bounds it pushes into the scan.
struct ScanTarget {
  ScanTarget(std::string table, std::vector<size_t> projection)
      : table(std::move(table)), projection(std::move(projection)) {}

  std::string table;
  std::vector<size_t> projection;
  dtl::table::RowPredicateFn predicate;
  std::vector<size_t> predicate_columns;
  std::vector<dtl::table::ColumnBound> bounds;
};

/// `column = key` as a scan target, for lookups without an index.
ScanTarget KeyLookupTarget(const std::string& table, std::vector<size_t> projection,
                           size_t column, int64_t key);

/// A statement plus what the traced pass replays for it.
struct Stmt {
  Kind kind = Kind::kRead;
  std::string cls;  // statement class, e.g. "q1"
  std::string sql;
  /// Reads: tables replayed through UNION READ / master scan / KV scan.
  std::vector<ScanTarget> scans;
  /// DML: table and storage predicate replayed as the locate scan.
  std::string dml_table;
  dtl::table::ScanSpec locate;
  /// Index point reads: probes on column `index_column` of `index_table`.
  std::string index_table;
  size_t index_column = 0;
  std::vector<int64_t> probes;
  std::vector<size_t> index_projection;
  /// Optional parallel-scan replay (COUNT / global aggregate).
  std::function<Status(dtl::dual::DualTable*, const dtl::dual::SnapshotPtr&)> parallel;
  std::string parallel_table;
};

/// Per-layer samples gathered by the traced pass.
struct LayerSamples {
  std::map<std::string, std::vector<double>> samples;  // metric -> values
  std::map<std::string, double> sums;                  // counter -> total
  void Add(const std::string& metric, double value) { samples[metric].push_back(value); }
  void Count(const std::string& counter, double value) { sums[counter] += value; }
  double Sum(const std::string& counter) const {
    auto it = sums.find(counter);
    return it == sums.end() ? 0.0 : it->second;
  }
};

class Client {
 public:
  /// `spans` null = untraced pass. `cold` marks a workload whose decoded
  /// stripes exceed the stripe cache (see the replay note above).
  Client(dtl::sql::Session* session, SpanRecorder* spans, bool cold);

  /// Executes one statement and times Session::Execute. A statement that
  /// returns an error is counted as failed and yields nullopt.
  std::optional<dtl::sql::QueryResult> Run(const Stmt& stmt);

  /// Records a failed answer or plan check against the last statement.
  void Fail(const std::string& what);

  /// Records the DML plan a statement class resolved to and fails the check
  /// when it differs from `expected` ("EDIT" / "OVERWRITE").
  void ExpectPlan(const std::string& cls, const dtl::sql::QueryResult& result,
                  const std::string& expected);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double exec_seconds() const { return exec_seconds_; }
  uint64_t rows_scanned() const { return rows_scanned_; }
  /// Stripe-cache hit rate of the scanning statements (every kind but
  /// kPoint): the cache regime a workload is labelled with. Key lookups are
  /// left out because they re-read a few hot stripes by design.
  double scan_cache_hit_rate() const {
    const uint64_t total = scan_cache_hits_ + scan_cache_misses_;
    return total == 0 ? 0.0 : static_cast<double>(scan_cache_hits_) / static_cast<double>(total);
  }
  const std::map<std::string, std::vector<double>>& by_class() const { return by_class_; }
  const std::vector<double>& read_seconds() const { return read_seconds_; }
  const std::vector<double>& point_seconds() const { return point_seconds_; }
  const std::vector<double>& dml_seconds() const { return dml_seconds_; }
  /// cls -> plan name -> count.
  const std::map<std::string, std::map<std::string, uint64_t>>& plans() const {
    return plans_;
  }
  const LayerSamples& layers() const { return layers_; }

 private:
  dtl::dual::DualTable* Dual(const std::string& name);
  /// Cold workloads: drops the table's stripes from the shared cache.
  void DropCachedStripes(dtl::dual::DualTable* table);
  void ReplayScan(const ScanTarget& target, uint32_t request, double* union_us);
  void ReplayIndex(const Stmt& stmt, uint32_t request, double* lookup_us);

  dtl::sql::Session* session_;
  SpanRecorder* spans_;
  bool cold_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double exec_seconds_ = 0;
  uint64_t rows_scanned_ = 0;
  uint64_t scan_cache_hits_ = 0;
  uint64_t scan_cache_misses_ = 0;
  std::map<std::string, std::vector<double>> by_class_;
  std::vector<double> read_seconds_;
  std::vector<double> point_seconds_;
  std::vector<double> dml_seconds_;
  std::map<std::string, std::map<std::string, uint64_t>> plans_;
  LayerSamples layers_;
  size_t sample_stripe_ = 0;  // rotates the stripes the decode replay samples
};

/// One benchmark workload: a set-up phase that loads data, then a closed
/// loop of rounds, each a fixed statement sequence drawn from the seed.
class Workload {
 public:
  virtual ~Workload() = default;
  /// "cold" (decoded stripes exceed the stripe cache) or "warm" (they fit).
  virtual const char* regime() const = 0;
  /// Creates the session and loads the data; timed as setup_s.
  virtual Status Setup(uint64_t seed) = 0;
  /// Untimed: reference answers, EXPLAIN and plan-preview checks.
  virtual void Prepare(Client* client) = 0;
  /// One round of the closed loop.
  virtual void Round(Client* client) = 0;
  /// DualTables the workload owns (for space and SSTable figures).
  virtual std::vector<std::string> tables() const = 0;
  /// One line: rows per table and the seed-derived parameters.
  virtual std::string Describe() const = 0;

  dtl::sql::Session* session() { return session_.get(); }

 protected:
  std::unique_ptr<dtl::sql::Session> session_;
};

std::unique_ptr<Workload> MakeTpchScanCold();
std::unique_ptr<Workload> MakeUpdateReadMix();
std::unique_ptr<Workload> MakePointServing();

/// The stated session settings every workload runs with (see README.md).
dtl::sql::SessionOptions BenchSessionOptions();

/// CREATE TABLE text for a schema, STORED AS DUALTABLE.
std::string CreateTableSql(const std::string& name, const dtl::Schema& schema,
                           const std::string& suffix = "");

/// Numeric view of a value (int64 or double); NaN otherwise.
double AsNumber(const Value& v);

/// True when two result rows agree: exact for strings and integers,
/// relative 1e-9 for doubles (parallel sums add in worker order).
bool RowsAgree(const Row& a, const Row& b);

/// RowsAgree over two equally long row lists, in order.
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b);

}  // namespace perfbench
