// Statement execution: plans each SELECT once into a SelectPlan (predicate
// pushdown, stats-bound extraction, route choice, operator steps), each
// UPDATE/DELETE/MERGE once into a DmlStatementPlan (bound filter and SET
// values, the storage's plan choice) and each COMPACT once into a
// CompactStatementPlan, which execution, EXPLAIN and EXPLAIN ANALYZE share.
// The engine reaches every table through table::StorageTable and names no
// concrete storage. The WITH RATIO hint goes into the storage's plan choice,
// mirroring the paper's DualTable parser that "will choose to generate a
// Hive-compatible statement ... or our UDTFs, based on the cost evaluator".
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/operators.h"
#include "fs/filesystem.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "table/catalog.h"

namespace dtl::obs {
class MetricsRecorder;
class QueryLog;
}  // namespace dtl::obs

namespace dtl::sql {

struct SelectPlan;
struct DmlStatementPlan;
struct CompactStatementPlan;

/// Execution knobs for parallel scans. Only order-insensitive plans
/// (global aggregates over one pinned table) run parallel; everything else
/// keeps the serial pipeline regardless of `parallelism`.
struct ExecOptions {
  /// Pool the morsel workers run on; nullptr keeps every plan serial.
  ThreadPool* pool = nullptr;
  /// Workers per parallel scan; <=1 keeps every plan serial.
  size_t parallelism = 1;
  /// Surviving stripes per scan morsel.
  size_t morsel_stripes = 1;

  // Observability hooks (all optional, not owned; must outlive the engine).
  /// Registry for the sql.statements counters and parallel-scan stats.
  obs::MetricsRegistry* metrics = nullptr;
  /// Session tracer; EXPLAIN ANALYZE requires it and the engine opens stage
  /// spans on it while it is active.
  obs::Tracer* tracer = nullptr;
  /// Session scan meter; substituted into every ScanSpec the engine builds
  /// with no explicit meter. Null keeps the process-global meter.
  table::ScanMeter* scan_meter = nullptr;
  /// Structured query log: every executed statement (except the SHOW
  /// introspection forms) appends one record with wall/modeled seconds and
  /// the registry deltas it caused.
  obs::QueryLog* query_log = nullptr;
  /// Background metrics recorder; SHOW STATS HISTOGRAMS reads its window.
  obs::MetricsRecorder* recorder = nullptr;
};

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  uint64_t affected_rows = 0;
  /// Physical plan a DML statement ran ("EDIT", "OVERWRITE", ...) or the
  /// action a COMPACT ran ("NONE", "REWRITE", "INCREMENTAL"); empty otherwise.
  std::string dml_plan;
  std::string message;

  std::string ToString(size_t max_rows = 20) const;
};

/// Creates backing storage for CREATE TABLE. `indexed_columns` holds the
/// ordinals named in an INDEX (...) clause; only DualTables honor it.
using TableFactory = std::function<Result<std::shared_ptr<table::StorageTable>>(
    const std::string& name, table::TableKind kind, const Schema& schema,
    const std::vector<size_t>& indexed_columns)>;

class Engine {
 public:
  /// `fs` is required for LOAD DATA INPATH; may be null otherwise.
  Engine(table::Catalog* catalog, TableFactory factory,
         const fs::SimFileSystem* fs = nullptr)
      : catalog_(catalog), factory_(std::move(factory)), fs_(fs) {}

  /// Parses and executes one statement.
  Result<QueryResult> Execute(const std::string& sql);

  Result<QueryResult> ExecuteStatement(const Statement& stmt);

  void set_exec_options(const ExecOptions& options) { exec_ = options; }
  const ExecOptions& exec_options() const { return exec_; }

 private:
  /// The per-kind dispatch body. ExecuteStatement wraps it with query-log
  /// capture (wall clock, registry delta, modeled seconds).
  Result<QueryResult> DispatchStatement(const Statement& stmt);
  /// PlanSelect + RunSelect, with the `bind` and `execute` trace stages.
  Result<QueryResult> ExecuteSelect(const SelectStmt& stmt);
  /// Plans a SELECT without reading data: resolves tables and pins their
  /// snapshots, binds expressions, builds each table's pushed-down scan,
  /// chooses the route, and lists the operator steps. FROM subqueries become
  /// child plans.
  Result<SelectPlan> PlanSelect(const SelectStmt& stmt);
  /// Builds the plan's batch operator pipeline from its steps, consuming
  /// them; pulling the pipeline executes the plan. With a non-null
  /// `trace_parent`, each step gets a trace node under it, in step order.
  Result<std::unique_ptr<exec::BatchOperator>> RunSelect(SelectPlan& plan,
                                                         obs::TraceNode* trace_parent);
  Result<QueryResult> ExecuteCreate(const CreateTableStmt& stmt);
  Result<QueryResult> ExecuteDrop(const DropTableStmt& stmt);
  Result<QueryResult> ExecuteInsert(const InsertStmt& stmt);
  /// Plans an UPDATE, DELETE or MERGE once: binds the target table, the
  /// WHERE filter and the SET values (MERGE: its source tuples and the
  /// matched-row UPDATE) and takes the storage's plan choice. The only
  /// caller of StorageTable::PlanDml; execution and EXPLAIN both read it.
  Result<DmlStatementPlan> PlanDml(const Statement& stmt);
  /// PlanDml + the storage's ExecuteDml (MERGE: probe, UPDATE, INSERT), with
  /// the `bind` and `execute(<PLAN>)` trace stages.
  Result<QueryResult> ExecuteDml(const Statement& stmt);
  /// Plans a COMPACT once: the target table and the storage's CompactPlan.
  /// The only caller of StorageTable::PlanCompact; execution and EXPLAIN
  /// both read it.
  Result<CompactStatementPlan> PlanCompact(const CompactStmt& stmt);
  /// PlanCompact + the storage's ExecuteCompact, with the `bind` and
  /// `execute(<ACTION>)` trace stages.
  Result<QueryResult> ExecuteCompact(const CompactStmt& stmt);
  /// Records the `bind` stage: the planning time since `bind_watch` started.
  /// Each statement then runs its plan inside an `execute` span.
  void RecordBind(const Stopwatch& bind_watch);
  Result<QueryResult> ExecuteShowTables();
  Result<QueryResult> ExecuteShowStats(const ShowStatsStmt& stmt);
  Result<QueryResult> ExecuteLoad(const LoadStmt& stmt);
  Result<QueryResult> ExecuteExplain(const ExplainStmt& stmt);
  Result<QueryResult> ExecuteExplainAnalyze(const ExplainStmt& stmt);

  table::Catalog* catalog_;
  TableFactory factory_;
  const fs::SimFileSystem* fs_;
  ExecOptions exec_;
  /// Wall seconds Execute() spent parsing the most recent statement; EXPLAIN
  /// ANALYZE reports it as the retrospective `parse` leaf of the trace.
  double last_parse_seconds_ = 0;
  /// SQL text of the statement Execute() is currently running; the query log
  /// records it (empty for statements executed via ExecuteStatement directly).
  std::string last_sql_;
};

/// Coerces a value to a column type (int→double widening, int↔date).
Result<Value> CoerceValue(const Value& v, DataType type, const std::string& column);

}  // namespace dtl::sql
