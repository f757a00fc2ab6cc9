#include "sql/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/stopwatch.h"
#include "exec/operators.h"
#include "exec/parallel_scan.h"
#include "obs/metric_names.h"
#include "obs/query_log.h"
#include "obs/recorder.h"
#include "orc/stripe_cache.h"
#include "table/csv.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dtl::sql {

namespace {

/// Recursively resolves every column ref in `expr` and records the flat
/// ordinals; returns the first resolution error.
Status CollectColumns(const Expr& expr, const Scope& scope, std::set<size_t>* out) {
  if (expr.kind == Expr::Kind::kColumnRef) {
    DTL_ASSIGN_OR_RETURN(size_t ordinal, scope.Resolve(expr.qualifier, expr.column));
    out->insert(ordinal);
    return Status::OK();
  }
  for (const auto& a : expr.args) DTL_RETURN_NOT_OK(CollectColumns(*a, scope, out));
  return Status::OK();
}

/// Replaces column refs matching a SELECT alias with a clone of the aliased
/// expression (HiveQL allows aliases in WHERE / GROUP BY / HAVING / ORDER BY).
ExprPtr SubstituteAliases(const Expr& expr, const std::vector<SelectItem>& items) {
  if (expr.kind == Expr::Kind::kColumnRef && expr.qualifier.empty()) {
    for (const SelectItem& item : items) {
      if (!item.star && !item.alias.empty() && item.alias == expr.column) {
        return item.expr->Clone();
      }
    }
  }
  ExprPtr copy = expr.Clone();
  for (auto& a : copy->args) a = SubstituteAliases(*a, items);
  return copy;
}

/// Binds each conjunct against `scope` and ANDs them into one row predicate:
/// a row passes when every conjunct is TRUE. `columns`, when given, receives
/// the sorted ordinals the conjuncts read. (Defined here, not in binder.cc:
/// there, GCC 12 -O3 inlined less into the compiled expression closures and
/// a `col < col` predicate cost twice as much per row.)
Result<table::RowPredicateFn> BindConjunction(const std::vector<const Expr*>& conjuncts,
                                              const Scope& scope,
                                              std::vector<size_t>* columns = nullptr) {
  std::vector<exec::ValueFn> fns;
  std::set<size_t> read;
  for (const Expr* c : conjuncts) {
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, scope));
    fns.push_back(std::move(bound.fn));
    read.insert(bound.columns.begin(), bound.columns.end());
  }
  if (columns != nullptr) columns->assign(read.begin(), read.end());
  if (fns.size() == 1) return MakePredicate(std::move(fns[0]));
  return table::RowPredicateFn([fns = std::move(fns)](const Row& row) {
    for (const auto& fn : fns) {
      if (!ValueIsTrue(fn(row))) return false;
    }
    return true;
  });
}

/// Binds pushed-down conjuncts into `spec`: the ANDed predicate, the columns
/// it reads and the stats bounds it implies. No conjuncts leave `spec` as is.
Status BindScanFilter(const std::vector<const Expr*>& conjuncts, const Scope& scope,
                      table::ScanSpec* spec) {
  if (conjuncts.empty()) return Status::OK();
  DTL_ASSIGN_OR_RETURN(spec->predicate,
                       BindConjunction(conjuncts, scope, &spec->predicate_columns));
  spec->bounds = ExtractBounds(conjuncts, scope);
  return Status::OK();
}

}  // namespace

/// Which executor runs a planned SELECT (DESIGN.md §15 route table).
enum class SelectRoute {
  kParallelAggregate,  // morsel-parallel global aggregate over one pinned table
  kIndexLookup,        // secondary-index probe on one table
  kBatch,              // batch operator pipeline: everything else
};

/// A SELECT planned once by Engine::PlanSelect. Engine::RunSelect executes
/// it, EXPLAIN renders it, and EXPLAIN ANALYZE names one trace node per step,
/// so all three describe the same operators in the same order.
struct SelectPlan {
  static constexpr size_t kNoSlot = ~size_t{0};

  /// One FROM/JOIN table.
  struct Slot {
    std::string qualifier;
    table::TableKind kind = table::TableKind::kDual;
    std::shared_ptr<table::StorageTable> storage;  // null for derived tables
    std::unique_ptr<SelectPlan> derived;           // FROM (SELECT ...) child plan
    size_t offset = 0;  // first flat ordinal of this table
    size_t width = 0;
    /// The table's Pin(), taken at plan time (null for storages without a
    /// pinned view). Every scan of this slot — batch, morsel, index — reads
    /// at it, so one statement sees one consistent view of each table no
    /// matter what commits concurrently (repeatable read at statement
    /// granularity).
    table::PinnedReadPtr pin;
    /// The table's pushed-down scan: projection, the AND of the pushed WHERE
    /// conjuncts and their stats bounds. A derived table applies only the
    /// predicate, to its child plan's rows.
    table::ScanSpec spec;
    size_t pushed_conjuncts = 0;
  };

  enum class Op { kScan, kParallelScan, kIndexLookup, kJoin, kFilter, kAggregate, kSort,
                  kProject, kLimit };

  /// One operator, with its expressions already bound.
  struct Step {
    Op op = Op::kScan;
    size_t slot = kNoSlot;  // table a scan reads or a join builds (and its ON filter)
    /// Project outputs; sort, group or join-probe keys; index-lookup outputs;
    /// parallel-scan outputs over the aggregate row.
    std::vector<exec::ValueFn> fns;
    std::vector<exec::ValueFn> build_keys;  // hash-join build side
    std::vector<exec::AggSpec> aggs;        // hash-aggregate, parallel-scan
    std::vector<bool> ascending;            // sort
    std::vector<int> column_refs;     // project: input ordinal of a column ref, else -1
    table::RowPredicateFn predicate;  // filter
  };

  const SelectStmt* stmt = nullptr;
  SelectRoute route = SelectRoute::kBatch;
  std::vector<Slot> slots;
  std::vector<std::string> column_names;
  /// Operators in execution order, read as a postfix program (a join pops
  /// its build and probe inputs).
  std::vector<Step> steps;
  /// Index route: the probed column ordinal and its probe values.
  size_t probe_column = 0;
  std::vector<Value> probes;
};

namespace {

using Op = SelectPlan::Op;

/// Trace and EXPLAIN name of each SelectPlan::Op, in enum order.
constexpr const char* kOpNames[] = {
    obs::names::kOpScan,      obs::names::kOpParallelScan, obs::names::kOpIndexLookup,
    obs::names::kOpJoin,      obs::names::kOpFilter,       obs::names::kOpAggregate,
    obs::names::kOpSort,      obs::names::kOpProject,      obs::names::kOpLimit};
const char* OpName(Op op) { return kOpNames[static_cast<size_t>(op)]; }

/// EXPLAIN name of each SelectRoute, in enum order.
constexpr const char* kRouteNames[] = {"parallel aggregate", "index lookup", "batch"};

/// Index of the table a flat ordinal belongs to.
size_t TableOf(const std::vector<SelectPlan::Slot>& slots, size_t ordinal) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (ordinal >= slots[i].offset && ordinal < slots[i].offset + slots[i].width) return i;
  }
  return slots.size();
}

/// Single-table scope for binding a slot's pushed conjuncts and its
/// build-side join keys.
Scope LocalScope(const SelectPlan::Slot& slot) {
  Scope local;
  if (slot.storage != nullptr) {
    local.AddTable(slot.qualifier, slot.storage->schema());
  } else {
    local.AddTable(slot.qualifier, slot.derived->column_names);
  }
  return local;
}

/// Scans `conjuncts` for one `table`'s index can answer: `col = lit` or a
/// non-negated `col IN (lit, ...)` where `col` is indexed and every literal's
/// kind matches the column type exactly (mixed-kind comparisons fall back to
/// the scan path, which owns the coercion semantics). NULL literals never
/// match a row, so they contribute no probe. Returns false when no conjunct
/// qualifies.
bool FindIndexProbe(const std::vector<const Expr*>& conjuncts, const Scope& scope,
                    const table::StorageTable& table, size_t* column,
                    std::vector<Value>* probes) {
  for (const Expr* c : conjuncts) {
    const Expr* col_ref = nullptr;
    std::vector<const Value*> lits;
    if (c->kind == Expr::Kind::kBinary && c->op == "=") {
      const Expr* lhs = c->args[0].get();
      const Expr* rhs = c->args[1].get();
      if (lhs->kind == Expr::Kind::kLiteral && rhs->kind == Expr::Kind::kColumnRef) {
        std::swap(lhs, rhs);
      }
      if (lhs->kind == Expr::Kind::kColumnRef && rhs->kind == Expr::Kind::kLiteral) {
        col_ref = lhs;
        lits.push_back(&rhs->literal);
      }
    } else if (c->kind == Expr::Kind::kInList && !c->negated &&
               c->args[0]->kind == Expr::Kind::kColumnRef) {
      col_ref = c->args[0].get();
      for (size_t i = 1; i < c->args.size() && col_ref != nullptr; ++i) {
        if (c->args[i]->kind != Expr::Kind::kLiteral) {
          col_ref = nullptr;
        } else {
          lits.push_back(&c->args[i]->literal);
        }
      }
    }
    if (col_ref == nullptr) continue;
    auto ordinal = scope.Resolve(col_ref->qualifier, col_ref->column);
    if (!ordinal.ok() || !table.IndexesColumn(*ordinal)) continue;
    const DataType type = table.schema().field(*ordinal).type;
    bool kinds_ok = true;
    std::vector<Value> vals;
    for (const Value* lit : lits) {
      if (lit->is_null()) continue;
      const bool kind_match =
          (lit->is_int64() && (type == DataType::kInt64 || type == DataType::kDate)) ||
          (lit->is_string() && type == DataType::kString);
      if (!kind_match) {
        kinds_ok = false;
        break;
      }
      vals.push_back(*lit);
    }
    if (!kinds_ok) continue;
    *column = *ordinal;
    *probes = std::move(vals);
    return true;
  }
  return false;
}

/// Trace decorator: charges each Next()'s wall time, the emitted batch and
/// its visible rows to a flat child node of the execute node. Only inserted
/// when the session tracer is active, so untraced queries pay nothing.
class TracedBatchOperator : public exec::BatchOperator {
 public:
  TracedBatchOperator(std::unique_ptr<exec::BatchOperator> child, obs::TraceNode* node)
      : child_(std::move(child)), node_(node) {}
  bool Next(table::RowBatch* batch) override {
    Stopwatch watch;
    const bool has = child_->Next(batch);
    node_->stats.wall_seconds += watch.ElapsedSeconds();
    if (has) {
      ++node_->stats.batches;
      node_->stats.rows += batch->size();
    }
    return has;
  }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<exec::BatchOperator> child_;
  obs::TraceNode* node_;
};

/// EXPLAIN's rows for a plan: the route, then one line per step in execution
/// order, `<op>[(<table>)]: <what it does>`, with a derived table's child
/// plan nested under its scan.
void RenderSelectPlan(const SelectPlan& plan, const std::string& indent,
                      std::vector<Row>* lines) {
  lines->push_back(Row{Value::String(
      indent + "SELECT: " + kRouteNames[static_cast<size_t>(plan.route)] + " route")});
  bool aggregated = false;
  for (const SelectPlan::Step& step : plan.steps) {
    const SelectPlan::Slot* slot =
        step.slot == SelectPlan::kNoSlot ? nullptr : &plan.slots[step.slot];
    std::string line = indent + "  " + OpName(step.op);
    if (slot != nullptr) line += "(" + slot->qualifier + ")";
    line += ": ";
    switch (step.op) {
      case Op::kParallelScan:
        line += std::to_string(step.aggs.size()) + " aggregate(s) over morsel workers, ";
        [[fallthrough]];
      case Op::kScan:
        if (slot->derived != nullptr) {
          line += "derived table";
        } else {
          line += table::TableKindName(slot->kind);
          if (slot->kind == table::TableKind::kDual) line += ", UNION READ";
        }
        if (slot->pushed_conjuncts > 0) {
          line += ", " + std::to_string(slot->pushed_conjuncts) + " conjunct(s) pushed";
        }
        break;
      case Op::kIndexLookup:
        line += "index lookup: column '" +
                slot->storage->schema().field(plan.probe_column).name + "', " +
                std::to_string(plan.probes.size()) + " probe(s)";
        break;
      case Op::kJoin: {
        const JoinClause& join = plan.stmt->joins[step.slot - 1];
        line += std::string(join.left_outer ? "left outer" : "inner") + " on " +
                join.on->ToString();
        break;
      }
      case Op::kFilter:
        line += slot != nullptr ? "non-equi ON terms"
                : aggregated    ? "HAVING"
                                : "WHERE terms spanning tables";
        break;
      case Op::kAggregate:
        aggregated = true;
        line += std::to_string(step.fns.size()) + " group key(s), " +
                std::to_string(step.aggs.size()) + " aggregate(s)";
        break;
      case Op::kSort:
        line += std::to_string(step.fns.size()) + " key(s)";
        break;
      case Op::kProject:
        line += std::to_string(step.fns.size()) + " column(s)";
        break;
      case Op::kLimit:
        line += std::to_string(*plan.stmt->limit) + " row(s)";
        break;
    }
    lines->push_back(Row{Value::String(std::move(line))});
    if (step.op == Op::kScan && slot->derived != nullptr) {
      RenderSelectPlan(*slot->derived, indent + "    ", lines);
    }
  }
}

}  // namespace

Result<Value> CoerceValue(const Value& v, DataType type, const std::string& column) {
  if (v.is_null()) return v;
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      if (v.is_int64()) return v;
      if (v.is_double()) return Value::Int64(static_cast<int64_t>(v.AsDouble()));
      break;
    case DataType::kDouble: {
      auto n = v.ToNumeric();
      if (n.ok()) return Value::Double(*n);
      break;
    }
    case DataType::kString:
      if (v.is_string()) return v;
      return Value::String(v.ToString());
    case DataType::kBool:
      if (v.is_bool()) return v;
      break;
    case DataType::kNull:
      break;
  }
  return Status::InvalidArgument("cannot store " + v.ToString() + " into column " +
                                 column + " of type " + DataTypeName(type));
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < column_names.size(); ++i) {
    if (i > 0) out += "\t";
    out += column_names[i];
  }
  if (!column_names.empty()) out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    out += RowToString(rows[r]);
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  if (!message.empty()) {
    out += message;
    out += "\n";
  }
  return out;
}

Result<QueryResult> Engine::Execute(const std::string& sql) {
  Stopwatch parse_watch;
  DTL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  last_parse_seconds_ = parse_watch.ElapsedSeconds();
  last_sql_ = sql;
  auto result = ExecuteStatement(stmt);
  last_sql_.clear();
  return result;
}

namespace {

const char* StatementKindName(const Statement& stmt) {
  if (std::get_if<SelectStmt>(&stmt)) return "select";
  if (std::get_if<CreateTableStmt>(&stmt)) return "create";
  if (std::get_if<DropTableStmt>(&stmt)) return "drop";
  if (std::get_if<InsertStmt>(&stmt)) return "insert";
  if (std::get_if<UpdateStmt>(&stmt)) return "update";
  if (std::get_if<DeleteStmt>(&stmt)) return "delete";
  if (std::get_if<CompactStmt>(&stmt)) return "compact";
  if (std::get_if<ShowTablesStmt>(&stmt)) return "show_tables";
  if (std::get_if<ShowStatsStmt>(&stmt)) return "show_stats";
  if (std::get_if<MergeStmt>(&stmt)) return "merge";
  if (std::get_if<LoadStmt>(&stmt)) return "load";
  if (const auto* e = std::get_if<ExplainStmt>(&stmt)) {
    return e->analyze ? "explain_analyze" : "explain";
  }
  return "unknown";
}

}  // namespace

Result<QueryResult> Engine::ExecuteStatement(const Statement& stmt) {
  obs::QueryLog* log = exec_.query_log;
  // The SHOW introspection forms are excluded: logging SHOW STATS QUERIES
  // would make the log describe itself.
  const bool capture = log != nullptr && !std::holds_alternative<ShowTablesStmt>(stmt) &&
                       !std::holds_alternative<ShowStatsStmt>(stmt);
  if (!capture) return DispatchStatement(stmt);

  // Capture reads individual meters, NOT MetricsRegistry::Snapshot(): a full
  // snapshot evaluates every view and copies every histogram, which costs
  // more than a small SELECT — the observability-overhead contract
  // (DESIGN.md §10) rules it out of the statement path.
  const table::ScanMeter* scan_meter =
      exec_.scan_meter != nullptr ? exec_.scan_meter : &table::GlobalScanMeter();
  const table::ScanSnapshot scan_before = scan_meter->Snapshot();
  const orc::StripeCacheStats cache_before = orc::StripeCache::Default()->Stats();
  const uint64_t probes_before =
      exec_.metrics != nullptr
          ? exec_.metrics->SumCounterFamily(obs::names::kIndexCounterLookups)
          : 0;
  fs::IoSnapshot io_before;
  const bool modeled = exec_.tracer != nullptr && exec_.tracer->io() != nullptr &&
                       exec_.tracer->cluster() != nullptr;
  if (modeled) io_before = exec_.tracer->io()->Snapshot();

  Stopwatch wall;
  auto result = DispatchStatement(stmt);

  obs::QueryLogRecord record;
  record.kind = StatementKindName(stmt);
  record.sql = last_sql_;
  record.wall_seconds = wall.ElapsedSeconds();
  if (modeled) {
    record.modeled_seconds =
        exec_.tracer->cluster()->JobSeconds(exec_.tracer->io()->Snapshot() - io_before);
  }
  if (result.ok()) {
    record.ok = true;
    record.rows = result->rows.size() + result->affected_rows;
  } else {
    record.ok = false;
    record.error = result.status().message();
  }
  record.bytes_decoded = (scan_meter->Snapshot() - scan_before).bytes;
  const orc::StripeCacheStats cache_after = orc::StripeCache::Default()->Stats();
  record.stripe_cache_hits = cache_after.hits - cache_before.hits;
  if (exec_.metrics != nullptr) {
    record.index_probes =
        exec_.metrics->SumCounterFamily(obs::names::kIndexCounterLookups) -
        probes_before;
    // The age is a point-in-time view, and evaluating the family invokes a
    // view callback (table lookup + tracker mutex) per registered table —
    // too dear for every fast statement. Slow statements are the ones whose
    // records get read for diagnosis, so only they pay for the deep context.
    const double slow_at = log->slow_threshold_seconds();
    if (slow_at > 0 && record.wall_seconds >= slow_at) {
      record.snapshot_age_seconds =
          exec_.metrics->MaxViewFamily(obs::names::kSnapshotOldestSeconds);
    }
  }
  log->Append(std::move(record));
  return result;
}

Result<QueryResult> Engine::DispatchStatement(const Statement& stmt) {
  // One unlabeled increment per statement plus a per-kind labeled counter
  // for the statement kinds that also open trace spans.
  if (exec_.metrics != nullptr) {
    exec_.metrics->counter(obs::names::kSqlStatements)->Inc();
  }
  auto spanned = [this](const char* kind, const auto& execute) {
    if (exec_.metrics != nullptr) {
      exec_.metrics->counter(obs::names::kSqlStatements, kind)->Inc();
    }
    obs::Span span(exec_.tracer, kind);
    return execute();
  };
  if (const auto* s = std::get_if<SelectStmt>(&stmt)) {
    return spanned(obs::names::kSpanSelect, [&] { return ExecuteSelect(*s); });
  }
  if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) return ExecuteCreate(*s);
  if (const auto* s = std::get_if<DropTableStmt>(&stmt)) return ExecuteDrop(*s);
  if (const auto* s = std::get_if<InsertStmt>(&stmt)) {
    return spanned(obs::names::kSpanInsert, [&] { return ExecuteInsert(*s); });
  }
  if (std::holds_alternative<UpdateStmt>(stmt)) {
    return spanned(obs::names::kSpanUpdate, [&] { return ExecuteDml(stmt); });
  }
  if (std::holds_alternative<DeleteStmt>(stmt)) {
    return spanned(obs::names::kSpanDelete, [&] { return ExecuteDml(stmt); });
  }
  if (const auto* s = std::get_if<CompactStmt>(&stmt)) {
    return spanned(obs::names::kSpanCompact, [&] { return ExecuteCompact(*s); });
  }
  if (std::get_if<ShowTablesStmt>(&stmt)) return ExecuteShowTables();
  if (const auto* s = std::get_if<ShowStatsStmt>(&stmt)) return ExecuteShowStats(*s);
  if (std::holds_alternative<MergeStmt>(stmt)) {
    return spanned(obs::names::kSpanMerge, [&] { return ExecuteDml(stmt); });
  }
  if (const auto* s = std::get_if<LoadStmt>(&stmt)) return ExecuteLoad(*s);
  if (const auto* s = std::get_if<ExplainStmt>(&stmt)) return ExecuteExplain(*s);
  return Status::Internal("unhandled statement kind");
}

void Engine::RecordBind(const Stopwatch& bind_watch) {
  if (exec_.tracer != nullptr && exec_.tracer->active()) {
    exec_.tracer->AddLeaf(obs::names::kSpanBind, bind_watch.ElapsedSeconds());
  }
}

Result<QueryResult> Engine::ExecuteSelect(const SelectStmt& stmt) {
  // Planning is the `bind` stage; every scan opens inside `execute`.
  Stopwatch bind_watch;
  DTL_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(stmt));
  RecordBind(bind_watch);
  obs::Span exec_span(exec_.tracer, obs::names::kSpanExecute);
  DTL_ASSIGN_OR_RETURN(auto pipeline, RunSelect(plan, exec_span.node()));
  QueryResult result;
  DTL_ASSIGN_OR_RETURN(result.rows, exec::CollectBatches(pipeline.get()));
  result.column_names = std::move(plan.column_names);
  return result;
}

Result<SelectPlan> Engine::PlanSelect(const SelectStmt& stmt) {
  SelectPlan plan;
  plan.stmt = &stmt;
  std::vector<SelectPlan::Slot>& slots = plan.slots;

  // ---- resolve tables and build the flat scope ----
  Scope scope;
  auto add_table = [&](const TableRef& ref) -> Status {
    SelectPlan::Slot slot;
    slot.qualifier = ref.EffectiveName();
    slot.offset = scope.num_columns();
    if (ref.subquery != nullptr) {
      DTL_ASSIGN_OR_RETURN(SelectPlan child, PlanSelect(*ref.subquery));
      slot.width = child.column_names.size();
      scope.AddTable(slot.qualifier, child.column_names);
      slot.derived = std::make_unique<SelectPlan>(std::move(child));
    } else {
      DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(ref.table));
      slot.kind = entry.kind;
      slot.storage = entry.table;
      slot.width = entry.table->schema().num_fields();
      scope.AddTable(slot.qualifier, entry.table->schema());
      slot.pin = entry.table->Pin();
    }
    slots.push_back(std::move(slot));
    return Status::OK();
  };
  DTL_RETURN_NOT_OK(add_table(stmt.from));
  for (const JoinClause& join : stmt.joins) DTL_RETURN_NOT_OK(add_table(join.table));

  // ---- normalize aliased expressions ----
  ExprPtr where = stmt.where ? SubstituteAliases(*stmt.where, stmt.items) : nullptr;
  ExprPtr having = stmt.having ? SubstituteAliases(*stmt.having, stmt.items) : nullptr;
  std::vector<ExprPtr> group_by;
  for (const auto& g : stmt.group_by) group_by.push_back(SubstituteAliases(*g, stmt.items));
  std::vector<ExprPtr> order_exprs;
  for (const auto& o : stmt.order_by) {
    order_exprs.push_back(SubstituteAliases(*o.expr, stmt.items));
  }

  // ---- expand stars and collect referenced columns ----
  std::vector<const Expr*> select_exprs;
  std::vector<ExprPtr> star_storage;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t i = 0; i < scope.num_columns(); ++i) {
        star_storage.push_back(
            MakeColumnRef(scope.column(i).qualifier, scope.column(i).name));
        select_exprs.push_back(star_storage.back().get());
        plan.column_names.push_back(scope.column(i).name);
      }
      continue;
    }
    select_exprs.push_back(item.expr.get());
    if (!item.alias.empty()) {
      plan.column_names.push_back(item.alias);
    } else if (item.expr->kind == Expr::Kind::kColumnRef) {
      plan.column_names.push_back(item.expr->column);
    } else {
      plan.column_names.push_back(item.expr->ToString());
    }
  }

  std::set<size_t> needed;
  for (const Expr* e : select_exprs) DTL_RETURN_NOT_OK(CollectColumns(*e, scope, &needed));
  if (where) DTL_RETURN_NOT_OK(CollectColumns(*where, scope, &needed));
  if (having) DTL_RETURN_NOT_OK(CollectColumns(*having, scope, &needed));
  for (const auto& g : group_by) DTL_RETURN_NOT_OK(CollectColumns(*g, scope, &needed));
  for (const auto& o : order_exprs) DTL_RETURN_NOT_OK(CollectColumns(*o, scope, &needed));
  for (const JoinClause& join : stmt.joins) {
    DTL_RETURN_NOT_OK(CollectColumns(*join.on, scope, &needed));
  }

  // ---- classify WHERE conjuncts for pushdown ----
  std::vector<const Expr*> conjuncts;
  if (where) SplitConjuncts(*where, &conjuncts);
  std::vector<std::vector<const Expr*>> pushed(slots.size());
  std::vector<const Expr*> residual;
  for (const Expr* c : conjuncts) {
    if (ContainsAggregate(*c)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    std::set<size_t> cols;
    DTL_RETURN_NOT_OK(CollectColumns(*c, scope, &cols));
    std::set<size_t> tables;
    for (size_t ord : cols) tables.insert(TableOf(slots, ord));
    bool pushable = tables.size() <= 1;
    size_t target = tables.empty() ? 0 : *tables.begin();
    // Pushing below the NULL-producing side of a LEFT OUTER JOIN would
    // change semantics; keep those conjuncts above the join.
    if (pushable && target > 0 && stmt.joins[target - 1].left_outer) pushable = false;
    if (pushable) {
      pushed[target].push_back(c);
    } else {
      residual.push_back(c);
    }
  }

  // ---- one pushed-down scan per table ----
  std::vector<Scope> local_scopes;
  for (size_t i = 0; i < slots.size(); ++i) {
    SelectPlan::Slot& slot = slots[i];
    slot.spec.meter = exec_.scan_meter;
    for (size_t ord : needed) {
      if (TableOf(slots, ord) == i) slot.spec.projection.push_back(ord - slot.offset);
    }
    if (slot.spec.projection.empty()) slot.spec.projection.push_back(0);
    local_scopes.push_back(LocalScope(slot));
    DTL_RETURN_NOT_OK(BindScanFilter(pushed[i], local_scopes[i], &slot.spec));
    slot.pushed_conjuncts = pushed[i].size();
  }

  // ---- route ----
  bool has_aggregate = having != nullptr || !group_by.empty();
  for (const Expr* e : select_exprs) has_aggregate |= ContainsAggregate(*e);
  for (const auto& o : order_exprs) has_aggregate |= ContainsAggregate(*o);
  const bool single_table = stmt.joins.empty() && slots[0].storage != nullptr;
  // Global aggregates (no GROUP BY/HAVING/ORDER BY) over one pinned table
  // are order-insensitive: morsel workers build partial AggStates merged at
  // one barrier, identical to the serial plan, and every morsel reads the
  // statement's pin. Every other plan stays serial — that is the ordering
  // contract.
  if (single_table && slots[0].pin != nullptr && exec_.parallelism > 1 &&
      exec_.pool != nullptr && has_aggregate && group_by.empty() && having == nullptr &&
      order_exprs.empty()) {
    plan.route = SelectRoute::kParallelAggregate;
  } else if (single_table && !has_aggregate && order_exprs.empty()) {
    // `WHERE <indexed col> = <lit>` (or IN (...)) resolves through the
    // secondary index. All pushed conjuncts still run as the residual
    // predicate and record-id order equals scan order, so the output is
    // identical to the scan's.
    plan.route = FindIndexProbe(pushed[0], local_scopes[0], *slots[0].storage,
                                &plan.probe_column, &plan.probes)
                     ? SelectRoute::kIndexLookup
                     : SelectRoute::kBatch;
  }

  // ---- operator steps, in execution order ----
  auto add_step = [&plan](Op op, size_t slot = SelectPlan::kNoSlot) -> SelectPlan::Step& {
    SelectPlan::Step& step = plan.steps.emplace_back();
    step.op = op;
    step.slot = slot;
    return step;
  };
  auto bind_outputs = [&](SelectPlan::Step* step) -> Status {
    for (const Expr* e : select_exprs) {
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*e, scope));
      const bool column_ref =
          e->kind == Expr::Kind::kColumnRef && bound.columns.size() == 1;
      step->column_refs.push_back(column_ref ? static_cast<int>(bound.columns.front())
                                             : -1);
      step->fns.push_back(std::move(bound.fn));
    }
    return Status::OK();
  };

  if (plan.route == SelectRoute::kParallelAggregate) {
    SelectPlan::Step& step = add_step(Op::kParallelScan, 0);
    std::vector<const Expr*> agg_ptrs;
    for (const Expr* e : select_exprs) CollectAggregates(*e, &agg_ptrs);
    for (const Expr* a : agg_ptrs) {
      DTL_ASSIGN_OR_RETURN(exec::AggSpec spec, BindAggregateCall(*a, scope));
      step.aggs.push_back(std::move(spec));
    }
    // The scanner's aggregate row has the layout HashAggregateOperator emits
    // for a keyless aggregate, so the post-aggregate binder applies.
    for (const Expr* e : select_exprs) {
      DTL_ASSIGN_OR_RETURN(exec::ValueFn fn, BindPostAggregate(*e, {}, agg_ptrs, scope));
      step.fns.push_back(std::move(fn));
    }
    return plan;
  }
  if (plan.route == SelectRoute::kIndexLookup) {
    DTL_RETURN_NOT_OK(bind_outputs(&add_step(Op::kIndexLookup, 0)));
    return plan;
  }
  // Batch route: a left-deep join tree (probe = accumulated left, build =
  // the new table), residual filters, then aggregation, sort, project,
  // limit. On one table every WHERE conjunct is pushed into the scan.
  add_step(Op::kScan, 0);
  for (size_t j = 0; j < stmt.joins.size(); ++j) {
    const JoinClause& join = stmt.joins[j];
    // Split the ON condition into equi pairs (left vs right) + residual.
    std::vector<const Expr*> on_terms;
    SplitConjuncts(*join.on, &on_terms);
    std::vector<exec::ValueFn> probe_keys;
    std::vector<exec::ValueFn> build_keys;
    std::vector<const Expr*> on_residual;
    for (const Expr* term : on_terms) {
      bool handled = false;
      if (term->kind == Expr::Kind::kBinary && term->op == "=") {
        const Expr* a = term->args[0].get();
        const Expr* b = term->args[1].get();
        std::set<size_t> ca, cb;
        Status sa = CollectColumns(*a, scope, &ca);
        Status sb = CollectColumns(*b, scope, &cb);
        if (sa.ok() && sb.ok() && !ca.empty() && !cb.empty()) {
          auto side = [&](const std::set<size_t>& cols) {
            bool all_right = true, all_left = true;
            for (size_t ord : cols) {
              if (TableOf(slots, ord) == j + 1) {
                all_left = false;
              } else if (TableOf(slots, ord) <= j) {
                all_right = false;
              }
            }
            return all_right ? 1 : (all_left ? 0 : -1);
          };
          const int side_a = side(ca), side_b = side(cb);
          if ((side_a == 0 && side_b == 1) || (side_a == 1 && side_b == 0)) {
            const Expr* left = side_a == 0 ? a : b;
            const Expr* right = side_a == 0 ? b : a;
            DTL_ASSIGN_OR_RETURN(BoundExpr pk, BindScalar(*left, scope));
            DTL_ASSIGN_OR_RETURN(BoundExpr bk, BindScalar(*right, local_scopes[j + 1]));
            probe_keys.push_back(std::move(pk.fn));
            build_keys.push_back(std::move(bk.fn));
            handled = true;
          }
        }
      }
      if (!handled) on_residual.push_back(term);
    }
    if (probe_keys.empty()) {
      return Status::NotSupported("JOIN requires at least one equi condition in ON");
    }
    if (join.left_outer && !on_residual.empty()) {
      return Status::NotSupported("LEFT OUTER JOIN supports only equi ON conditions");
    }
    add_step(Op::kScan, j + 1);
    SelectPlan::Step& join_step = add_step(Op::kJoin, j + 1);
    join_step.fns = std::move(probe_keys);
    join_step.build_keys = std::move(build_keys);
    // Residual ON terms of an inner join become a post-join filter.
    if (!on_residual.empty()) {
      DTL_ASSIGN_OR_RETURN(add_step(Op::kFilter, j + 1).predicate,
                           BindConjunction(on_residual, scope));
    }
  }
  if (!residual.empty()) {
    DTL_ASSIGN_OR_RETURN(add_step(Op::kFilter).predicate, BindConjunction(residual, scope));
  }

  if (!has_aggregate) {
    if (!order_exprs.empty()) {
      SelectPlan::Step& sort = add_step(Op::kSort);
      for (size_t i = 0; i < order_exprs.size(); ++i) {
        DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*order_exprs[i], scope));
        sort.fns.push_back(std::move(bound.fn));
        sort.ascending.push_back(stmt.order_by[i].ascending);
      }
    }
    DTL_RETURN_NOT_OK(bind_outputs(&add_step(Op::kProject)));
  } else {
    std::vector<const Expr*> group_ptrs;
    for (const auto& g : group_by) group_ptrs.push_back(g.get());
    std::vector<const Expr*> agg_ptrs;
    for (const Expr* e : select_exprs) CollectAggregates(*e, &agg_ptrs);
    if (having) CollectAggregates(*having, &agg_ptrs);
    for (const auto& o : order_exprs) CollectAggregates(*o, &agg_ptrs);

    SelectPlan::Step& aggregate = add_step(Op::kAggregate);
    for (const Expr* g : group_ptrs) {
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*g, scope));
      aggregate.fns.push_back(std::move(bound.fn));
    }
    for (const Expr* a : agg_ptrs) {
      DTL_ASSIGN_OR_RETURN(exec::AggSpec spec, BindAggregateCall(*a, scope));
      aggregate.aggs.push_back(std::move(spec));
    }
    if (having) {
      DTL_ASSIGN_OR_RETURN(exec::ValueFn fn,
                           BindPostAggregate(*having, group_ptrs, agg_ptrs, scope));
      add_step(Op::kFilter).predicate = MakePredicate(std::move(fn));
    }
    if (!order_exprs.empty()) {
      SelectPlan::Step& sort = add_step(Op::kSort);
      for (size_t i = 0; i < order_exprs.size(); ++i) {
        DTL_ASSIGN_OR_RETURN(
            exec::ValueFn fn,
            BindPostAggregate(*order_exprs[i], group_ptrs, agg_ptrs, scope));
        sort.fns.push_back(std::move(fn));
        sort.ascending.push_back(stmt.order_by[i].ascending);
      }
    }
    // A select item that is a group key or an aggregate call reads its
    // aggregate-row slot as is (the slots BindPostAggregate resolves).
    auto slot_of = [&](const Expr* e) {
      for (size_t i = 0; i < group_ptrs.size(); ++i) {
        if (group_ptrs[i]->Equals(*e)) return static_cast<int>(i);
      }
      for (size_t j = 0; j < agg_ptrs.size(); ++j) {
        if (agg_ptrs[j]->Equals(*e)) return static_cast<int>(group_ptrs.size() + j);
      }
      return -1;
    };
    SelectPlan::Step& project = add_step(Op::kProject);
    for (const Expr* e : select_exprs) {
      DTL_ASSIGN_OR_RETURN(exec::ValueFn fn,
                           BindPostAggregate(*e, group_ptrs, agg_ptrs, scope));
      project.fns.push_back(std::move(fn));
      project.column_refs.push_back(slot_of(e));
    }
  }
  if (stmt.limit.has_value()) add_step(Op::kLimit);
  return plan;
}

Result<std::unique_ptr<exec::BatchOperator>> Engine::RunSelect(
    SelectPlan& plan, obs::TraceNode* trace_parent) {
  const SelectStmt& stmt = *plan.stmt;
  // One trace node per step, in step order: EXPLAIN ANALYZE shows exactly
  // the operators EXPLAIN prints. Untraced runs allocate none.
  std::vector<obs::TraceNode*> traced;
  auto node = [&traced](size_t step) { return traced.empty() ? nullptr : traced[step]; };
  if (trace_parent != nullptr) {
    for (const SelectPlan::Step& step : plan.steps) {
      traced.push_back(exec_.tracer->AddNode(
          OpName(step.op),
          step.slot == SelectPlan::kNoSlot ? std::string() : plan.slots[step.slot].qualifier,
          trace_parent));
    }
  }
  // The single-operator routes compute the SELECT list from their step's
  // outputs and apply LIMIT themselves.
  const std::optional<uint64_t> limit = stmt.limit;
  auto output = [](const std::vector<exec::ValueFn>& fns, const Row& in) {
    Row out;
    out.reserve(fns.size());
    for (const auto& fn : fns) out.push_back(fn(in));
    return out;
  };

  // The steps are a postfix program over an operator stack.
  std::vector<std::unique_ptr<exec::BatchOperator>> stack;
  auto pop = [&stack]() {
    std::unique_ptr<exec::BatchOperator> top = std::move(stack.back());
    stack.pop_back();
    return top;
  };
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    SelectPlan::Step& step = plan.steps[i];
    std::unique_ptr<exec::BatchOperator> op;
    switch (step.op) {
      case Op::kParallelScan: {
        SelectPlan::Slot& slot = plan.slots[step.slot];
        exec::ParallelScanner scanner(slot.storage.get(), std::move(slot.spec),
                                      {.pool = exec_.pool,
                                       .parallelism = exec_.parallelism,
                                       .morsel_stripes = exec_.morsel_stripes,
                                       .metrics = exec_.metrics,
                                       .snapshot = slot.pin});
        op = std::make_unique<exec::DeferredRowsOperator>(
            [scanner = std::move(scanner), aggs = std::move(step.aggs),
             fns = std::move(step.fns), limit,
             output]() mutable -> Result<std::vector<Row>> {
              DTL_ASSIGN_OR_RETURN(Row agg_row, scanner.Aggregate(aggs));
              std::vector<Row> rows;
              if (!limit.has_value() || *limit > 0) rows.push_back(output(fns, agg_row));
              return rows;
            });
        break;
      }
      case Op::kIndexLookup: {
        // Candidate record ids -> targeted stripe fetches through the shared
        // cache -> delta patch -> probe re-verify -> pushed predicate.
        SelectPlan::Slot& slot = plan.slots[step.slot];
        op = std::make_unique<exec::DeferredRowsOperator>(
            [storage = slot.storage, pin = slot.pin, spec = std::move(slot.spec),
             column = plan.probe_column, probes = std::move(plan.probes),
             fns = std::move(step.fns), limit, output]() -> Result<std::vector<Row>> {
              DTL_ASSIGN_OR_RETURN(auto matches,
                                   storage->IndexLookupAt(pin, column, probes, spec));
              std::vector<Row> rows;
              for (const auto& match : matches) {
                if (limit.has_value() && rows.size() >= *limit) break;
                rows.push_back(output(fns, match.second));
              }
              return rows;
            });
        break;
      }
      case Op::kScan: {
        SelectPlan::Slot& slot = plan.slots[step.slot];
        if (slot.derived != nullptr) {
          // The child plan's pipeline is this scan's leaf and streams into
          // it; its steps trace under this scan's node.
          DTL_ASSIGN_OR_RETURN(op, RunSelect(*slot.derived, node(i)));
          if (slot.spec.predicate) {
            op = std::make_unique<exec::BatchFilterOperator>(std::move(op),
                                                             slot.spec.predicate);
          }
        } else {
          DTL_ASSIGN_OR_RETURN(op, slot.storage->ScanBatchesAt(slot.pin, slot.spec));
        }
        break;
      }
      case Op::kJoin: {
        std::unique_ptr<exec::BatchOperator> build = pop();
        std::unique_ptr<exec::BatchOperator> probe = pop();
        op = std::make_unique<exec::HashJoinOperator>(
            std::move(probe), std::move(build), std::move(step.fns),
            std::move(step.build_keys), plan.slots[step.slot].width,
            stmt.joins[step.slot - 1].left_outer ? exec::HashJoinOperator::Kind::kLeftOuter
                                                 : exec::HashJoinOperator::Kind::kInner);
        break;
      }
      case Op::kFilter:
        op = std::make_unique<exec::BatchFilterOperator>(pop(),
                                                         std::move(step.predicate));
        break;
      case Op::kAggregate:
        op = std::make_unique<exec::HashAggregateOperator>(pop(), std::move(step.fns),
                                                           std::move(step.aggs));
        break;
      case Op::kSort:
        op = std::make_unique<exec::SortOperator>(pop(), std::move(step.fns),
                                                  std::move(step.ascending));
        break;
      case Op::kProject:
        op = std::make_unique<exec::BatchProjectOperator>(pop(), std::move(step.fns),
                                                          std::move(step.column_refs));
        break;
      case Op::kLimit:
        op = std::make_unique<exec::BatchLimitOperator>(pop(), *stmt.limit);
        break;
    }
    if (node(i) != nullptr) {
      op = std::make_unique<TracedBatchOperator>(std::move(op), node(i));
    }
    stack.push_back(std::move(op));
  }
  return std::move(stack.back());
}

Result<QueryResult> Engine::ExecuteCreate(const CreateTableStmt& stmt) {
  if (catalog_->Contains(stmt.table)) {
    if (stmt.if_not_exists) {
      QueryResult result;
      result.message = "table " + stmt.table + " already exists (skipped)";
      return result;
    }
    return Status::AlreadyExists("table already exists: " + stmt.table);
  }
  std::vector<Field> fields;
  for (const ColumnDef& def : stmt.columns) {
    DTL_ASSIGN_OR_RETURN(DataType type, ParseDataType(def.type_name));
    fields.push_back(Field{def.name, type});
  }
  Schema schema(std::move(fields));
  table::TableKind kind = table::TableKind::kDual;
  if (!stmt.stored_as.empty()) {
    DTL_ASSIGN_OR_RETURN(kind, table::ParseTableKind(stmt.stored_as));
  }
  std::vector<size_t> indexed_columns;
  if (!stmt.index_columns.empty()) {
    if (kind != table::TableKind::kDual) {
      return Status::InvalidArgument("INDEX (...) requires a dualtable");
    }
    for (const std::string& name : stmt.index_columns) {
      const std::optional<size_t> ordinal = schema.IndexOf(name);
      if (!ordinal.has_value()) {
        return Status::InvalidArgument("INDEX names unknown column: " + name);
      }
      indexed_columns.push_back(*ordinal);
    }
  }
  DTL_ASSIGN_OR_RETURN(auto storage, factory_(stmt.table, kind, schema, indexed_columns));
  DTL_RETURN_NOT_OK(catalog_->Register(stmt.table, kind, std::move(storage)));
  QueryResult result;
  result.message = "created " + std::string(table::TableKindName(kind)) + " table " +
                   stmt.table + " (" + schema.ToString() + ")";
  return result;
}

Result<QueryResult> Engine::ExecuteDrop(const DropTableStmt& stmt) {
  auto entry = catalog_->Lookup(stmt.table);
  if (!entry.ok()) {
    if (stmt.if_exists && entry.status().IsNotFound()) {
      QueryResult result;
      result.message = "table " + stmt.table + " does not exist (skipped)";
      return result;
    }
    return entry.status();
  }
  DTL_RETURN_NOT_OK(entry->table->Drop());
  DTL_RETURN_NOT_OK(catalog_->Unregister(stmt.table));
  QueryResult result;
  result.message = "dropped table " + stmt.table;
  return result;
}

namespace {

/// Evaluates one VALUES tuple of constant expressions.
Result<Row> EvaluateTuple(const std::vector<ExprPtr>& tuple) {
  const Scope empty_scope;
  const Row no_input;
  Row row;
  row.reserve(tuple.size());
  for (const ExprPtr& e : tuple) {
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*e, empty_scope));
    row.push_back(bound.fn(no_input));
  }
  return row;
}

/// Checks a row's arity against `schema` and coerces each value to its
/// column's type; `statement` names the statement in the arity error.
Result<Row> CoerceRow(const Row& in, const Schema& schema, const std::string& statement) {
  if (in.size() != schema.num_fields()) {
    return Status::InvalidArgument(statement + " arity mismatch: expected " +
                                   std::to_string(schema.num_fields()) + " values");
  }
  Row row;
  row.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    DTL_ASSIGN_OR_RETURN(Value v,
                         CoerceValue(in[i], schema.field(i).type, schema.field(i).name));
    row.push_back(std::move(v));
  }
  return row;
}

}  // namespace

Result<QueryResult> Engine::ExecuteInsert(const InsertStmt& stmt) {
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(stmt.table));
  const Schema& schema = entry.table->schema();
  std::vector<Row> rows;
  if (stmt.select != nullptr) {
    // INSERT [OVERWRITE] ... SELECT: the paper's Listing-2 idiom.
    DTL_ASSIGN_OR_RETURN(QueryResult sub, ExecuteSelect(*stmt.select));
    rows = std::move(sub.rows);
  } else {
    for (const auto& tuple : stmt.rows) {
      DTL_ASSIGN_OR_RETURN(Row row, EvaluateTuple(tuple));
      rows.push_back(std::move(row));
    }
  }
  for (Row& row : rows) {
    DTL_ASSIGN_OR_RETURN(row, CoerceRow(row, schema, "INSERT"));
  }

  if (stmt.overwrite) {
    DTL_RETURN_NOT_OK(entry.table->OverwriteRows(rows));
  } else {
    DTL_RETURN_NOT_OK(entry.table->InsertRows(rows));
  }
  QueryResult result;
  result.affected_rows = rows.size();
  result.message = std::string(stmt.overwrite ? "overwrote table with " : "inserted ") +
                   std::to_string(rows.size()) + " rows";
  return result;
}

namespace {

/// The filter scan of UPDATE and DELETE: the WHERE bound against the target
/// table, with its stats bounds.
Result<table::ScanSpec> BindDmlFilter(const Expr* where, const Scope& scope,
                                      table::ScanMeter* meter) {
  table::ScanSpec filter;
  filter.meter = meter;
  if (where != nullptr) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(*where, &conjuncts);
    DTL_RETURN_NOT_OK(BindScanFilter(conjuncts, scope, &filter));
  }
  return filter;
}

}  // namespace

/// A COMPACT planned once by Engine::PlanCompact: the target table and the
/// storage's plan. ExecuteCompact runs `compact` and EXPLAIN renders it.
struct CompactStatementPlan {
  table::Catalog::Entry entry;
  table::CompactPlan compact;
};

Result<CompactStatementPlan> Engine::PlanCompact(const CompactStmt& stmt) {
  CompactStatementPlan plan;
  DTL_ASSIGN_OR_RETURN(plan.entry, catalog_->Lookup(stmt.table));
  DTL_ASSIGN_OR_RETURN(plan.compact, plan.entry.table->PlanCompact(stmt.incremental));
  return plan;
}

Result<QueryResult> Engine::ExecuteCompact(const CompactStmt& stmt) {
  // Like DML: planning is `bind`, the storage runs the plan in `execute`.
  Stopwatch bind_watch;
  DTL_ASSIGN_OR_RETURN(CompactStatementPlan plan, PlanCompact(stmt));
  RecordBind(bind_watch);
  obs::Span exec_span(exec_.tracer, obs::names::kSpanExecute,
                      table::CompactActionName(plan.compact.action));
  DTL_ASSIGN_OR_RETURN(table::CompactResult done,
                       plan.entry.table->ExecuteCompact(plan.compact, exec_.tracer));
  QueryResult result;
  result.dml_plan = table::CompactActionName(done.action);
  switch (done.action) {
    case table::CompactAction::kNone:
      result.message = "nothing to compact in table " + stmt.table + ": " + done.summary;
      break;
    case table::CompactAction::kRewrite:
      result.message = "compacted table " + stmt.table + ": " + done.summary;
      break;
    case table::CompactAction::kIncremental:
      result.message = "incremental compact of " + stmt.table + ": " + done.summary;
      break;
  }
  return result;
}

namespace {

/// The MERGE key of a row: its values at the key ordinals.
Row KeyOf(const Row& row, const std::vector<size_t>& ordinals) {
  Row key;
  key.reserve(ordinals.size());
  for (size_t ord : ordinals) key.push_back(row[ord]);
  return key;
}

/// MERGE's source and matched sets, keyed by the key-column values.
using KeyedRows = std::unordered_map<Row, Row, exec::RowKeyHash, exec::RowKeyEq>;

}  // namespace

/// An UPDATE, DELETE or MERGE planned once by Engine::PlanDml: the target
/// table, the bound statement and the storage's plan choice. ExecuteDml runs
/// `spec` with `choice` and EXPLAIN renders `choice`, so both name one plan.
struct DmlStatementPlan {
  table::Catalog::Entry entry;
  /// The UPDATE or DELETE; for MERGE, the UPDATE of the matched rows.
  table::DmlSpec spec;
  table::DmlPlanChoice choice;
  /// MERGE only: the key ordinals, the source tuples by key, and the keys
  /// pass 1 finds in the table (`spec`'s filter reads them).
  std::vector<size_t> merge_keys;
  std::shared_ptr<KeyedRows> merge_source;
  std::shared_ptr<KeyedRows> merge_matched;
};

Result<DmlStatementPlan> Engine::PlanDml(const Statement& stmt) {
  DmlStatementPlan plan;
  table::DmlSpec& spec = plan.spec;
  std::optional<double> ratio_hint;
  if (const auto* update = std::get_if<UpdateStmt>(&stmt)) {
    DTL_ASSIGN_OR_RETURN(plan.entry, catalog_->Lookup(update->table));
    const Schema& schema = plan.entry.table->schema();
    Scope scope;
    scope.AddTable(update->alias.empty() ? update->table : update->alias, schema);
    DTL_ASSIGN_OR_RETURN(spec.filter,
                         BindDmlFilter(update->where.get(), scope, exec_.scan_meter));
    for (const auto& [column, expr] : update->assignments) {
      auto ordinal = schema.IndexOf(column);
      if (!ordinal.has_value()) {
        return Status::NotFound("unknown column in SET: " + column);
      }
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*expr, scope));
      table::Assignment a;
      a.column = *ordinal;
      const DataType type = schema.field(*ordinal).type;
      const std::string name = schema.field(*ordinal).name;
      auto fn = bound.fn;
      // The value is stored as INSERT would store it, or the statement fails.
      a.compute = [fn, type, name](const Row& row) {
        return CoerceValue(fn(row), type, name);
      };
      a.input_columns = bound.columns;
      spec.assignments.push_back(std::move(a));
    }
    ratio_hint = update->ratio_hint;
  } else if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    DTL_ASSIGN_OR_RETURN(plan.entry, catalog_->Lookup(del->table));
    Scope scope;
    scope.AddTable(del->table, plan.entry.table->schema());
    spec.kind = table::DmlKind::kDelete;
    DTL_ASSIGN_OR_RETURN(spec.filter,
                         BindDmlFilter(del->where.get(), scope, exec_.scan_meter));
    ratio_hint = del->ratio_hint;
  } else if (const auto* merge = std::get_if<MergeStmt>(&stmt)) {
    DTL_ASSIGN_OR_RETURN(plan.entry, catalog_->Lookup(merge->table));
    const Schema& schema = plan.entry.table->schema();
    std::vector<size_t>& keys = plan.merge_keys;
    for (const std::string& name : merge->key_columns) {
      auto ordinal = schema.IndexOf(name);
      if (!ordinal.has_value()) return Status::NotFound("unknown key column: " + name);
      keys.push_back(*ordinal);
    }
    // Evaluate source tuples and index them by key.
    auto source = std::make_shared<KeyedRows>();
    for (const auto& tuple : merge->rows) {
      DTL_ASSIGN_OR_RETURN(Row values, EvaluateTuple(tuple));
      DTL_ASSIGN_OR_RETURN(Row row, CoerceRow(values, schema, "MERGE tuple"));
      (*source)[KeyOf(row, keys)] = std::move(row);
    }
    // The matched-row UPDATE: its filter reads the keys pass 1 finds, and
    // each non-key column takes the source value of its row's key.
    auto matched = std::make_shared<KeyedRows>();
    spec.filter.meter = exec_.scan_meter;
    spec.filter.predicate_columns = keys;
    spec.filter.predicate = [matched, keys](const Row& row) {
      return matched->count(KeyOf(row, keys)) > 0;
    };
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (std::find(keys.begin(), keys.end(), c) != keys.end()) continue;
      table::Assignment a;
      a.column = c;
      a.input_columns = keys;
      a.compute = [source, keys, c](const Row& row) {
        auto it = source->find(KeyOf(row, keys));
        return it == source->end() ? Value::Null() : it->second[c];
      };
      spec.assignments.push_back(std::move(a));
    }
    plan.merge_source = std::move(source);
    plan.merge_matched = std::move(matched);
    ratio_hint = merge->ratio_hint;
  } else {
    return Status::Internal("not a DML statement");
  }
  // The plan does not depend on which rows match (MERGE plans before its
  // probe), so it is chosen before any data is read.
  plan.choice = plan.entry.table->PlanDml(spec.kind, ratio_hint);
  return plan;
}

namespace {

/// MERGE's passes over its plan: probe which source keys exist, UPDATE
/// those with the planned choice, INSERT the rest.
Result<QueryResult> RunMerge(const DmlStatementPlan& plan) {
  table::StorageTable& storage = *plan.entry.table;
  const std::vector<size_t>& keys = plan.merge_keys;
  const std::shared_ptr<KeyedRows>& source = plan.merge_source;
  KeyedRows& matched = *plan.merge_matched;

  // Pass 1: which source keys already exist in the table?
  table::ScanSpec probe;
  probe.meter = plan.spec.filter.meter;
  probe.projection = keys;
  probe.predicate_columns = keys;
  probe.predicate = [source, keys](const Row& row) {
    return source->count(KeyOf(row, keys)) > 0;
  };
  DTL_ASSIGN_OR_RETURN(auto it, storage.ScanBatches(probe));
  table::RowBatch batch;
  while (it->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Row key;
      key.reserve(keys.size());
      for (size_t ord : keys) key.push_back(batch.ValueAt(ord, i));
      matched[std::move(key)] = Row{};
    }
  }
  DTL_RETURN_NOT_OK(it->status());

  QueryResult result;
  // Pass 2: update matched rows to the source values of their key.
  if (!matched.empty()) {
    DTL_ASSIGN_OR_RETURN(table::DmlResult dml,
                         storage.ExecuteDml(plan.spec, plan.choice));
    result.affected_rows += dml.rows_matched;
    result.dml_plan = table::DmlPlanName(dml.plan);
  }

  // Pass 3: insert the source tuples whose keys did not match.
  std::vector<Row> inserts;
  for (const auto& [key, row] : *source) {
    if (matched.count(key) == 0) inserts.push_back(row);
  }
  if (!inserts.empty()) {
    DTL_RETURN_NOT_OK(storage.InsertRows(inserts));
    result.affected_rows += inserts.size();
  }
  result.message = "merged: " + std::to_string(matched.size()) + " updated, " +
                   std::to_string(inserts.size()) + " inserted";
  return result;
}

}  // namespace

Result<QueryResult> Engine::ExecuteDml(const Statement& stmt) {
  // Planning is the `bind` stage; the storage runs the plan inside
  // `execute(<PLAN>)` — the stage pair a SELECT records.
  Stopwatch bind_watch;
  DTL_ASSIGN_OR_RETURN(DmlStatementPlan plan, PlanDml(stmt));
  RecordBind(bind_watch);
  obs::Span exec_span(exec_.tracer, obs::names::kSpanExecute,
                      table::DmlPlanName(plan.choice.plan));
  if (plan.merge_source != nullptr) return RunMerge(plan);
  DTL_ASSIGN_OR_RETURN(table::DmlResult dml,
                       plan.entry.table->ExecuteDml(plan.spec, plan.choice));
  QueryResult result;
  result.affected_rows = dml.rows_matched;
  result.dml_plan = table::DmlPlanName(dml.plan);
  const char* verb = plan.spec.kind == table::DmlKind::kUpdate ? "updated" : "deleted";
  result.message = std::string(verb) + " " + std::to_string(dml.rows_matched) +
                   " rows via " + result.dml_plan + " plan";
  return result;
}

Result<QueryResult> Engine::ExecuteLoad(const LoadStmt& stmt) {
  if (fs_ == nullptr) {
    return Status::NotSupported("LOAD DATA requires a file system");
  }
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(stmt.table));
  DTL_ASSIGN_OR_RETURN(auto rows,
                       table::ReadCsvFile(fs_, stmt.path, entry.table->schema()));
  if (stmt.overwrite) {
    DTL_RETURN_NOT_OK(entry.table->OverwriteRows(rows));
  } else {
    DTL_RETURN_NOT_OK(entry.table->InsertRows(rows));
  }
  QueryResult result;
  result.affected_rows = rows.size();
  result.message = "loaded " + std::to_string(rows.size()) + " rows from " + stmt.path;
  return result;
}

Result<QueryResult> Engine::ExecuteExplain(const ExplainStmt& stmt) {
  if (stmt.analyze) return ExecuteExplainAnalyze(stmt);
  QueryResult result;
  result.column_names = {"plan"};
  auto emit = [&result](const std::string& line) {
    result.rows.push_back(Row{Value::String(line)});
  };
  const Statement& inner = *stmt.inner;
  if (std::holds_alternative<UpdateStmt>(inner) ||
      std::holds_alternative<DeleteStmt>(inner) ||
      std::holds_alternative<MergeStmt>(inner)) {
    // The plan ExecuteDml would run, from the same planner.
    DTL_ASSIGN_OR_RETURN(DmlStatementPlan plan, PlanDml(inner));
    const std::string storage =
        std::string(" (") + table::TableKindName(plan.entry.kind) + ")";
    const Expr* where = nullptr;
    if (const auto* update = std::get_if<UpdateStmt>(&inner)) {
      emit("UPDATE " + update->table + storage);
      where = update->where.get();
    } else if (const auto* del = std::get_if<DeleteStmt>(&inner)) {
      emit("DELETE FROM " + del->table + storage);
      where = del->where.get();
    } else {
      const auto& merge = std::get<MergeStmt>(inner);
      std::string keys;
      for (const std::string& key : merge.key_columns) {
        keys += (keys.empty() ? "" : ", ") + key;
      }
      emit("MERGE INTO " + merge.table + storage + " ON (" + keys +
           "): UPDATE matched rows, INSERT the rest");
    }
    if (where != nullptr) emit("  where: " + where->ToString());
    const table::DmlPlanChoice& choice = plan.choice;
    const std::string name = table::DmlPlanName(choice.plan);
    switch (choice.chosen_by) {
      case table::PlanChooser::kFixed:
        emit("  plan: " + name + " (" + table::DmlPlanDescription(choice.plan) + ")");
        break;
      case table::PlanChooser::kPlanMode:
        emit("  plan: " + name + " (forced by plan mode)");
        break;
      case table::PlanChooser::kCostModel:
        emit("  plan: " + name + " (cost model)");
        emit("  ratio: " + std::to_string(choice.ratio) + " (" +
             table::RatioSourceName(choice.ratio_source) + ")");
        emit("  cost model: " + choice.decision.ToString());
        break;
    }
    if (choice.crossover_ratio.has_value()) {
      emit("  crossover ratio: " + std::to_string(*choice.crossover_ratio));
    }
    return result;
  }
  if (const auto* select = std::get_if<SelectStmt>(stmt.inner.get())) {
    DTL_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(*select));
    RenderSelectPlan(plan, "", &result.rows);
    return result;
  }
  if (const auto* compact = std::get_if<CompactStmt>(stmt.inner.get())) {
    // The plan ExecuteCompact would run, from the same planner.
    DTL_ASSIGN_OR_RETURN(CompactStatementPlan plan, PlanCompact(*compact));
    emit(std::string(compact->incremental ? "COMPACT INCREMENTAL " : "COMPACT ") +
         compact->table + " (" + table::TableKindName(plan.entry.kind) + ")");
    emit(std::string("  plan: ") + table::CompactActionName(plan.compact.action) + " (" +
         plan.compact.reason + ")");
    if (compact->incremental) {
      std::istringstream lines(plan.compact.fold.ToString());
      for (std::string line; std::getline(lines, line);) emit("  " + line);
    }
    return result;
  }
  emit("statement executes directly (no plan choices)");
  return result;
}

Result<QueryResult> Engine::ExecuteExplainAnalyze(const ExplainStmt& stmt) {
  obs::Tracer* tracer = exec_.tracer;
  if (tracer == nullptr) {
    return Status::NotSupported("EXPLAIN ANALYZE requires a session tracer");
  }
  if (tracer->active()) {
    return Status::InvalidArgument("EXPLAIN ANALYZE cannot nest inside a traced query");
  }
  tracer->Begin(obs::names::kSpanQuery);
  Result<QueryResult> inner = Status::Internal("unset");
  {
    // Adopt the root so the whole statement's wall/io/scan lands on `query`.
    obs::Span root_span(tracer, tracer->current());
    // Execute() already parsed the statement; report that as a leaf.
    tracer->AddLeaf(obs::names::kSpanParse, last_parse_seconds_);
    inner = ExecuteStatement(*stmt.inner);
  }
  obs::Trace trace = tracer->End();
  DTL_RETURN_NOT_OK(inner.status());

  QueryResult result;
  result.column_names = {"analyze"};
  for (const std::string& line : trace.RenderTextLines()) {
    result.rows.push_back(Row{Value::String(line)});
  }
  result.affected_rows = inner->affected_rows;
  result.dml_plan = inner->dml_plan;
  result.message = inner->message;
  return result;
}

Result<QueryResult> Engine::ExecuteShowTables() {
  QueryResult result;
  result.column_names = {"table_name", "storage"};
  for (const std::string& name : catalog_->TableNames()) {
    auto entry = catalog_->Lookup(name);
    if (!entry.ok()) continue;
    result.rows.push_back(
        Row{Value::String(name), Value::String(table::TableKindName(entry->kind))});
  }
  return result;
}

Result<QueryResult> Engine::ExecuteShowStats(const ShowStatsStmt& stmt) {
  QueryResult result;
  if (stmt.what == ShowStatsStmt::What::kQueries) {
    if (exec_.query_log == nullptr) {
      return Status::InvalidArgument(
          "SHOW STATS QUERIES requires the session query log (observability on)");
    }
    result.column_names = {"kind",       "wall_seconds",  "modeled_seconds",
                           "rows",       "bytes_decoded", "stripe_cache_hits",
                           "index_probes", "snapshot_age_seconds", "slow",
                           "ok",         "sql"};
    for (const obs::QueryLogRecord& r : exec_.query_log->Tail(50)) {
      result.rows.push_back(Row{
          Value::String(r.kind), Value::Double(r.wall_seconds),
          Value::Double(r.modeled_seconds), Value::Int64(static_cast<int64_t>(r.rows)),
          Value::Int64(static_cast<int64_t>(r.bytes_decoded)),
          Value::Int64(static_cast<int64_t>(r.stripe_cache_hits)),
          Value::Int64(static_cast<int64_t>(r.index_probes)),
          Value::Double(r.snapshot_age_seconds), Value::Bool(r.slow),
          Value::Bool(r.ok), Value::String(r.ok ? r.sql : r.sql + " -- " + r.error)});
    }
    return result;
  }

  if (exec_.metrics == nullptr) {
    return Status::InvalidArgument(
        "SHOW STATS requires the session metrics registry (observability on)");
  }
  const obs::MetricsSnapshot snap = exec_.metrics->Snapshot();

  if (stmt.what == ShowStatsStmt::What::kHistograms) {
    // Windowed percentiles come from the recorder's window when one is wired
    // (its clock drives slot rotation); lifetime percentiles always render.
    std::map<std::string, obs::HistogramSnapshot> window;
    if (exec_.recorder != nullptr) window = exec_.recorder->WindowSnapshots();
    result.column_names = {"histogram",  "count",      "p50",        "p95",
                           "p99",        "max",        "window_count",
                           "window_p50", "window_p95", "window_p99"};
    for (const auto& [name, h] : snap.histograms) {
      obs::HistogramSnapshot w;
      auto it = window.find(name);
      if (it != window.end()) w = it->second;
      result.rows.push_back(Row{
          Value::String(name), Value::Int64(static_cast<int64_t>(h.count)),
          Value::Int64(static_cast<int64_t>(h.ValueAtQuantile(0.50))),
          Value::Int64(static_cast<int64_t>(h.ValueAtQuantile(0.95))),
          Value::Int64(static_cast<int64_t>(h.ValueAtQuantile(0.99))),
          Value::Int64(static_cast<int64_t>(h.max)),
          Value::Int64(static_cast<int64_t>(w.count)),
          Value::Int64(static_cast<int64_t>(w.ValueAtQuantile(0.50))),
          Value::Int64(static_cast<int64_t>(w.ValueAtQuantile(0.95))),
          Value::Int64(static_cast<int64_t>(w.ValueAtQuantile(0.99)))});
    }
    return result;
  }

  result.column_names = {"metric", "kind", "value"};
  for (const auto& [name, v] : snap.counters) {
    result.rows.push_back(Row{Value::String(name), Value::String("counter"),
                              Value::Double(static_cast<double>(v))});
  }
  for (const auto& [name, v] : snap.gauges) {
    result.rows.push_back(Row{Value::String(name), Value::String("gauge"),
                              Value::Double(static_cast<double>(v))});
  }
  for (const auto& [name, v] : snap.views) {
    result.rows.push_back(
        Row{Value::String(name), Value::String("view"), Value::Double(v)});
  }
  return result;
}

}  // namespace dtl::sql
