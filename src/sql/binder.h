// Name resolution and expression compilation: turns parsed Exprs into
// closures over positional rows (exec::ValueFn). Three-valued logic follows
// SQL: NULL propagates through arithmetic and comparisons; AND/OR short-
// circuit on FALSE/TRUE.
#pragma once

#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "exec/operators.h"
#include "sql/ast.h"
#include "table/spec.h"

namespace dtl::sql {

/// Column visible to expression binding.
struct ScopeColumn {
  std::string qualifier;  // table alias (lowercase)
  std::string name;       // column name (lowercase)
};

/// Flattened row layout of the current FROM/JOIN chain: the row seen by
/// compiled expressions is the concatenation of all added tables.
class Scope {
 public:
  void AddTable(const std::string& qualifier, const Schema& schema);
  /// Same, for a derived table (FROM subquery) known only by column names.
  void AddTable(const std::string& qualifier, const std::vector<std::string>& names);

  /// Resolves [qualifier.]name to a flat ordinal; errors on unknown or
  /// ambiguous names.
  Result<size_t> Resolve(const std::string& qualifier, const std::string& name) const;

  size_t num_columns() const { return columns_.size(); }
  const ScopeColumn& column(size_t i) const { return columns_[i]; }

 private:
  std::vector<ScopeColumn> columns_;
};

/// A compiled scalar expression plus bookkeeping for pushdown.
struct BoundExpr {
  exec::ValueFn fn;
  std::vector<size_t> columns;  // flat ordinals the expression reads
};

/// Compiles a scalar expression; fails if it contains an aggregate call.
Result<BoundExpr> BindScalar(const Expr& expr, const Scope& scope);

/// True when the expression tree contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

/// Appends the distinct aggregate calls of `expr` (structural dedup).
void CollectAggregates(const Expr& expr, std::vector<const Expr*>* out);

/// Compiles an expression evaluated AFTER aggregation, over rows laid out as
/// [group keys..., aggregate results...]. Subtrees equal to a group key or an
/// aggregate call become slot references; stray column refs are errors.
Result<exec::ValueFn> BindPostAggregate(const Expr& expr,
                                        const std::vector<const Expr*>& group_exprs,
                                        const std::vector<const Expr*>& agg_exprs,
                                        const Scope& scope);

/// Builds the exec::AggSpec for one aggregate call node.
Result<exec::AggSpec> BindAggregateCall(const Expr& expr, const Scope& scope);

/// Splits a conjunction into its top-level AND terms.
void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out);

/// Derives stats-prunable bounds from conjuncts of form `col OP literal`.
/// Ordinals are flat scope ordinals (callers re-map for per-table pushdown).
std::vector<table::ColumnBound> ExtractBounds(
    const std::vector<const Expr*>& conjuncts, const Scope& scope);

/// Wraps a compiled boolean expression as a row predicate (NULL/non-bool ⇒
/// row rejected, per SQL WHERE semantics).
table::RowPredicateFn MakePredicate(exec::ValueFn fn);

/// Truthiness used by filters: TRUE only.
bool ValueIsTrue(const Value& v);

}  // namespace dtl::sql
