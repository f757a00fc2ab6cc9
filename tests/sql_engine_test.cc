#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dualtable/dual_table.h"
#include "dualtable/record_id.h"
#include "sql/session.h"

namespace dtl::sql {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto session = Session::Create();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
  }

  QueryResult Run(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  }

  std::unique_ptr<Session> session_;
};

TEST_F(EngineTest, CreateInsertSelect) {
  Run("CREATE TABLE t (id BIGINT, name STRING, price DOUBLE)");
  Run("INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, 'three', 3.5)");
  auto result = Run("SELECT id, name FROM t WHERE price > 2.0 ORDER BY id");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(result.rows[1][1].AsString(), "three");
  EXPECT_EQ(result.column_names[1], "name");
}

TEST_F(EngineTest, SelectStarAndLimit) {
  Run("CREATE TABLE t (a BIGINT, b BIGINT)");
  Run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  auto result = Run("SELECT * FROM t LIMIT 2");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].size(), 2u);
}

TEST_F(EngineTest, AggregationWithGroupByHaving) {
  Run("CREATE TABLE sales (region STRING, amount BIGINT)");
  Run("INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5), ('west', 2), "
      "('north', 100)");
  auto result = Run(
      "SELECT region, SUM(amount) total, COUNT(*) cnt FROM sales "
      "GROUP BY region HAVING SUM(amount) > 10 ORDER BY total DESC");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].AsString(), "north");
  EXPECT_EQ(result.rows[0][1].AsInt64(), 100);
  EXPECT_EQ(result.rows[1][0].AsString(), "east");
  EXPECT_EQ(result.rows[1][2].AsInt64(), 2);
}

TEST_F(EngineTest, GlobalAggregates) {
  Run("CREATE TABLE t (v BIGINT)");
  Run("INSERT INTO t VALUES (1), (2), (3), (4)");
  auto result = Run("SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt64(), 4);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 10);
  EXPECT_DOUBLE_EQ(result.rows[0][2].AsDouble(), 2.5);
  EXPECT_EQ(result.rows[0][3].AsInt64(), 1);
  EXPECT_EQ(result.rows[0][4].AsInt64(), 4);
}

TEST_F(EngineTest, JoinTwoTables) {
  Run("CREATE TABLE orders (oid BIGINT, cid BIGINT)");
  Run("CREATE TABLE customers (cid BIGINT, cname STRING)");
  Run("INSERT INTO orders VALUES (1, 10), (2, 20), (3, 10), (4, 99)");
  Run("INSERT INTO customers VALUES (10, 'alice'), (20, 'bob')");
  auto result = Run(
      "SELECT o.oid, c.cname FROM orders o JOIN customers c ON o.cid = c.cid "
      "ORDER BY o.oid");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0][1].AsString(), "alice");
  EXPECT_EQ(result.rows[1][1].AsString(), "bob");
}

TEST_F(EngineTest, LeftOuterJoinKeepsUnmatched) {
  Run("CREATE TABLE l (k BIGINT)");
  Run("CREATE TABLE r (k BIGINT, v STRING)");
  Run("INSERT INTO l VALUES (1), (2)");
  Run("INSERT INTO r VALUES (2, 'found')");
  auto result = Run("SELECT l.k, r.v FROM l LEFT OUTER JOIN r ON l.k = r.k ORDER BY l.k");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_TRUE(result.rows[0][1].is_null());
  EXPECT_EQ(result.rows[1][1].AsString(), "found");
}

TEST_F(EngineTest, ThreeWayJoin) {
  Run("CREATE TABLE a (x BIGINT)");
  Run("CREATE TABLE b (x BIGINT, y BIGINT)");
  Run("CREATE TABLE c (y BIGINT, z STRING)");
  Run("INSERT INTO a VALUES (1), (2)");
  Run("INSERT INTO b VALUES (1, 100), (2, 200)");
  Run("INSERT INTO c VALUES (100, 'hundred'), (200, 'two hundred')");
  auto result = Run(
      "SELECT a.x, c.z FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y ORDER BY a.x");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[1][1].AsString(), "two hundred");
}

TEST_F(EngineTest, UpdateOnDualTableUsesEditPlanForSmallRatio) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 200; ++i) {
    insert += ", (" + std::to_string(i) + ", 0)";
  }
  Run(insert);
  auto result = Run("UPDATE t SET v = 1 WHERE id < 4 WITH RATIO 0.02");
  EXPECT_EQ(result.affected_rows, 4u);
  EXPECT_EQ(result.dml_plan, "EDIT");
  auto check = Run("SELECT SUM(v) FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 4);
}

TEST_F(EngineTest, UpdateLargeRatioUsesOverwrite) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 100; ++i) insert += ", (" + std::to_string(i) + ", 0)";
  Run(insert);
  auto result = Run("UPDATE t SET v = 1 WHERE id >= 0 WITH RATIO 0.99");
  EXPECT_EQ(result.dml_plan, "OVERWRITE");
  auto check = Run("SELECT SUM(v) FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 100);
}

TEST_F(EngineTest, DeleteFromAllStorageKinds) {
  for (const char* kind : {"dualtable", "hive", "hbase", "acid"}) {
    std::string name = std::string("t_") + kind;
    Run("CREATE TABLE " + name + " (id BIGINT, v BIGINT) STORED AS " + kind);
    Run("INSERT INTO " + name + " VALUES (1, 1), (2, 2), (3, 3), (4, 4)");
    auto result = Run("DELETE FROM " + name + " WHERE id <= 2 WITH RATIO 0.5");
    EXPECT_EQ(result.affected_rows, 2u) << kind;
    auto check = Run("SELECT COUNT(*) FROM " + name);
    EXPECT_EQ(check.rows[0][0].AsInt64(), 2) << kind;
  }
}

TEST_F(EngineTest, UpdateSeesOwnPriorUpdates) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 10)");
  Run("UPDATE t SET v = v + 5 WITH RATIO 0.001");
  Run("UPDATE t SET v = v * 2 WITH RATIO 0.001");
  auto check = Run("SELECT v FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 30);
}

TEST_F(EngineTest, CompactTableStatement) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 1), (2, 2)");
  Run("UPDATE t SET v = 9 WHERE id = 1 WITH RATIO 0.001");
  Run("COMPACT TABLE t");
  auto check = Run("SELECT v FROM t ORDER BY id");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 9);
  EXPECT_EQ(check.rows[1][0].AsInt64(), 2);
}

TEST_F(EngineTest, CompactIncrementalStatement) {
  // Ten-row stripes, so one file holds clean and dirty stripes, and a fixed
  // density threshold.
  SessionOptions options;
  options.dual_defaults.writer_options.stripe_rows = 10;
  options.dual_defaults.incremental_density_override = 0.5;
  auto session = Session::Create(std::move(options));
  ASSERT_TRUE(session.ok());
  session_ = std::move(*session);
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 120; ++i) insert += ", (" + std::to_string(i) + ", 0)";
  Run(insert);
  // A small ratio hint keeps the EDIT plan even though 75% of rows change,
  // so the incremental plan sees a genuinely dense file: stripes 0-8 dirty
  // (stripe 3 fully deleted), stripes 9-11 clean.
  Run("UPDATE t SET v = 7 WHERE id < 90 WITH RATIO 0.01");
  Run("DELETE FROM t WHERE id >= 30 AND id < 40 WITH RATIO 0.01");
  // A stray: an attached cell for a row past the file's last stripe.
  auto* table =
      dynamic_cast<dual::DualTable*>(session_->catalog()->Lookup("t")->table.get());
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->master()->files().size(), 1u);
  const uint64_t file_id = table->master()->files()[0].file_id;
  ASSERT_TRUE(table->attached()->PutUpdate(dual::MakeRecordId(file_id, 120), 1,
                                          Value::Int64(5)).ok());
  table->PublishEditCommit();

  // EXPLAIN renders the plan without executing: per-file density vs
  // threshold plus the stray count.
  auto plan = Run("EXPLAIN COMPACT TABLE t INCREMENTAL");
  ASSERT_FALSE(plan.rows.empty());
  std::string rendered;
  for (const auto& row : plan.rows) rendered += row[0].AsString() + "\n";
  EXPECT_NE(rendered.find("COMPACT INCREMENTAL t"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("threshold"), std::string::npos) << rendered;

  auto result = Run("COMPACT TABLE t INCREMENTAL");
  EXPECT_NE(result.message.find("incremental compact of t"), std::string::npos)
      << result.message;
  // IncrementalCompactStats: 9 dirty stripes re-encoded (90 rows before the
  // deletes), 3 clean stripes copied, 90 row mods + 1 stray folded.
  EXPECT_NE(result.message.find("rewrote 1/1 files (9 stripes re-encoded, 3 copied, "
                                "90 rows, 91 mods folded)"),
            std::string::npos)
      << result.message;
  EXPECT_TRUE(table->attached()->Empty());
  auto check = Run("SELECT SUM(v), COUNT(*) FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 80 * 7);
  EXPECT_EQ(check.rows[0][1].AsInt64(), 110);
}

TEST_F(EngineTest, CompactIncrementalRejectsNonDualTables) {
  Run("CREATE TABLE h (id BIGINT) STORED AS hive");
  auto result = session_->Execute("COMPACT TABLE h INCREMENTAL");
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineTest, ShowTablesListsKinds) {
  Run("CREATE TABLE d (x BIGINT) STORED AS dualtable");
  Run("CREATE TABLE h (x BIGINT) STORED AS hive");
  auto result = Run("SHOW TABLES");
  ASSERT_EQ(result.rows.size(), 2u);
}

TEST_F(EngineTest, DropTable) {
  Run("CREATE TABLE t (x BIGINT)");
  Run("DROP TABLE t");
  EXPECT_FALSE(session_->Execute("SELECT * FROM t").ok());
  Run("DROP TABLE IF EXISTS t");  // no error
}

TEST_F(EngineTest, IfFunctionAndCaseInsensitivity) {
  Run("CREATE TABLE T (V BIGINT)");
  Run("INSERT INTO t VALUES (5), (15)");
  auto result = Run("SELECT SUM(IF(v > 10, 1, 0)) FROM T");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 1);
}

TEST_F(EngineTest, InListPredicate) {
  Run("CREATE TABLE t (tag STRING)");
  Run("INSERT INTO t VALUES ('a'), ('b'), ('c'), ('d')");
  auto result = Run("SELECT COUNT(*) FROM t WHERE tag IN ('a', 'c')");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 2);
}

TEST_F(EngineTest, NullSemantics) {
  Run("CREATE TABLE t (v BIGINT)");
  Run("INSERT INTO t VALUES (1), (NULL), (3)");
  // NULL comparisons exclude rows.
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t WHERE v > 0").rows[0][0].AsInt64(), 2);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t WHERE v IS NULL").rows[0][0].AsInt64(), 1);
  EXPECT_EQ(Run("SELECT COUNT(v) FROM t").rows[0][0].AsInt64(), 2);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 3);
  EXPECT_EQ(Run("SELECT SUM(v) FROM t").rows[0][0].AsInt64(), 4);
}

TEST_F(EngineTest, ArithmeticAndDivision) {
  Run("CREATE TABLE t (a BIGINT, b BIGINT)");
  Run("INSERT INTO t VALUES (7, 2)");
  auto result = Run("SELECT a + b, a - b, a * b, a / b, a % b FROM t");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 9);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 5);
  EXPECT_EQ(result.rows[0][2].AsInt64(), 14);
  EXPECT_DOUBLE_EQ(result.rows[0][3].AsDouble(), 3.5);  // Hive-style: / is double
  EXPECT_EQ(result.rows[0][4].AsInt64(), 1);
}

TEST_F(EngineTest, ErrorMessagesForBadQueries) {
  Run("CREATE TABLE t (v BIGINT)");
  EXPECT_FALSE(session_->Execute("SELECT nope FROM t").ok());
  EXPECT_FALSE(session_->Execute("SELECT v FROM missing_table").ok());
  EXPECT_FALSE(session_->Execute("SELECT v, SUM(v) FROM t").ok());  // v not grouped
  EXPECT_FALSE(session_->Execute("INSERT INTO t VALUES (1, 2)").ok());  // arity
  EXPECT_FALSE(session_->Execute("CREATE TABLE t (v BIGINT)").ok());  // duplicate
}

TEST_F(EngineTest, OrderByAliasAndGroupByAlias) {
  Run("CREATE TABLE t (k BIGINT, v BIGINT)");
  Run("INSERT INTO t VALUES (1, 10), (1, 20), (2, 100)");
  auto result = Run("SELECT k grp, SUM(v) s FROM t GROUP BY grp ORDER BY s DESC");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 100);
}

TEST_F(EngineTest, ExplainSurfacesCostModel) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 1), (2, 2)");
  auto low = Run("EXPLAIN UPDATE t SET v = 0 WHERE id = 1 WITH RATIO 0.01");
  std::string text;
  for (const Row& row : low.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("EDIT"), std::string::npos);
  EXPECT_NE(text.find("crossover"), std::string::npos);
  // EXPLAIN does not execute: values unchanged.
  EXPECT_EQ(Run("SELECT SUM(v) FROM t").rows[0][0].AsInt64(), 3);

  auto high = Run("EXPLAIN UPDATE t SET v = 0 WITH RATIO 0.99");
  text.clear();
  for (const Row& row : high.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("OVERWRITE"), std::string::npos);

  auto select = Run("EXPLAIN SELECT id, SUM(v) FROM t GROUP BY id");
  text.clear();
  for (const Row& row : select.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("UNION READ"), std::string::npos);
  EXPECT_NE(text.find("aggregate"), std::string::npos);
}

TEST_F(EngineTest, ExplainHiveShowsRewritePlan) {
  Run("CREATE TABLE h (id BIGINT) STORED AS hive");
  auto result = Run("EXPLAIN DELETE FROM h WHERE id = 1");
  std::string text;
  for (const Row& row : result.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("INSERT OVERWRITE rewrite"), std::string::npos);
}

/// Operator names of an EXPLAIN SELECT's top-level steps (lines indented by
/// exactly two spaces: `  <op>[(<table>)]: ...`).
std::vector<std::string> ExplainedOps(const QueryResult& explain) {
  std::vector<std::string> ops;
  for (const Row& row : explain.rows) {
    const std::string line = row[0].AsString();
    if (line.size() < 3 || line.compare(0, 2, "  ") != 0 || line[2] == ' ') continue;
    ops.push_back(line.substr(2, line.find_first_of("(:", 2) - 2));
  }
  return ops;
}

/// Operator names of the direct children of EXPLAIN ANALYZE's `execute`
/// node (query > select > execute > operators, two spaces per level).
std::vector<std::string> TracedOps(const QueryResult& analyze) {
  std::vector<std::string> ops;
  bool in_execute = false;
  for (const Row& row : analyze.rows) {
    const std::string line = row[0].AsString();
    const size_t indent = line.find_first_not_of(' ');
    if (indent == 4) in_execute = line.compare(4, 7, "execute") == 0;
    if (!in_execute || indent != 6) continue;
    ops.push_back(line.substr(6, line.find_first_of("( ", 6) - 6));
  }
  return ops;
}

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Row& row : result.rows) rows.push_back(RowToString(row));
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(PlanOracleTest, ExplainListsTheOperatorsExplainAnalyzeRuns) {
  // `{t}` runs against an indexed DualTable, an unindexed copy and a Hive
  // copy of the same rows. EXPLAIN must name exactly the operators EXPLAIN
  // ANALYZE executes, in order, serially and with morsel workers; the rows
  // must not depend on the index or the storage kind.
  const std::vector<std::string> corpus = {
      "SELECT id, v FROM {t} WHERE id = 7",
      "SELECT id, tag FROM {t} WHERE v = 70",
      "SELECT id, v FROM {t} WHERE id IN (3, 7, 11, 90)",
      "SELECT id FROM {t} WHERE tag IN ('t1', 't2')",
      "SELECT id AS k, v FROM {t} WHERE k = 9",
      "SELECT COUNT(*), SUM(v) FROM {t}",
      "SELECT COUNT(*) FROM {t} WHERE id = 2",
      "SELECT v FROM {t} WHERE id = 2 ORDER BY v",
      "SELECT tag, SUM(v) s FROM {t} GROUP BY tag HAVING COUNT(*) > 1 ORDER BY s DESC",
      "SELECT id, v FROM {t} WHERE v > 100 LIMIT 3",
      "SELECT a.id, b.name FROM {t} a JOIN names b ON a.id = b.id ORDER BY a.id",
      "SELECT a.id, b.name FROM {t} a LEFT OUTER JOIN names b ON a.id = b.id "
      "WHERE a.id < 12",
      "SELECT s.k, s.v FROM (SELECT id AS k, v FROM {t} WHERE id < 20) s "
      "WHERE s.v > 50 ORDER BY s.k",
  };
  for (const size_t parallelism : {size_t{1}, size_t{2}}) {
    SessionOptions options;
    options.parallelism = parallelism;
    options.pool_threads = 2;
    auto created = Session::Create(std::move(options));
    ASSERT_TRUE(created.ok());
    std::unique_ptr<Session> session = std::move(*created);
    auto run = [&session](const std::string& sql) {
      auto result = session->Execute(sql);
      EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
      return result.ok() ? *result : QueryResult{};
    };
    run("CREATE TABLE ti (id BIGINT, tag STRING, v BIGINT) INDEX (id)");
    run("CREATE TABLE tu (id BIGINT, tag STRING, v BIGINT)");
    run("CREATE TABLE th (id BIGINT, tag STRING, v BIGINT) STORED AS hive");
    run("CREATE TABLE names (id BIGINT, name STRING)");
    std::string rows;
    for (int i = 0; i < 60; ++i) {
      rows += (i > 0 ? ", (" : "(") + std::to_string(i) + ", 't" + std::to_string(i % 4) +
              "', " + std::to_string(i * 10) + ")";
    }
    for (const char* table : {"ti", "tu", "th"}) {
      run(std::string("INSERT INTO ") + table + " VALUES " + rows);
      run(std::string("UPDATE ") + table + " SET v = 999 WHERE id = 7");
      run(std::string("DELETE FROM ") + table + " WHERE id = 11");
    }
    run("INSERT INTO names VALUES (1, 'one'), (2, 'two'), (7, 'seven'), (40, 'forty')");

    for (const std::string& query : corpus) {
      std::vector<std::string> reference;
      for (const std::string table : {"tu", "ti", "th"}) {
        std::string sql = query;
        sql.replace(sql.find("{t}"), 3, table);
        SCOPED_TRACE("parallelism " + std::to_string(parallelism) + ": " + sql);
        const std::vector<std::string> explained = ExplainedOps(run("EXPLAIN " + sql));
        EXPECT_FALSE(explained.empty());
        EXPECT_EQ(explained, TracedOps(run("EXPLAIN ANALYZE " + sql)));
        const std::vector<std::string> result = SortedRows(run(sql));
        if (table == "tu") {
          reference = result;
        } else {
          EXPECT_EQ(result, reference);
        }
      }
    }
    // The routes under test were really taken.
    EXPECT_EQ(ExplainedOps(run("EXPLAIN SELECT id AS k, v FROM ti WHERE k = 9")),
              std::vector<std::string>{"index-lookup"});
    const std::vector<std::string> aggregate_ops =
        ExplainedOps(run("EXPLAIN SELECT COUNT(*), SUM(v) FROM ti"));
    ASSERT_FALSE(aggregate_ops.empty());
    EXPECT_EQ(aggregate_ops[0], parallelism > 1 ? "parallel-scan" : "scan");

    // EXPLAIN plans a FROM subquery without running it.
    const uint64_t scanned = session->scan_meter()->Snapshot().rows;
    run("EXPLAIN SELECT s.k FROM (SELECT id AS k FROM tu WHERE v > 10) s");
    EXPECT_EQ(session->scan_meter()->Snapshot().rows, scanned);
  }
}

/// The plan EXPLAIN names on its `  plan: <PLAN> (...)` line (a DML plan or
/// a COMPACT action); empty if none.
std::string ExplainedDmlPlan(const QueryResult& explain) {
  for (const Row& row : explain.rows) {
    const std::string line = row[0].AsString();
    if (line.rfind("  plan: ", 0) == 0) return line.substr(8, line.find(' ', 8) - 8);
  }
  return "";
}

/// The plan an EXPLAIN ANALYZE trace names on its `execute(<PLAN>)` stage;
/// empty if none.
std::string TracedPlan(const QueryResult& analyze) {
  for (const Row& row : analyze.rows) {
    const std::string line = row[0].AsString();
    const size_t at = line.find("execute(");
    if (at != std::string::npos) return line.substr(at + 8, line.find(')', at) - at - 8);
  }
  return "";
}

TEST_F(EngineTest, ExplainCompactReturnsTheStatusCompactReturns) {
  // Every storage kind, full and incremental, with deltas and then (the
  // first COMPACT folded them) without: EXPLAIN names the plan EXPLAIN
  // ANALYZE's `execute` stage runs and the result reports, and an
  // unsupported COMPACT fails with one NotSupported status from both.
  for (const std::string kind : {"dualtable", "hive", "hbase", "acid"}) {
    for (const bool incremental : {false, true}) {
      const std::string table = "t_" + kind + (incremental ? "_inc" : "_full");
      Run("CREATE TABLE " + table + " (id BIGINT, v BIGINT) STORED AS " + kind);
      Run("INSERT INTO " + table + " VALUES (1, 10), (2, 20), (3, 30)");
      Run("UPDATE " + table + " SET v = 0 WITH RATIO 0.001");
      const std::string compact =
          "COMPACT TABLE " + table + (incremental ? " INCREMENTAL" : "");
      const bool supported = kind == "dualtable" || (kind == "acid" && !incremental);
      const std::string folds = incremental ? "INCREMENTAL" : "REWRITE";
      for (const std::string& expected : {folds, std::string("NONE")}) {
        SCOPED_TRACE(compact + ", expecting " + expected);
        auto explained = session_->Execute("EXPLAIN " + compact);
        auto analyzed = session_->Execute("EXPLAIN ANALYZE " + compact);
        if (!supported) {
          ASSERT_FALSE(analyzed.ok());
          EXPECT_TRUE(analyzed.status().IsNotSupported());
          ASSERT_FALSE(explained.ok());
          EXPECT_EQ(explained.status().ToString(), analyzed.status().ToString());
          break;
        }
        ASSERT_TRUE(explained.ok()) << explained.status().ToString();
        ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
        EXPECT_EQ(ExplainedDmlPlan(*explained), expected);
        EXPECT_EQ(TracedPlan(*analyzed), expected);
        EXPECT_EQ(analyzed->dml_plan, expected);
      }
      auto check = Run("SELECT SUM(v), COUNT(*) FROM " + table);
      EXPECT_EQ(check.rows[0][0].AsInt64(), 0);
      EXPECT_EQ(check.rows[0][1].AsInt64(), 3);
    }
  }
}

TEST_F(EngineTest, CompactOfNothingSaysNothingWasCompacted) {
  // A DualTable whose attached table is empty and an ACID table without
  // delta files have nothing to fold: EXPLAIN and COMPACT both say so.
  Run("CREATE TABLE d (id BIGINT) STORED AS dualtable");
  Run("CREATE TABLE a (id BIGINT) STORED AS acid");
  for (const std::string table : {"d", "a"}) {
    Run("INSERT INTO " + table + " VALUES (1), (2)");
    EXPECT_EQ(ExplainedDmlPlan(Run("EXPLAIN COMPACT TABLE " + table)), "NONE");
    auto result = Run("COMPACT TABLE " + table);
    EXPECT_EQ(result.dml_plan, "NONE");
    EXPECT_EQ(result.message.rfind("nothing to compact in table " + table, 0), 0u)
        << result.message;
    EXPECT_EQ(Run("SELECT COUNT(*) FROM " + table).rows[0][0].AsInt64(), 2);
  }
}

TEST_F(EngineTest, ExplainDmlNamesThePlanEachStorageKindExecutes) {
  for (const std::string kind : {"dualtable", "hive", "hbase", "acid"}) {
    const std::string table = "t_" + kind;
    Run("CREATE TABLE " + table + " (id BIGINT, v BIGINT) STORED AS " + kind);
    Run("INSERT INTO " + table + " VALUES (1, 10), (2, 20), (3, 30)");
    for (const std::string dml :
         {"UPDATE " + table + " SET v = 0 WHERE id = 1", "DELETE FROM " + table + " WHERE id = 2"}) {
      std::string named;
      for (const Row& row : Run("EXPLAIN " + dml).rows) {
        const std::string line = row[0].AsString();
        if (line.rfind("  plan: ", 0) == 0) named = line.substr(8, line.find(' ', 8) - 8);
      }
      EXPECT_FALSE(named.empty()) << dml;
      EXPECT_EQ(named, Run(dml).dml_plan) << dml;
    }
  }
}

/// The value after `  <label>: ` on an EXPLAIN line, up to the next space;
/// empty if no line has the label.
std::string ExplainedValue(const QueryResult& explain, const std::string& label) {
  const std::string prefix = "  " + label + ": ";
  for (const Row& row : explain.rows) {
    const std::string line = row[0].AsString();
    if (line.rfind(prefix, 0) == 0) {
      return line.substr(prefix.size(), line.find(' ', prefix.size()) - prefix.size());
    }
  }
  return "";
}

TEST_F(EngineTest, UpdateRejectsAValueItsColumnCannotStore) {
  // Regression: a SET value that failed its column coercion was written as
  // NULL. UPDATE now stores values as INSERT does: the statement fails with
  // INSERT's message and leaves the table unchanged, under every plan.
  for (const std::string kind : {"dualtable", "hive", "hbase", "acid"}) {
    const std::string table = "c_" + kind;
    Run("CREATE TABLE " + table + " (id BIGINT, v BIGINT) STORED AS " + kind);
    Run("INSERT INTO " + table + " VALUES (1, 10), (2, 20)");
    auto inserted = session_->Execute("INSERT INTO " + table + " VALUES (3, 'abc')");
    ASSERT_FALSE(inserted.ok());
    const std::vector<std::string> before = SortedRows(Run("SELECT id, v FROM " + table));
    std::vector<std::pair<std::string, std::string>> hinted = {{"", ""}};
    if (kind == "dualtable") {
      hinted = {{" WITH RATIO 0.01", "EDIT"}, {" WITH RATIO 0.99", "OVERWRITE"}};
    }
    for (const auto& [hint, plan] : hinted) {
      const std::string update = "UPDATE " + table + " SET v = 'abc' WHERE id = 1" + hint;
      if (!plan.empty()) EXPECT_EQ(ExplainedDmlPlan(Run("EXPLAIN " + update)), plan);
      auto updated = session_->Execute(update);
      ASSERT_FALSE(updated.ok()) << update;
      EXPECT_EQ(updated.status().ToString(), inserted.status().ToString()) << update;
      EXPECT_EQ(SortedRows(Run("SELECT id, v FROM " + table)), before) << update;
    }
  }
}

TEST(PlanOracleTest, ExplainNamesTheDmlPlanExecutionRuns) {
  // A DML corpus at ratios around the cost model's crossover, with and
  // without WITH RATIO, plus MERGE, over a DualTable under each plan mode
  // and over hive, hbase and acid tables. EXPLAIN must name the plan each
  // statement then executes; under the cost model the statement's CostAudit
  // record must carry EXPLAIN's plan, ratio and ratio source. The rows must
  // not depend on the storage kind or the plan.
  using PlanMode = dual::DualTableOptions::PlanMode;
  const std::vector<std::string> corpus = {
      "UPDATE {t} SET v = v + 1 WHERE id < 3",
      "UPDATE {t} SET v = v + 1 WHERE id < 3 WITH RATIO {below}",
      "UPDATE {t} SET tag = 'x' WHERE id >= 30 WITH RATIO {above}",
      "DELETE FROM {t} WHERE id = 5 WITH RATIO {below}",
      "DELETE FROM {t} WHERE id >= 50 WITH RATIO {above}",
      "DELETE FROM {t} WHERE id = 7",
      "MERGE INTO {t} ON (id) VALUES (1, 'm', 1), (100, 'n', 2) WITH RATIO {above}",
      "MERGE INTO {t} ON (id) VALUES (2, 'm', 3) WITH RATIO {below}",
      "UPDATE {t} SET v = 0 WHERE id > 20",
      // Every SET value is computed from the row before the statement.
      "UPDATE {t} SET v = id, id = v WHERE id = 8 WITH RATIO {above}",
  };
  auto substitute = [](std::string sql, const std::string& key,
                       const std::string& value) {
    for (size_t at = sql.find(key); at != std::string::npos; at = sql.find(key)) {
      sql.replace(at, key.size(), value);
    }
    return sql;
  };
  auto with_hints = [&substitute](const std::string& sql, double below, double above) {
    return substitute(substitute(sql, "{below}", std::to_string(below)), "{above}",
                      std::to_string(above));
  };
  for (const PlanMode mode : {PlanMode::kCostModel, PlanMode::kForceEdit,
                              PlanMode::kForceOverwrite}) {
    SessionOptions options;
    options.dual_defaults.plan_mode = mode;
    auto created = Session::Create(std::move(options));
    ASSERT_TRUE(created.ok());
    std::unique_ptr<Session> session = std::move(*created);
    auto run = [&session](const std::string& sql) {
      auto result = session->Execute(sql);
      EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
      return result.ok() ? *result : QueryResult{};
    };
    const std::vector<std::string> kinds = {"dualtable", "hive", "hbase", "acid"};
    std::string rows;
    for (int i = 0; i < 60; ++i) {
      rows += (i > 0 ? ", (" : "(") + std::to_string(i) + ", 't" + std::to_string(i % 4) +
              "', " + std::to_string(i * 10) + ")";
    }
    for (const std::string& kind : kinds) {
      run("CREATE TABLE t_" + kind + " (id BIGINT, tag STRING, v BIGINT) STORED AS " +
          kind);
      run("INSERT INTO t_" + kind + " VALUES " + rows);
    }
    std::set<std::string> cost_model_plans;
    for (const std::string& statement : corpus) {
      // Hints on either side of the DualTable's current crossover.
      const std::string probe = with_hints(statement, 0.5, 0.5);
      const double crossover = std::stod(ExplainedValue(
          run("EXPLAIN " + substitute(probe, "{t}", "t_dualtable")), "crossover ratio"));
      const std::string hinted =
          with_hints(statement, crossover * 0.5, std::min(0.999, crossover * 1.5));
      for (const std::string& kind : kinds) {
        const std::string sql = substitute(hinted, "{t}", "t_" + kind);
        SCOPED_TRACE("plan mode " + std::to_string(static_cast<int>(mode)) + ": " + sql);
        const QueryResult explain = run("EXPLAIN " + sql);
        const std::string plan = ExplainedDmlPlan(explain);
        const size_t audited = session->cost_audit()->size();
        EXPECT_EQ(run(sql).dml_plan, plan);
        if (kind != "dualtable" || mode != PlanMode::kCostModel) {
          EXPECT_EQ(session->cost_audit()->size(), audited);
          continue;
        }
        cost_model_plans.insert(plan);
        const std::vector<obs::CostAuditRecord> records =
            session->cost_audit()->Records();
        ASSERT_EQ(records.size(), audited + 1);
        const obs::CostAuditRecord& record = records.back();
        EXPECT_EQ(record.executed_plan, plan);
        EXPECT_EQ(std::to_string(record.ratio), ExplainedValue(explain, "ratio"));
        bool from_hint = false;
        for (const Row& row : explain.rows) {
          from_hint |= row[0].AsString().find("(WITH RATIO hint)") != std::string::npos;
        }
        EXPECT_EQ(record.ratio_from_hint, from_hint);
        EXPECT_EQ(from_hint, sql.find("WITH RATIO") != std::string::npos);
      }
    }
    if (mode == PlanMode::kCostModel) {
      EXPECT_EQ(cost_model_plans, (std::set<std::string>{"EDIT", "OVERWRITE"}));
    }
    std::vector<std::string> reference;
    for (const std::string& kind : kinds) {
      const std::vector<std::string> result = SortedRows(run("SELECT * FROM t_" + kind));
      if (kind == "dualtable") {
        reference = result;
      } else {
        EXPECT_EQ(result, reference) << kind;
      }
    }
  }
}

TEST_F(EngineTest, MergeUpdatesMatchesAndInsertsRest) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 10), (2, 20)");
  auto result =
      Run("MERGE INTO t ON (id) VALUES (2, 200), (3, 300) WITH RATIO 0.01");
  EXPECT_EQ(result.affected_rows, 2u);  // one update + one insert
  auto check = Run("SELECT id, v FROM t ORDER BY id");
  ASSERT_EQ(check.rows.size(), 3u);
  EXPECT_EQ(check.rows[0][1].AsInt64(), 10);
  EXPECT_EQ(check.rows[1][1].AsInt64(), 200);
  EXPECT_EQ(check.rows[2][1].AsInt64(), 300);
}

TEST_F(EngineTest, MergeWithCompositeKey) {
  Run("CREATE TABLE t (day BIGINT, meter BIGINT, kwh DOUBLE)");
  Run("INSERT INTO t VALUES (1, 7, 1.0), (1, 8, 2.0), (2, 7, 3.0)");
  Run("MERGE INTO t ON (day, meter) VALUES (1, 7, 9.5), (2, 8, 4.0)");
  auto check = Run("SELECT kwh FROM t ORDER BY day, meter");
  ASSERT_EQ(check.rows.size(), 4u);
  EXPECT_DOUBLE_EQ(check.rows[0][0].AsDouble(), 9.5);  // (1,7) updated
  EXPECT_DOUBLE_EQ(check.rows[1][0].AsDouble(), 2.0);  // (1,8) untouched
  EXPECT_DOUBLE_EQ(check.rows[3][0].AsDouble(), 4.0);  // (2,8) inserted
}

TEST_F(EngineTest, MergeAllInsertsWhenNoMatch) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT)");
  auto result = Run("MERGE INTO t ON (id) VALUES (1, 1), (2, 2)");
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 2);
}

TEST_F(EngineTest, MergeIdenticalAcrossStorageKinds) {
  for (const char* kind : {"dualtable", "hive", "hbase", "acid"}) {
    std::string name = std::string("m_") + kind;
    Run("CREATE TABLE " + name + " (id BIGINT, v BIGINT) STORED AS " + kind);
    Run("INSERT INTO " + name + " VALUES (1, 1), (2, 2), (3, 3)");
    Run("MERGE INTO " + name + " ON (id) VALUES (2, 22), (4, 44) WITH RATIO 0.25");
    auto check = Run("SELECT SUM(v), COUNT(*) FROM " + name);
    EXPECT_EQ(check.rows[0][0].AsInt64(), 1 + 22 + 3 + 44) << kind;
    EXPECT_EQ(check.rows[0][1].AsInt64(), 4) << kind;
  }
}

TEST_F(EngineTest, MergeArityAndKeyErrors) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT)");
  EXPECT_FALSE(session_->Execute("MERGE INTO t ON (nope) VALUES (1, 2)").ok());
  EXPECT_FALSE(session_->Execute("MERGE INTO t ON (id) VALUES (1)").ok());
  EXPECT_FALSE(session_->Execute("MERGE INTO missing ON (id) VALUES (1, 2)").ok());
}

TEST_F(EngineTest, SameResultsAcrossAllStorageKinds) {
  // The same SQL must produce identical answers regardless of storage.
  std::vector<int64_t> counts;
  std::vector<int64_t> sums;
  for (const char* kind : {"dualtable", "hive", "hbase", "acid"}) {
    std::string name = std::string("x_") + kind;
    Run("CREATE TABLE " + name + " (id BIGINT, v BIGINT) STORED AS " + kind);
    std::string insert = "INSERT INTO " + name + " VALUES (0, 0)";
    for (int i = 1; i < 50; ++i) {
      insert += ", (" + std::to_string(i) + ", " + std::to_string(i * i) + ")";
    }
    Run(insert);
    Run("UPDATE " + name + " SET v = 0 WHERE id % 2 = 1 WITH RATIO 0.5");
    Run("DELETE FROM " + name + " WHERE id >= 40 WITH RATIO 0.2");
    auto result = Run("SELECT COUNT(*), SUM(v) FROM " + name);
    counts.push_back(result.rows[0][0].AsInt64());
    sums.push_back(result.rows[0][1].AsInt64());
  }
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0]);
    EXPECT_EQ(sums[i], sums[0]);
  }
}

// --- secondary-index point-lookup fast path ---

TEST_F(EngineTest, IndexedPointLookupMatchesScanPath) {
  // Two identical tables, one indexed: every query must answer identically
  // whether it resolves through the index or the full scan.
  Run("CREATE TABLE ti (id BIGINT, tag STRING, v BIGINT) INDEX (id, tag)");
  Run("CREATE TABLE ts (id BIGINT, tag STRING, v BIGINT)");
  for (const char* name : {"ti", "ts"}) {
    std::string insert = std::string("INSERT INTO ") + name + " VALUES (0, 't0', 0)";
    for (int i = 1; i < 120; ++i) {
      insert += ", (" + std::to_string(i) + ", 't" + std::to_string(i % 5) + "', " +
                std::to_string(i * 3) + ")";
    }
    Run(insert);
    Run(std::string("UPDATE ") + name + " SET v = 999 WHERE id = 7 WITH RATIO 0.01");
    Run(std::string("DELETE FROM ") + name + " WHERE id = 11 WITH RATIO 0.01");
  }
  for (const std::string& where :
       {std::string("id = 7"), std::string("id = 11"), std::string("id = 5000"),
        std::string("id IN (3, 7, 11, 90)"), std::string("tag = 't2'"),
        std::string("tag = 't2' AND v > 100"), std::string("17 = id")}) {
    auto indexed = Run("SELECT id, tag, v FROM ti WHERE " + where);
    auto scanned = Run("SELECT id, tag, v FROM ts WHERE " + where);
    ASSERT_EQ(indexed.rows.size(), scanned.rows.size()) << where;
    for (size_t i = 0; i < indexed.rows.size(); ++i) {
      EXPECT_EQ(RowToString(indexed.rows[i]), RowToString(scanned.rows[i])) << where;
    }
  }
  // The indexed table must actually have taken the index route.
  auto* dual = dynamic_cast<dual::DualTable*>(session_->catalog()->Lookup("ti")->table.get());
  ASSERT_NE(dual, nullptr);
  ASSERT_NE(dual->secondary_index(), nullptr);
  EXPECT_GT(dual->secondary_index()->stats().lookups.load(), 0u);
}

TEST_F(EngineTest, IndexedLookupSurvivesCompactAndLimit) {
  Run("CREATE TABLE tc (id BIGINT, v BIGINT) INDEX (id)");
  std::string insert = "INSERT INTO tc VALUES (0, 0)";
  for (int i = 1; i < 60; ++i) {
    insert += ", (" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  Run(insert);
  Run("UPDATE tc SET v = 1000 WHERE id < 10 WITH RATIO 0.2");
  Run("COMPACT TABLE tc");
  auto result = Run("SELECT v FROM tc WHERE id = 4");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt64(), 1000);
  auto limited = Run("SELECT id FROM tc WHERE id IN (20, 21, 22) LIMIT 2");
  EXPECT_EQ(limited.rows.size(), 2u);
}

TEST_F(EngineTest, ExplainSurfacesIndexLookup) {
  Run("CREATE TABLE te (id BIGINT, v BIGINT) INDEX (id)");
  Run("INSERT INTO te VALUES (1, 10), (2, 20)");
  auto plan = Run("EXPLAIN SELECT v FROM te WHERE id = 2");
  bool saw_lookup = false;
  for (const Row& row : plan.rows) {
    if (row[0].AsString().find("index lookup") != std::string::npos) saw_lookup = true;
  }
  EXPECT_TRUE(saw_lookup) << "EXPLAIN did not surface the index route";
  // A predicate on the unindexed column must NOT claim the index route.
  auto scan_plan = Run("EXPLAIN SELECT id FROM te WHERE v = 20");
  for (const Row& row : scan_plan.rows) {
    EXPECT_EQ(row[0].AsString().find("index lookup"), std::string::npos);
  }
  // EXPLAIN ANALYZE actually executes and shows the index-lookup operator.
  auto analyze = Run("EXPLAIN ANALYZE SELECT v FROM te WHERE id = 2");
  bool saw_node = false;
  for (const Row& row : analyze.rows) {
    if (row[0].AsString().find("index-lookup") != std::string::npos) saw_node = true;
  }
  EXPECT_TRUE(saw_node) << "EXPLAIN ANALYZE trace is missing the index-lookup node";
}

TEST_F(EngineTest, IndexClauseValidation) {
  EXPECT_FALSE(session_->Execute("CREATE TABLE bad1 (id BIGINT) INDEX (nope)").ok());
  EXPECT_FALSE(
      session_->Execute("CREATE TABLE bad2 (id BIGINT) STORED AS hive INDEX (id)").ok());
  // DOUBLE has no order-preserving index encoding.
  EXPECT_FALSE(session_->Execute("CREATE TABLE bad3 (x DOUBLE) INDEX (x)").ok());
  // STRING and DATE are fine.
  Run("CREATE TABLE ok1 (d DATE, s STRING) INDEX (d, s)");
}

}  // namespace
}  // namespace dtl::sql
