// Cross-system integration tests: the four storage systems must stay
// logically equivalent under identical DML streams, and the DualTable-
// specific machinery (UNION READ, cost model, COMPACT) must preserve that
// equivalence at every point.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "exec/parallel_scan.h"
#include "sql/session.h"

namespace dtl {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto session = sql::Session::Create();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
  }

  sql::QueryResult Run(const std::string& sqltext) {
    auto result = session_->Execute(sqltext);
    EXPECT_TRUE(result.ok()) << sqltext << " -> " << result.status().ToString();
    return result.ok() ? *result : sql::QueryResult{};
  }

  std::unique_ptr<sql::Session> session_;
};

/// Canonical fingerprint of a table's logical content (order-independent).
std::multiset<std::string> Fingerprint(sql::Session* session, const std::string& name) {
  auto result = session->Execute("SELECT * FROM " + name);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::multiset<std::string> out;
  if (result.ok()) {
    for (const Row& row : result->rows) out.insert(RowToString(row));
  }
  return out;
}

TEST_F(IntegrationTest, RandomDmlStreamKeepsAllSystemsEquivalent) {
  const std::vector<std::string> kinds = {"dualtable", "hive", "hbase", "acid"};
  for (const auto& kind : kinds) {
    Run("CREATE TABLE s_" + kind + " (id BIGINT, grp BIGINT, v BIGINT) STORED AS " + kind);
    std::string insert = "INSERT INTO s_" + kind + " VALUES (0, 0, 0)";
    for (int i = 1; i < 300; ++i) {
      insert += ", (" + std::to_string(i) + ", " + std::to_string(i % 10) + ", " +
                std::to_string(i * 3) + ")";
    }
    Run(insert);
  }

  Random rng(42);
  for (int step = 0; step < 12; ++step) {
    const int64_t grp = static_cast<int64_t>(rng.Uniform(10));
    std::string op;
    switch (rng.Uniform(3)) {
      case 0:
        op = "UPDATE %T SET v = v + " + std::to_string(rng.Uniform(100)) +
             " WHERE grp = " + std::to_string(grp) + " WITH RATIO 0.1";
        break;
      case 1:
        op = "DELETE FROM %T WHERE id % 37 = " + std::to_string(rng.Uniform(37)) +
             " WITH RATIO 0.03";
        break;
      case 2:
        op = "UPDATE %T SET v = v * 2 WHERE v < " + std::to_string(rng.Uniform(500)) +
             " WITH RATIO 0.4";
        break;
    }
    for (const auto& kind : kinds) {
      std::string sqltext = op;
      sqltext.replace(sqltext.find("%T"), 2, "s_" + kind);
      Run(sqltext);
    }
    // All four systems agree after every step.
    auto reference = Fingerprint(session_.get(), "s_" + kinds[0]);
    for (size_t k = 1; k < kinds.size(); ++k) {
      EXPECT_EQ(Fingerprint(session_.get(), "s_" + kinds[k]), reference)
          << "system " << kinds[k] << " diverged at step " << step;
    }
  }
}

TEST_F(IntegrationTest, CompactPreservesViewAcrossStorageGenerations) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 200; ++i) {
    insert += ", (" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  Run(insert);
  Run("UPDATE t SET v = v + 1000 WHERE id < 50 WITH RATIO 0.25");
  Run("DELETE FROM t WHERE id >= 180 WITH RATIO 0.1");
  auto before = Fingerprint(session_.get(), "t");
  Run("COMPACT TABLE t");
  EXPECT_EQ(Fingerprint(session_.get(), "t"), before);
  // And DML continues to work on the new generation.
  Run("UPDATE t SET v = 1 WHERE id = 0 WITH RATIO 0.01");
  auto check = Run("SELECT v FROM t WHERE id = 0");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 1);
}

TEST_F(IntegrationTest, QueriesSeeEditsWithoutCompaction) {
  Run("CREATE TABLE t (id BIGINT, grp BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0, 1)";
  for (int i = 1; i < 100; ++i) {
    insert += ", (" + std::to_string(i) + ", " + std::to_string(i % 4) + ", 1)";
  }
  Run(insert);
  Run("UPDATE t SET v = 100 WHERE grp = 2 WITH RATIO 0.25");
  // Aggregation over the merged view.
  auto result = Run("SELECT grp, SUM(v) FROM t GROUP BY grp ORDER BY grp");
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(result.rows[2][1].AsInt64(), 2500);  // 25 rows × 100
  EXPECT_EQ(result.rows[1][1].AsInt64(), 25);
}

TEST_F(IntegrationTest, JoinBetweenDualAndHiveTables) {
  Run("CREATE TABLE facts (k BIGINT, v BIGINT) STORED AS dualtable");
  Run("CREATE TABLE dims (k BIGINT, label STRING) STORED AS hive");
  Run("INSERT INTO facts VALUES (1, 10), (2, 20), (3, 30)");
  Run("INSERT INTO dims VALUES (1, 'one'), (2, 'two')");
  Run("UPDATE facts SET v = 99 WHERE k = 2 WITH RATIO 0.3");
  auto result = Run(
      "SELECT f.k, f.v, d.label FROM facts f JOIN dims d ON f.k = d.k ORDER BY f.k");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[1][1].AsInt64(), 99);  // join sees the union-read view
  EXPECT_EQ(result.rows[1][2].AsString(), "two");
}

TEST_F(IntegrationTest, ManySmallDmlStatementsThenCompact) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 500; ++i) insert += ", (" + std::to_string(i) + ", 0)";
  Run(insert);

  // A long stream of tiny EDIT updates accumulates in the attached table.
  for (int i = 0; i < 40; ++i) {
    Run("UPDATE t SET v = " + std::to_string(i) + " WHERE id = " + std::to_string(i * 7) +
        " WITH RATIO 0.002");
  }
  auto entry = session_->catalog()->Lookup("t");
  ASSERT_TRUE(entry.ok());
  auto* dual = dynamic_cast<dual::DualTable*>(entry->table.get());
  ASSERT_NE(dual, nullptr);
  EXPECT_GE(dual->attached()->ApproximateCellCount(), 40u);

  auto before = Fingerprint(session_.get(), "t");
  Run("COMPACT TABLE t");
  EXPECT_TRUE(dual->attached()->Empty());
  EXPECT_EQ(Fingerprint(session_.get(), "t"), before);
}

TEST_F(IntegrationTest, InsertAfterDmlLandsInNewMasterFile) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 1), (2, 2)");
  Run("UPDATE t SET v = 5 WHERE id = 1 WITH RATIO 0.01");
  Run("INSERT INTO t VALUES (3, 3)");  // INSERT goes to the master (paper §III-C)
  auto result = Run("SELECT COUNT(*), SUM(v) FROM t");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 3);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 10);  // 5 + 2 + 3

  auto entry = session_->catalog()->Lookup("t");
  auto* dual = dynamic_cast<dual::DualTable*>(entry->table.get());
  EXPECT_EQ(dual->master()->files().size(), 2u);
}

TEST_F(IntegrationTest, ParallelAggregateOverDualTableMorsels) {
  // The paper's execution model: the UNION READ merge runs map-side, one
  // task per input split. Here each morsel is a split: a per-group parallel
  // aggregate over the merged view must match the SQL GROUP BY.
  Run("CREATE TABLE t (grp BIGINT, v BIGINT) STORED AS dualtable");
  for (int file = 0; file < 4; ++file) {
    std::string insert = "INSERT INTO t VALUES (0, 1)";
    for (int i = 1; i < 50; ++i) {
      insert += ", (" + std::to_string(i % 5) + ", 1)";
    }
    Run(insert);  // 4 master files => 4 morsels at file granularity
  }
  // Tiny ratio hints keep both statements on the EDIT plan so the master
  // file layout (and hence the morsel count) is preserved.
  auto updated = Run("UPDATE t SET v = 10 WHERE grp = 2 WITH RATIO 0.01");
  ASSERT_EQ(updated.dml_plan, "EDIT");
  auto deleted = Run("DELETE FROM t WHERE grp = 4 WITH RATIO 0.01");
  ASSERT_EQ(deleted.dml_plan, "EDIT");

  auto entry = session_->catalog()->Lookup("t");
  ASSERT_TRUE(entry.ok());
  auto* dual = dynamic_cast<dual::DualTable*>(entry->table.get());
  ASSERT_NE(dual, nullptr);
  dual::SnapshotPtr snapshot = dual->AcquireSnapshot();
  auto morsels =
      dual->PlanScanMorselsAt(snapshot, table::ScanSpec{}, /*stripes_per_morsel=*/1000);
  ASSERT_TRUE(morsels.ok());
  EXPECT_EQ(morsels->size(), 4u);

  exec::ParallelScanOptions options;
  options.pool = session_->pool();
  options.parallelism = 4;
  options.snapshot = snapshot;
  std::map<int64_t, int64_t> parallel_sums;
  for (int64_t grp = 0; grp < 5; ++grp) {
    table::ScanSpec spec;
    spec.predicate_columns = {0};
    spec.predicate = [grp](const Row& row) { return row[0].AsInt64() == grp; };
    exec::AggSpec sum;
    sum.kind = exec::AggKind::kSum;
    sum.input = [](const Row& row) { return row[1]; };
    exec::ParallelScanner scanner(dual, spec, options);
    auto row = scanner.Aggregate({sum});
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    if (!(*row)[0].is_null()) parallel_sums[grp] = (*row)[0].AsInt64();
  }

  auto sql_result = Run("SELECT grp, SUM(v) FROM t GROUP BY grp ORDER BY grp");
  ASSERT_EQ(parallel_sums.size(), sql_result.rows.size());  // grp 4 fully deleted
  for (const Row& row : sql_result.rows) {
    EXPECT_EQ(parallel_sums[row[0].AsInt64()], row[1].AsInt64());
  }
}

TEST_F(IntegrationTest, ParallelScannerCountMatchesSequential) {
  Run("CREATE TABLE t (v BIGINT) STORED AS dualtable");
  for (int file = 0; file < 3; ++file) {
    std::string insert = "INSERT INTO t VALUES (0)";
    for (int i = 1; i < 40; ++i) insert += ", (" + std::to_string(i) + ")";
    Run(insert);
  }
  Run("DELETE FROM t WHERE v < 10 WITH RATIO 0.25");
  auto entry = session_->catalog()->Lookup("t");
  ASSERT_TRUE(entry.ok());
  auto* dual = dynamic_cast<dual::DualTable*>(entry->table.get());
  ASSERT_NE(dual, nullptr);
  exec::ParallelScanOptions options;
  options.pool = session_->pool();
  options.parallelism = 3;
  exec::ParallelScanner scanner(dual, table::ScanSpec{}, options);
  auto parallel = scanner.Count();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(*parallel, 90u);  // 120 - 30 deleted
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 90);
}

TEST_F(IntegrationTest, UpdateAfterInsertAppliesAcrossFiles) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 0), (2, 0)");
  Run("INSERT INTO t VALUES (3, 0), (4, 0)");
  Run("UPDATE t SET v = 7 WHERE id % 2 = 0 WITH RATIO 0.5");
  auto result = Run("SELECT SUM(v) FROM t");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 14);  // rows 2 and 4, across two files
}

}  // namespace
}  // namespace dtl
