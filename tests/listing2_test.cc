// Executable reproduction of the paper's Section II-B example: the SQL
// UPDATE of Listing 1 (set tj_tqxsqk_r.qryhs from an aggregate over
// tj_tqxs_r) and its tortured HiveQL translation of Listing 2 (INSERT
// OVERWRITE with a LEFT OUTER JOIN against a grouped subquery and an IF to
// keep unrelated rows intact) must produce identical tables — and the
// DualTable EDIT path must do it while writing only the modified cells,
// whereas the Listing-2 path rewrites every record and every column.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "sql/session.h"

namespace dtl {
namespace {

constexpr int64_t kVDate = 736010;

class Listing2Test : public ::testing::Test {
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

  /// Creates and fills one pair of the example's tables under a prefix.
  void MakeTables(const std::string& prefix, const std::string& kind) {
    Run("CREATE TABLE " + prefix +
        "_tqxsqk (dwdm STRING, rq BIGINT, glfs BIGINT, cjfs BIGINT, qryhs BIGINT, "
        "extra DOUBLE) STORED AS " + kind);
    Run("CREATE TABLE " + prefix +
        "_tqxs (tjrq BIGINT, glfs BIGINT, zjfs BIGINT, dwdm STRING, sfqr BIGINT, "
        "tqyhs BIGINT) STORED AS " + kind);

    // Target table: 3 orgs x 2 glfs x 2 cjfs x 3 dates; only rq = kVDate rows
    // should be touched.
    std::string target = "INSERT INTO " + prefix + "_tqxsqk VALUES ";
    bool first = true;
    for (int org = 0; org < 3; ++org) {
      for (int glfs = 1; glfs <= 2; ++glfs) {
        for (int cjfs = 1; cjfs <= 2; ++cjfs) {
          for (int64_t rq : {kVDate - 1, kVDate, kVDate + 1}) {
            if (!first) target += ", ";
            first = false;
            target += "('org" + std::to_string(org) + "', " + std::to_string(rq) + ", " +
                      std::to_string(glfs) + ", " + std::to_string(cjfs) +
                      ", -1, 0.5)";
          }
        }
      }
    }
    Run(target);

    // Source table: several confirmed (sfqr=1) and unconfirmed measurements
    // per group; some target groups have no source rows at all.
    std::string source = "INSERT INTO " + prefix + "_tqxs VALUES ";
    first = true;
    int value = 1;
    for (int org = 0; org < 2; ++org) {  // org2 has NO source rows
      for (int glfs = 1; glfs <= 2; ++glfs) {
        for (int zjfs = 1; zjfs <= 2; ++zjfs) {
          for (int copy = 0; copy < 3; ++copy) {
            if (!first) source += ", ";
            first = false;
            const int sfqr = copy == 2 ? 0 : 1;  // one unconfirmed row per group
            source += "(" + std::to_string(kVDate) + ", " + std::to_string(glfs) +
                      ", " + std::to_string(zjfs) + ", 'org" + std::to_string(org) +
                      "', " + std::to_string(sfqr) + ", " + std::to_string(value++) +
                      ")";
          }
        }
      }
    }
    Run(source);
  }

  std::multiset<std::string> Fingerprint(const std::string& name) {
    auto rows = Run("SELECT * FROM " + name);
    std::multiset<std::string> out;
    for (const Row& row : rows.rows) out.insert(RowToString(row));
    return out;
  }

  std::unique_ptr<sql::Session> session_;
};

TEST_F(Listing2Test, Listing1OnDualTableEqualsListing2OnHive) {
  MakeTables("dual", "dualtable");
  MakeTables("hive", "hive");

  // ---- Listing 2 on Hive: the paper's literal HiveQL translation ----
  Run(std::string("INSERT OVERWRITE TABLE hive_tqxsqk ") +
      "SELECT t.dwdm, t.rq, t.glfs, t.cjfs, "
      "IF(t.rq = " + std::to_string(kVDate) + ", g.qryhs, t.qryhs) qryhs, t.extra "
      "FROM hive_tqxsqk t LEFT OUTER JOIN ("
      "  SELECT SUM(k.tqyhs) qryhs, k.tjrq tjrq, k.glfs glfs, k.zjfs zjfs, k.dwdm dwdm"
      "  FROM hive_tqxs k WHERE k.sfqr = 1"
      "  GROUP BY k.tjrq, k.glfs, k.zjfs, k.dwdm) g "
      "ON t.rq = g.tjrq AND g.glfs = t.glfs AND g.zjfs = t.cjfs AND g.dwdm = t.dwdm");

  // ---- Listing 1 on DualTable: aggregate once, then a native UPDATE that
  // writes only the modified qryhs cells into the attached table ----
  auto groups = Run(
      "SELECT tjrq, glfs, zjfs, dwdm, SUM(tqyhs) s FROM dual_tqxs "
      "WHERE sfqr = 1 GROUP BY tjrq, glfs, zjfs, dwdm");
  auto sums = std::make_shared<std::unordered_map<std::string, int64_t>>();
  for (const Row& row : groups.rows) {
    std::string key = row[0].ToString() + "|" + row[1].ToString() + "|" +
                      row[2].ToString() + "|" + row[3].ToString();
    (*sums)[key] = row[4].AsInt64();
  }

  auto entry = session_->catalog()->Lookup("dual_tqxsqk");
  ASSERT_TRUE(entry.ok());
  auto* dual = dynamic_cast<dual::DualTable*>(entry->table.get());
  ASSERT_NE(dual, nullptr);

  table::ScanSpec filter;
  filter.predicate_columns = {1};  // rq
  filter.predicate = [](const Row& row) {
    return !row[1].is_null() && row[1].AsInt64() == kVDate;
  };
  table::Assignment assign;
  assign.column = 4;  // qryhs
  assign.input_columns = {0, 1, 2, 3};
  assign.compute = [sums](const Row& row) {
    std::string key = row[1].ToString() + "|" + row[2].ToString() + "|" +
                      row[3].ToString() + "|" + row[0].ToString();
    auto it = sums->find(key);
    // Scalar subquery with no rows yields NULL, like Listing 2's unmatched
    // LEFT OUTER JOIN.
    return it == sums->end() ? Value::Null() : Value::Int64(it->second);
  };
  auto updated = dual->Update(filter, {assign}, 1.0 / 3.0);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->plan, table::DmlPlan::kEdit);
  EXPECT_EQ(updated->rows_matched, 12u);  // one date of three

  // ---- the two paths converge to the identical logical table ----
  EXPECT_EQ(Fingerprint("dual_tqxsqk"), Fingerprint("hive_tqxsqk"));

  // And the paper's I/O asymmetry holds: DualTable wrote only the changed
  // cells; Listing 2 rewrote all 36 rows x 6 columns.
  auto check = Run("SELECT COUNT(*) FROM dual_tqxsqk WHERE qryhs IS NULL");
  // org2 rows at kVDate (4 of them) had no source group -> NULL.
  EXPECT_EQ(check.rows[0][0].AsInt64(), 4);
}

TEST_F(Listing2Test, InsertOverwriteSelfReferenceWorks) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT)");
  Run("INSERT INTO t VALUES (1, 10), (2, 20)");
  // Self-referencing overwrite (Listing 2 reads the table it overwrites).
  Run("INSERT OVERWRITE TABLE t SELECT id, v * 2 FROM t");
  auto check = Run("SELECT SUM(v) FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 60);
}

TEST_F(Listing2Test, InsertOverwriteReplacesAcrossAllKinds) {
  for (const char* kind : {"dualtable", "hive", "hbase", "acid"}) {
    std::string name = std::string("o_") + kind;
    Run("CREATE TABLE " + name + " (id BIGINT, v BIGINT) STORED AS " + kind);
    Run("INSERT INTO " + name + " VALUES (1, 1), (2, 2), (3, 3)");
    Run("UPDATE " + name + " SET v = 99 WHERE id = 1 WITH RATIO 0.3");
    Run("INSERT OVERWRITE TABLE " + name + " SELECT id, v FROM " + name +
        " WHERE id <= 2");
    auto check = Run("SELECT COUNT(*), SUM(v) FROM " + name);
    EXPECT_EQ(check.rows[0][0].AsInt64(), 2) << kind;
    EXPECT_EQ(check.rows[0][1].AsInt64(), 101) << kind;  // 99 + 2
  }
}

TEST_F(Listing2Test, DerivedTableInFromAndJoin) {
  Run("CREATE TABLE sales (region STRING, amount BIGINT)");
  Run("INSERT INTO sales VALUES ('e', 10), ('e', 20), ('w', 5)");
  auto direct = Run(
      "SELECT s.region, s.total FROM "
      "(SELECT region region, SUM(amount) total FROM sales GROUP BY region) s "
      "WHERE s.total > 6 ORDER BY s.region");
  ASSERT_EQ(direct.rows.size(), 1u);
  EXPECT_EQ(direct.rows[0][0].AsString(), "e");
  EXPECT_EQ(direct.rows[0][1].AsInt64(), 30);
}

}  // namespace
}  // namespace dtl
