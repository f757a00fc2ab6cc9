// point_serving: a 200k-row DualTable with a secondary index on id, served a
// mix of 80% `id = k` SELECTs, 10% `id IN (3 keys)` SELECTs and 10%
// `UPDATE ... WHERE id = k` (exactly that mix in every round of ten), keys
// uniform from the seeded generator. The
// statements are tiny, so SQL parse/plan, the secondary index and KV gets
// dominate; the UPDATE locates its row with a full scan.
//
// Answer checks: every answer is compared with an in-benchmark std::map
// model of id -> v that replays each UPDATE. Prepare() checks with EXPLAIN
// that point SELECTs take the "index lookup" path.
#include <algorithm>
#include <map>
#include <optional>

#include "common/random.h"
#include "harness/client.h"

namespace perfbench {

namespace {

constexpr int64_t kRows = 200000;
constexpr int kOpsPerRound = 10;

class PointServing : public Workload {
 public:
  const char* regime() const override { return "warm"; }

  Status Setup(uint64_t seed) override {
    seed_ = seed;
    DTL_ASSIGN_OR_RETURN(session_, dtl::sql::Session::Create(BenchSessionOptions()));
    const dtl::Schema schema({{"id", dtl::DataType::kInt64}, {"v", dtl::DataType::kInt64}});
    DTL_RETURN_NOT_OK(session_->Execute(CreateTableSql("kv", schema, " INDEX (id)")).status());
    DTL_ASSIGN_OR_RETURN(auto entry, session_->catalog()->Lookup("kv"));
    // Ids are inserted in seeded shuffled order, so stripe min/max ranges
    // overlap and only the index narrows a lookup.
    std::vector<int64_t> ids(kRows);
    for (int64_t i = 0; i < kRows; ++i) ids[i] = i;
    dtl::Random rng(seed ^ 0x1d5eedULL);
    for (size_t i = ids.size() - 1; i > 0; --i) std::swap(ids[i], ids[rng.Uniform(i + 1)]);
    model_.clear();
    std::vector<Row> batch;
    for (int64_t id : ids) {
      const int64_t v = static_cast<int64_t>(rng.Uniform(1000000000));
      model_[id] = v;
      batch.push_back(Row{Value::Int64(id), Value::Int64(v)});
      if (batch.size() == 32768) {
        DTL_RETURN_NOT_OK(entry.table->InsertRows(batch));
        batch.clear();
      }
    }
    if (!batch.empty()) DTL_RETURN_NOT_OK(entry.table->InsertRows(batch));
    return session_->Execute("COMPACT TABLE kv").status();
  }

  void Prepare(Client* client) override {
    rng_.emplace(seed_ ^ 0x90175ULL);
    auto plan = session_->Execute("EXPLAIN SELECT id, v FROM kv WHERE id = 7");
    if (!plan.ok() || plan->ToString(100).find("index lookup") == std::string::npos) {
      client->Fail("EXPLAIN of a point SELECT does not show the index lookup path");
    }
  }

  void Round(Client* client) override {
    // Exactly 8 point SELECTs, 1 IN SELECT and 1 UPDATE per round, in a
    // seeded order, so the mix (and with it ops_per_s) does not drift.
    int ops[kOpsPerRound] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 2};
    for (int i = kOpsPerRound - 1; i > 0; --i) std::swap(ops[i], ops[rng_->Uniform(i + 1)]);
    for (int op : ops) {
      if (op == 0) {
        Select(client, "point", {Key()});
      } else if (op == 1) {
        std::vector<int64_t> keys;
        while (keys.size() < 3) {
          const int64_t k = Key();
          if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
        }
        Select(client, "in3", keys);
      } else {
        Update(client);
      }
    }
  }

  std::vector<std::string> tables() const override { return {"kv"}; }

  std::string Describe() const override {
    return "kv_rows=" + std::to_string(kRows) + " index=(id)";
  }

 private:
  int64_t Key() { return static_cast<int64_t>(rng_->Uniform(kRows)); }

  void Select(Client* client, const std::string& cls, const std::vector<int64_t>& keys) {
    Stmt stmt;
    stmt.kind = keys.size() == 1 ? Kind::kPoint : Kind::kRead;
    stmt.cls = cls;
    stmt.sql = "SELECT id, v FROM kv WHERE id ";
    if (keys.size() == 1) {
      stmt.sql += "= " + std::to_string(keys[0]);
    } else {
      stmt.sql += "IN (";
      for (size_t i = 0; i < keys.size(); ++i) {
        stmt.sql += (i > 0 ? ", " : "") + std::to_string(keys[i]);
      }
      stmt.sql += ")";
    }
    stmt.index_table = "kv";
    stmt.index_column = 0;
    stmt.probes = keys;
    stmt.index_projection = {0, 1};
    auto result = client->Run(stmt);
    if (!result) return;
    std::vector<Row> got = result->rows;
    std::sort(got.begin(), got.end(),
              [](const Row& a, const Row& b) { return a[0].Compare(b[0]) < 0; });
    std::vector<int64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    bool same = got.size() == sorted.size();
    for (size_t i = 0; same && i < sorted.size(); ++i) {
      same = got[i].size() == 2 && got[i][0].is_int64() && got[i][1].is_int64() &&
             got[i][0].AsInt64() == sorted[i] && got[i][1].AsInt64() == model_[sorted[i]];
    }
    if (!same) client->Fail(cls + " lookup disagrees with the model: " + stmt.sql);
  }

  void Update(Client* client) {
    const int64_t key = Key();
    const int64_t v = static_cast<int64_t>(rng_->Uniform(1000000000));
    Stmt stmt;
    stmt.kind = Kind::kDml;
    stmt.cls = "update";
    stmt.sql = "UPDATE kv SET v = " + std::to_string(v) + " WHERE id = " + std::to_string(key);
    stmt.dml_table = "kv";
    stmt.locate.projection = {0};
    stmt.locate.predicate_columns = {0};
    stmt.locate.predicate = [key](const Row& r) { return r[0].AsInt64() == key; };
    auto result = client->Run(stmt);
    model_[key] = v;
    if (!result) return;
    client->ExpectPlan("update", *result, "EDIT");
    if (result->affected_rows != 1) {
      client->Fail("UPDATE of id " + std::to_string(key) + " affected " +
                   std::to_string(result->affected_rows) + " rows");
    }
  }

  uint64_t seed_ = 0;
  std::optional<dtl::Random> rng_;
  std::map<int64_t, int64_t> model_;
};

}  // namespace

std::unique_ptr<Workload> MakePointServing() { return std::make_unique<PointServing>(); }

}  // namespace perfbench
