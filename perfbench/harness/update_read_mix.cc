// update_read_mix: the paper's read-after-update loop on lineitem at SF 0.02
// (120k rows; decoded stripes fit the 64 MB stripe cache). One round is a
// period of four cycles. Each cycle runs a ~1% UPDATE and a small DELETE
// (both resolve to EDIT), then Q1 through the UNION READ and two order
// lookups. Once per period COMPACT INCREMENTAL follows cycle 0, a ~42%
// UPDATE (must resolve to OVERWRITE) follows cycle 1, and COUNT(*) ends the
// period, so every run ends with two cycles of deltas in the attached table.
//
// Answer checks run against an in-benchmark model of the table (every row's
// Q1 columns plus a liveness flag) that replays each UPDATE and DELETE:
// affected rows, every Q1 aggregate, COUNT(*) (which must also equal the
// generated rows minus the DELETEs' affected rows, and Q1's count_order
// total the model's rows up to the Q1 cutoff) and every lookup.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>

#include "common/random.h"
#include "exec/parallel_scan.h"
#include "harness/client.h"
#include "workload/tpch_gen.h"

namespace perfbench {

namespace {

namespace dual = dtl::dual;
namespace li = dtl::workload::lineitem;
using dtl::workload::kDateEpoch;
using dtl::workload::kDateSpanDays;

constexpr double kScaleFactor = 0.02;
constexpr int kCyclesPerRound = 4;
constexpr int kSmallUpdateDays = 24;  // 1% of the ship-date span
constexpr int kDeleteDays = 2;        // ~0.08%
constexpr double kLargeRatio = 0.42;
constexpr int kLookupsPerCycle = 2;

struct ModelRow {
  int64_t order_key = 0;
  int64_t line_number = 0;
  int64_t ship = 0;
  double qty = 0, price = 0, disc = 0, tax = 0;
  std::string flag, status;
  bool alive = true;
};

/// Ship-date range predicate [from, to) as a storage scan spec.
dtl::table::ScanSpec ShipRangeSpec(int64_t from, int64_t to) {
  dtl::table::ScanSpec spec;
  spec.projection = {li::kShipDate};
  spec.predicate_columns = {li::kShipDate};
  spec.predicate = [from, to](const Row& r) {
    const int64_t ship = r[li::kShipDate].AsInt64();
    return ship >= from && ship < to;
  };
  return spec;
}

class UpdateReadMix : public Workload {
 public:
  const char* regime() const override { return "warm"; }

  Status Setup(uint64_t seed) override {
    seed_ = seed;
    DTL_ASSIGN_OR_RETURN(session_, dtl::sql::Session::Create(BenchSessionOptions()));
    DTL_RETURN_NOT_OK(
        session_->Execute(CreateTableSql("lineitem", dtl::workload::LineitemSchema()))
            .status());
    dtl::workload::TpchConfig config;
    config.scale_factor = kScaleFactor;
    config.seed = seed;
    DTL_ASSIGN_OR_RETURN(auto lineitem, session_->catalog()->Lookup("lineitem"));
    DTL_RETURN_NOT_OK(dtl::workload::GenerateLineitem(lineitem.table.get(), config));
    DTL_RETURN_NOT_OK(session_->Execute("COMPACT TABLE lineitem").status());
    generated_rows_ = config.lineitem_rows();
    return Status::OK();
  }

  void Prepare(Client* client) override {
    rng_.emplace(seed_ ^ 0x0dd5eedULL);
    deleted_rows_ = 0;
    if (Status st = LoadModel(); !st.ok()) client->Fail("model scan: " + st.ToString());
    // Eq. 1 must put the crossover between the two update sizes.
    auto entry = session_->catalog()->Lookup("lineitem");
    auto* t = entry.ok() ? dynamic_cast<dual::DualTable*>(entry->table.get()) : nullptr;
    if (t == nullptr) {
      client->Fail("lineitem is not a DualTable");
      return;
    }
    if (t->PreviewUpdateDecision(0.01).plan != dtl::table::DmlPlan::kEdit ||
        t->PreviewUpdateDecision(kLargeRatio).plan != dtl::table::DmlPlan::kOverwrite) {
      client->Fail("cost model does not separate the small and the large UPDATE");
    }

    q1_.kind = Kind::kRead;
    q1_.cls = "q1";
    q1_.sql = dtl::workload::QueryA("lineitem");
    q1_.scans = {{"lineitem",
                  {li::kQuantity, li::kExtendedPrice, li::kDiscount, li::kTax,
                   li::kReturnFlag, li::kLineStatus, li::kShipDate}}};
    count_.kind = Kind::kRead;
    count_.cls = "count";
    count_.sql = dtl::workload::QueryC("lineitem");
    count_.scans = {{"lineitem", {li::kOrderKey}}};
    dtl::ThreadPool* pool = session_->pool();
    count_.parallel_table = "lineitem";
    count_.parallel = [pool](dual::DualTable* table, const dual::SnapshotPtr& snap) -> Status {
      dtl::exec::ParallelScanOptions options;
      options.pool = pool;
      options.parallelism = 2;
      options.snapshot = snap;
      dtl::table::ScanSpec spec;
      spec.projection = {li::kOrderKey};
      return dtl::exec::ParallelScanner(table, spec, options).Count().status();
    };
    compact_.kind = Kind::kMaintenance;
    compact_.cls = "compact";
    compact_.sql = "COMPACT INCREMENTAL TABLE lineitem";
  }

  void Round(Client* client) override {
    for (int cycle = 0; cycle < kCyclesPerRound; ++cycle) {
      SmallUpdate(client);
      SmallDelete(client);
      CheckQ1(client);
      for (int i = 0; i < kLookupsPerCycle; ++i) Lookup(client);
      if (cycle == 0) client->Run(compact_);
      if (cycle == 1) LargeUpdate(client);
    }
    CheckCount(client);
  }

  std::vector<std::string> tables() const override { return {"lineitem"}; }

  std::string Describe() const override {
    return "lineitem_rows=" + std::to_string(generated_rows_) + " sf=0.02";
  }

 private:
  Status LoadModel() {
    model_.clear();
    by_key_.clear();
    DTL_ASSIGN_OR_RETURN(auto lineitem, session_->catalog()->Lookup("lineitem"));
    DTL_ASSIGN_OR_RETURN(auto it, lineitem.table->Scan(dtl::table::ScanSpec{}));
    while (it->Next()) {
      const Row& r = it->row();
      ModelRow m;
      m.order_key = r[li::kOrderKey].AsInt64();
      m.line_number = r[li::kLineNumber].AsInt64();
      m.ship = r[li::kShipDate].AsInt64();
      m.qty = r[li::kQuantity].AsDouble();
      m.price = r[li::kExtendedPrice].AsDouble();
      m.disc = r[li::kDiscount].AsDouble();
      m.tax = r[li::kTax].AsDouble();
      m.flag = r[li::kReturnFlag].AsString();
      m.status = r[li::kLineStatus].AsString();
      by_key_[m.order_key].push_back(model_.size());
      model_.push_back(std::move(m));
    }
    DTL_RETURN_NOT_OK(it->status());
    keys_.clear();
    for (const auto& [key, rows] : by_key_) keys_.push_back(key);
    if (model_.size() != generated_rows_) {
      return dtl::Status::Internal("scanned " + std::to_string(model_.size()) +
                                   " rows, generated " + std::to_string(generated_rows_));
    }
    return Status::OK();
  }

  /// Runs a ship-date-range DML and replays it on the model.
  void RangeDml(Client* client, const std::string& cls, const std::string& sql,
                int64_t from, int64_t to, const std::string& expected_plan,
                const std::function<void(ModelRow*)>& apply) {
    Stmt stmt;
    stmt.kind = Kind::kDml;
    stmt.cls = cls;
    stmt.sql = sql;
    stmt.dml_table = "lineitem";
    stmt.locate = ShipRangeSpec(from, to);
    auto result = client->Run(stmt);
    uint64_t matched = 0;
    for (ModelRow& m : model_) {
      if (m.alive && m.ship >= from && m.ship < to) {
        apply(&m);
        ++matched;
      }
    }
    if (!result) return;
    client->ExpectPlan(cls, *result, expected_plan);
    if (result->affected_rows != matched) {
      client->Fail(cls + " affected " + std::to_string(result->affected_rows) +
                   " rows, model says " + std::to_string(matched));
    }
  }

  void SmallUpdate(Client* client) {
    const int64_t from =
        kDateEpoch + static_cast<int64_t>(rng_->Uniform(kDateSpanDays - kSmallUpdateDays));
    char value[16];
    std::snprintf(value, sizeof(value), "%.2f", static_cast<double>(rng_->Uniform(11)) / 100);
    const double disc = std::strtod(value, nullptr);
    RangeDml(client, "update_small",
             "UPDATE lineitem SET l_discount = " + std::string(value) +
                 " WHERE l_shipdate >= " + std::to_string(from) +
                 " AND l_shipdate < " + std::to_string(from + kSmallUpdateDays) +
                 " WITH RATIO 0.01",
             from, from + kSmallUpdateDays, "EDIT", [disc](ModelRow* m) { m->disc = disc; });
  }

  void SmallDelete(Client* client) {
    const int64_t from =
        kDateEpoch + static_cast<int64_t>(rng_->Uniform(kDateSpanDays - kDeleteDays));
    uint64_t deleted = 0;
    RangeDml(client, "delete_small",
             "DELETE FROM lineitem WHERE l_shipdate >= " + std::to_string(from) +
                 " AND l_shipdate < " + std::to_string(from + kDeleteDays) +
                 " WITH RATIO 0.001",
             from, from + kDeleteDays, "EDIT", [&deleted](ModelRow* m) {
               m->alive = false;
               ++deleted;
             });
    deleted_rows_ += deleted;
  }

  void LargeUpdate(Client* client) {
    const int64_t to = kDateEpoch + static_cast<int64_t>(kLargeRatio * kDateSpanDays);
    char value[16];
    std::snprintf(value, sizeof(value), "%.2f", static_cast<double>(rng_->Uniform(9)) / 100);
    const double tax = std::strtod(value, nullptr);
    RangeDml(client, "update_large",
             "UPDATE lineitem SET l_tax = " + std::string(value) +
                 " WHERE l_shipdate < " + std::to_string(to) + " WITH RATIO 0.42",
             kDateEpoch, to, "OVERWRITE", [tax](ModelRow* m) { m->tax = tax; });
  }

  void CheckQ1(Client* client) {
    auto result = client->Run(q1_);
    if (!result) return;
    struct Group {
      double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
      int64_t count = 0;
    };
    std::map<std::pair<std::string, std::string>, Group> groups;
    const int64_t cutoff = kDateEpoch + kDateSpanDays - 90;
    int64_t expected_total = 0;
    for (const ModelRow& m : model_) {
      if (!m.alive || m.ship > cutoff) continue;
      Group& g = groups[{m.flag, m.status}];
      g.qty += m.qty;
      g.base += m.price;
      g.disc_price += m.price * (1 - m.disc);
      g.charge += m.price * (1 - m.disc) * (1 + m.tax);
      g.disc += m.disc;
      ++g.count;
      ++expected_total;
    }
    std::vector<Row> expected;
    for (const auto& [key, g] : groups) {
      const double n = static_cast<double>(g.count);
      expected.push_back(Row{Value::String(key.first), Value::String(key.second),
                             Value::Double(g.qty), Value::Double(g.base),
                             Value::Double(g.disc_price), Value::Double(g.charge),
                             Value::Double(g.qty / n), Value::Double(g.base / n),
                             Value::Double(g.disc / n), Value::Int64(g.count)});
    }
    int64_t total = 0;
    for (const Row& row : result->rows) {
      if (!row.empty() && row.back().is_int64()) total += row.back().AsInt64();
    }
    if (total != expected_total) {
      client->Fail("Q1 count_order total " + std::to_string(total) + " != " +
                   std::to_string(expected_total));
    }
    if (!SameRows(result->rows, expected)) client->Fail("Q1 disagrees with the model");
  }

  void CheckCount(Client* client) {
    auto result = client->Run(count_);
    if (!result) return;
    uint64_t alive = 0;
    for (const ModelRow& m : model_) alive += m.alive ? 1 : 0;
    const int64_t want = static_cast<int64_t>(generated_rows_ - deleted_rows_);
    if (result->rows.size() != 1 || result->rows[0].size() != 1 ||
        !result->rows[0][0].is_int64() || result->rows[0][0].AsInt64() != want ||
        alive != generated_rows_ - deleted_rows_) {
      client->Fail("COUNT(*) != generated rows - deleted rows (" + std::to_string(want) + ")");
    }
  }

  void Lookup(Client* client) {
    const int64_t key = keys_[rng_->Uniform(keys_.size())];
    Stmt stmt;
    stmt.kind = Kind::kPoint;
    stmt.cls = "lookup";
    stmt.sql = "SELECT l_linenumber, l_discount FROM lineitem WHERE l_orderkey = " +
               std::to_string(key);
    stmt.scans = {KeyLookupTarget("lineitem", {li::kOrderKey, li::kLineNumber, li::kDiscount},
                                  li::kOrderKey, key)};
    auto result = client->Run(stmt);
    if (!result) return;
    std::vector<Row> expected;
    for (size_t i : by_key_[key]) {
      const ModelRow& m = model_[i];
      if (m.alive) expected.push_back(Row{Value::Int64(m.line_number), Value::Double(m.disc)});
    }
    std::vector<Row> got = result->rows;
    // An order key can repeat across generated orders, so sort on both columns.
    const auto by_line = [](const Row& a, const Row& b) {
      const int c = a[0].Compare(b[0]);
      return c != 0 ? c < 0 : a[1].Compare(b[1]) < 0;
    };
    std::sort(got.begin(), got.end(), by_line);
    std::sort(expected.begin(), expected.end(), by_line);
    if (!SameRows(got, expected)) client->Fail("lookup of l_orderkey " + std::to_string(key));
  }

  uint64_t seed_ = 0;
  uint64_t generated_rows_ = 0;
  uint64_t deleted_rows_ = 0;
  std::optional<dtl::Random> rng_;
  std::vector<ModelRow> model_;
  std::map<int64_t, std::vector<size_t>> by_key_;
  std::vector<int64_t> keys_;
  Stmt q1_;
  Stmt count_;
  Stmt compact_;
};

}  // namespace

std::unique_ptr<Workload> MakeUpdateReadMix() { return std::make_unique<UpdateReadMix>(); }

}  // namespace perfbench
