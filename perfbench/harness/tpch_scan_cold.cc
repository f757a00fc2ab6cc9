// tpch_scan_cold: read-only TPC-H queries over compacted lineitem + orders
// (SF 0.08: 480k lineitem rows, whose decoded stripes exceed the 64 MB
// shared stripe cache, so scans stay cold). One round runs Q1, a Q6-style
// filtered SUM, COUNT(*), a filtered projection, Q12, 80 order lookups
// (`l_orderkey = k`, pruned by stripe bloom filters) and twice the
// recurring data-cleansing DELETE (receipt before ship date), which finds no
// dirty rows, so the attached table stays empty and every read stays on the
// master-only path.
//
// Answer checks: every statement's first answer is compared with a direct
// storage-API computation made in Prepare(); later answers must equal the
// first one.
#include <algorithm>
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
namespace ord = dtl::workload::orders;
using dtl::workload::kDateEpoch;
using dtl::workload::kDateSpanDays;

constexpr double kScaleFactor = 0.08;
// Enough lookups that point_us_p99 has ten samples beyond it in a run.
constexpr int kLookupsPerRound = 80;
constexpr int kCleansesPerRound = 2;
constexpr int64_t kQ6From = kDateEpoch + 365;
constexpr int64_t kProjFrom = kDateEpoch + 1000;

bool Q6Row(const Row& r) {
  const int64_t ship = r[li::kShipDate].AsInt64();
  const double disc = r[li::kDiscount].AsDouble();
  return ship >= kQ6From && ship < kQ6From + 365 && disc >= 0.05 && disc <= 0.07 &&
         r[li::kQuantity].AsDouble() < 24;
}

bool ProjRow(const Row& r) {
  const int64_t ship = r[li::kShipDate].AsInt64();
  return ship >= kProjFrom && ship < kProjFrom + 30 && r[li::kQuantity].AsDouble() >= 48;
}

bool DirtyRow(const Row& r) {
  return r[li::kReceiptDate].AsInt64() < r[li::kShipDate].AsInt64();
}

class TpchScanCold : public Workload {
 public:
  const char* regime() const override { return "cold"; }

  Status Setup(uint64_t seed) override {
    seed_ = seed;
    DTL_ASSIGN_OR_RETURN(session_, dtl::sql::Session::Create(BenchSessionOptions()));
    dtl::workload::TpchConfig config;
    config.scale_factor = kScaleFactor;
    config.seed = seed;
    for (const auto& [name, schema] :
         {std::pair{"lineitem", dtl::workload::LineitemSchema()},
          std::pair{"orders", dtl::workload::OrdersSchema()}}) {
      DTL_RETURN_NOT_OK(session_->Execute(CreateTableSql(name, schema)).status());
    }
    DTL_ASSIGN_OR_RETURN(auto lineitem, session_->catalog()->Lookup("lineitem"));
    DTL_RETURN_NOT_OK(dtl::workload::GenerateLineitem(lineitem.table.get(), config));
    DTL_ASSIGN_OR_RETURN(auto orders, session_->catalog()->Lookup("orders"));
    DTL_RETURN_NOT_OK(dtl::workload::GenerateOrders(orders.table.get(), config));
    DTL_RETURN_NOT_OK(session_->Execute("COMPACT TABLE lineitem").status());
    DTL_RETURN_NOT_OK(session_->Execute("COMPACT TABLE orders").status());
    lineitem_rows_ = config.lineitem_rows();
    orders_rows_ = config.orders_rows();
    return Status::OK();
  }

  void Prepare(Client* client) override {
    rng_.emplace(seed_ ^ 0x5ca1ab1eULL);
    BuildStatements();
    if (Status st = ComputeReferences(); !st.ok()) {
      client->Fail("reference scan: " + st.ToString());
    }
  }

  void Round(Client* client) override {
    for (Query& q : queries_) RunChecked(client, &q);
    for (int i = 0; i < kLookupsPerRound; ++i) {
      const int64_t key = order_keys_[rng_->Uniform(order_keys_.size())];
      Stmt stmt = lookup_;
      stmt.sql += std::to_string(key);
      stmt.scans = {KeyLookupTarget("lineitem", {li::kOrderKey, li::kLineNumber, li::kQuantity},
                                    li::kOrderKey, key)};
      auto result = client->Run(stmt);
      if (result && !SameRows(result->rows, lookup_reference_[key])) {
        client->Fail("lookup of l_orderkey " + std::to_string(key));
      }
    }
    for (int i = 0; i < kCleansesPerRound; ++i) {
      auto result = client->Run(cleanse_);
      if (!result) continue;
      client->ExpectPlan(cleanse_.cls, *result, "EDIT");
      if (result->affected_rows != dirty_rows_) {
        client->Fail("cleansing DELETE removed " + std::to_string(result->affected_rows) +
                     " rows, expected " + std::to_string(dirty_rows_));
      }
    }
  }

  std::vector<std::string> tables() const override { return {"lineitem", "orders"}; }

  std::string Describe() const override {
    return "lineitem_rows=" + std::to_string(lineitem_rows_) +
           " orders_rows=" + std::to_string(orders_rows_) + " sf=0.08";
  }

 private:
  struct Query {
    Stmt stmt;
    std::vector<Row> reference;
    std::optional<std::vector<Row>> first;
  };

  void RunChecked(Client* client, Query* q) {
    auto result = client->Run(q->stmt);
    if (!result) return;
    if (!q->first.has_value()) {
      q->first = result->rows;
      if (!SameRows(result->rows, q->reference)) {
        client->Fail(q->stmt.cls + " disagrees with the storage-API computation");
      }
    } else if (!SameRows(result->rows, *q->first)) {
      client->Fail(q->stmt.cls + " differs from its first answer");
    }
  }

  void BuildStatements() {
    dtl::ThreadPool* pool = session_->pool();
    auto parallel = [pool](dtl::table::ScanSpec spec, bool count) {
      return [pool, spec, count](dual::DualTable* t, const dual::SnapshotPtr& snap) -> Status {
        dtl::exec::ParallelScanOptions options;
        options.pool = pool;
        options.parallelism = 2;
        options.snapshot = snap;
        dtl::exec::ParallelScanner scanner(t, spec, options);
        if (count) return scanner.Count().status();
        std::vector<dtl::exec::AggSpec> aggs(1);
        aggs[0].kind = dtl::exec::AggKind::kSum;
        aggs[0].input = [](const Row& r) {
          return Value::Double(r[li::kExtendedPrice].AsDouble() * r[li::kDiscount].AsDouble());
        };
        return scanner.Aggregate(aggs).status();
      };
    };

    queries_.clear();
    Query q1;
    q1.stmt.cls = "q1";
    q1.stmt.sql = dtl::workload::QueryA("lineitem");
    q1.stmt.scans = {{"lineitem",
                      {li::kQuantity, li::kExtendedPrice, li::kDiscount, li::kTax,
                       li::kReturnFlag, li::kLineStatus, li::kShipDate}}};
    queries_.push_back(std::move(q1));

    Query q6;
    q6.stmt.cls = "q6";
    q6.stmt.sql = "SELECT SUM(l_extendedprice * l_discount) revenue FROM lineitem "
                  "WHERE l_shipdate >= " + std::to_string(kQ6From) +
                  " AND l_shipdate < " + std::to_string(kQ6From + 365) +
                  " AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24";
    q6.stmt.scans = {{"lineitem",
                      {li::kQuantity, li::kExtendedPrice, li::kDiscount, li::kShipDate}}};
    dtl::table::ScanSpec q6_spec;
    q6_spec.projection = q6.stmt.scans[0].projection;
    q6_spec.predicate = Q6Row;
    q6_spec.predicate_columns = {li::kQuantity, li::kDiscount, li::kShipDate};
    q6.stmt.parallel = parallel(q6_spec, false);
    q6.stmt.parallel_table = "lineitem";
    queries_.push_back(std::move(q6));

    Query count;
    count.stmt.cls = "count";
    count.stmt.sql = dtl::workload::QueryC("lineitem");
    count.stmt.scans = {{"lineitem", {li::kOrderKey}}};
    dtl::table::ScanSpec count_spec;
    count_spec.projection = {li::kOrderKey};
    count.stmt.parallel = parallel(count_spec, true);
    count.stmt.parallel_table = "lineitem";
    queries_.push_back(std::move(count));

    Query proj;
    proj.stmt.cls = "proj";
    proj.stmt.sql = "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
                    "WHERE l_shipdate >= " + std::to_string(kProjFrom) +
                    " AND l_shipdate < " + std::to_string(kProjFrom + 30) +
                    " AND l_quantity >= 48";
    proj.stmt.scans = {{"lineitem",
                        {li::kOrderKey, li::kLineNumber, li::kQuantity, li::kExtendedPrice,
                         li::kShipDate}}};
    queries_.push_back(std::move(proj));

    Query q12;
    q12.stmt.cls = "q12";
    q12.stmt.sql = dtl::workload::QueryB("lineitem", "orders");
    q12.stmt.scans = {{"lineitem",
                       {li::kOrderKey, li::kShipDate, li::kCommitDate, li::kReceiptDate,
                        li::kShipMode}},
                      {"orders", {ord::kOrderKey, ord::kOrderPriority}}};
    queries_.push_back(std::move(q12));

    lookup_ = Stmt{};
    lookup_.kind = Kind::kPoint;
    lookup_.cls = "lookup";
    lookup_.sql = "SELECT l_linenumber, l_quantity FROM lineitem WHERE l_orderkey = ";

    cleanse_ = Stmt{};
    cleanse_.kind = Kind::kDml;
    cleanse_.cls = "cleanse";
    cleanse_.sql = "DELETE FROM lineitem WHERE l_receiptdate < l_shipdate WITH RATIO 0.001";
    cleanse_.dml_table = "lineitem";
    cleanse_.locate.projection = {li::kShipDate, li::kReceiptDate};
    cleanse_.locate.predicate = DirtyRow;
    cleanse_.locate.predicate_columns = {li::kShipDate, li::kReceiptDate};
  }

  /// The reference answers, computed from a plain storage scan.
  Status ComputeReferences() {
    struct Q1Group {
      double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
      int64_t count = 0;
    };
    std::map<std::pair<std::string, std::string>, Q1Group> q1;
    double q6 = 0;
    int64_t count = 0;
    std::vector<Row> proj;
    std::map<int64_t, std::string> priority;
    std::map<std::string, std::pair<int64_t, int64_t>> q12;
    const int64_t q1_cutoff = kDateEpoch + kDateSpanDays - 90;
    const int64_t q12_from = kDateEpoch + 365;
    dirty_rows_ = 0;
    lookup_reference_.clear();

    DTL_ASSIGN_OR_RETURN(auto orders, session_->catalog()->Lookup("orders"));
    dtl::table::ScanSpec order_spec;
    order_spec.projection = {ord::kOrderKey, ord::kOrderPriority};
    DTL_ASSIGN_OR_RETURN(auto order_it, orders.table->Scan(order_spec));
    while (order_it->Next()) {
      const Row& r = order_it->row();
      priority[r[ord::kOrderKey].AsInt64()] = r[ord::kOrderPriority].AsString();
    }
    DTL_RETURN_NOT_OK(order_it->status());

    DTL_ASSIGN_OR_RETURN(auto lineitem, session_->catalog()->Lookup("lineitem"));
    DTL_ASSIGN_OR_RETURN(auto it, lineitem.table->Scan(dtl::table::ScanSpec{}));
    while (it->Next()) {
      const Row& r = it->row();
      ++count;
      const int64_t ship = r[li::kShipDate].AsInt64();
      const double qty = r[li::kQuantity].AsDouble();
      const double price = r[li::kExtendedPrice].AsDouble();
      const double disc = r[li::kDiscount].AsDouble();
      const double tax = r[li::kTax].AsDouble();
      if (ship <= q1_cutoff) {
        Q1Group& g = q1[{r[li::kReturnFlag].AsString(), r[li::kLineStatus].AsString()}];
        g.qty += qty;
        g.base += price;
        g.disc_price += price * (1 - disc);
        g.charge += price * (1 - disc) * (1 + tax);
        g.disc += disc;
        ++g.count;
      }
      if (Q6Row(r)) q6 += price * disc;
      if (ProjRow(r)) {
        proj.push_back(Row{r[li::kOrderKey], r[li::kLineNumber], r[li::kExtendedPrice]});
      }
      if (DirtyRow(r)) ++dirty_rows_;
      const std::string& mode = r[li::kShipMode].AsString();
      const int64_t receipt = r[li::kReceiptDate].AsInt64();
      const int64_t commit = r[li::kCommitDate].AsInt64();
      if ((mode == "MAIL" || mode == "SHIP") && commit < receipt && ship < commit &&
          receipt >= q12_from && receipt < q12_from + 365) {
        auto p = priority.find(r[li::kOrderKey].AsInt64());
        if (p != priority.end()) {
          const bool high = p->second == "1-URGENT" || p->second == "2-HIGH";
          auto& [hi, lo] = q12[mode];
          (high ? hi : lo) += 1;
        }
      }
      lookup_reference_[r[li::kOrderKey].AsInt64()].push_back(
          Row{r[li::kLineNumber], r[li::kQuantity]});
    }
    DTL_RETURN_NOT_OK(it->status());

    for (Query& q : queries_) {
      q.first.reset();
      q.reference.clear();
      if (q.stmt.cls == "q1") {
        for (const auto& [key, g] : q1) {
          const double n = static_cast<double>(g.count);
          q.reference.push_back(Row{Value::String(key.first), Value::String(key.second),
                                    Value::Double(g.qty), Value::Double(g.base),
                                    Value::Double(g.disc_price), Value::Double(g.charge),
                                    Value::Double(g.qty / n), Value::Double(g.base / n),
                                    Value::Double(g.disc / n), Value::Int64(g.count)});
        }
      } else if (q.stmt.cls == "q6") {
        q.reference.push_back(Row{Value::Double(q6)});
      } else if (q.stmt.cls == "count") {
        q.reference.push_back(Row{Value::Int64(count)});
      } else if (q.stmt.cls == "proj") {
        q.reference = proj;
      } else if (q.stmt.cls == "q12") {
        for (const auto& [mode, hl] : q12) {
          q.reference.push_back(
              Row{Value::String(mode), Value::Int64(hl.first), Value::Int64(hl.second)});
        }
      }
    }
    order_keys_.clear();
    for (const auto& [key, rows] : lookup_reference_) order_keys_.push_back(key);
    if (order_keys_.empty()) return Status::InvalidArgument("lineitem is empty");
    return Status::OK();
  }

  uint64_t seed_ = 0;
  uint64_t lineitem_rows_ = 0;
  uint64_t orders_rows_ = 0;
  std::optional<dtl::Random> rng_;
  std::vector<Query> queries_;
  Stmt lookup_;
  Stmt cleanse_;
  uint64_t dirty_rows_ = 0;
  std::map<int64_t, std::vector<Row>> lookup_reference_;
  std::vector<int64_t> order_keys_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpchScanCold() { return std::make_unique<TpchScanCold>(); }

}  // namespace perfbench
