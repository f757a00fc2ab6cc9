// Lookup-vs-scan differential oracle (DESIGN.md §13): random
// INSERT/UPDATE/DELETE/COMPACT(full|incremental)/snapshot interleavings run
// against a DualTable with secondary indexes on the id and tag columns.
// After every few operations, point and range lookups through the index path
// (SecondaryIndex candidates -> targeted stripe fetch through a deliberately
// tiny shared StripeCache -> delta patch -> probe re-verify) must agree with
// BOTH a full UNION READ scan under the same predicate (set- AND
// order-identical) and a trivially correct std::map reference model.
// Still-pinned snapshots must keep answering lookups with the exact state
// frozen at acquisition.
//
// Reproduction: the seed is printed on entry; re-run a failure with
// DTL_DIFF_SEED=<seed> (and optionally DTL_DIFF_OPS=<n>).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dualtable/dual_table.h"
#include "dualtable/record_id.h"
#include "fs/filesystem.h"
#include "orc/stripe_cache.h"

namespace dtl::dual {
namespace {

Schema DiffSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"day", DataType::kDate},
                 {"amount", DataType::kDouble},
                 {"tag", DataType::kString}});
}

Row MakeSeedRow(int64_t id) {
  return Row{Value::Int64(id), Value::Date(id % 36), Value::Double(id * 1.5),
             Value::String("t" + std::to_string(id % 7))};
}

std::string StateToString(const std::map<int64_t, Row>& state) {
  std::ostringstream out;
  for (const auto& [id, row] : state) out << id << "=>" << dtl::RowToString(row) << '\n';
  return out.str();
}

table::ScanSpec IdRange(int64_t lo, int64_t hi) {
  table::ScanSpec spec;
  spec.predicate_columns = {0};
  spec.predicate = [lo, hi](const Row& row) {
    return !row[0].is_null() && row[0].AsInt64() >= lo && row[0].AsInt64() < hi;
  };
  return spec;
}

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

class IndexDifferentialHarness {
 public:
  IndexDifferentialHarness(uint64_t seed, uint64_t ops)
      : seed_(seed), ops_(ops), rng_(seed) {}

  void Run() {
    fs::SimFileSystem fs;
    auto metadata = MetadataTable::Open(&fs);
    ASSERT_TRUE(metadata.ok());
    fs::ClusterModel cluster;
    ThreadPool pool(4);

    // A deliberately tiny private cache: eviction churns constantly, and a
    // COMPACT mid-run swaps generations under it, so every lookup doubles as
    // a staleness check on the (owner, file, generation, stripe) key.
    orc::StripeCache cache(/*capacity_bytes=*/1 << 15, /*shards=*/2);

    DualTableOptions options;
    options.writer_options.stripe_rows = 16 + rng_() % 48;
    options.scan_batch_rows = 8 + rng_() % 56;
    options.pool = &pool;
    options.indexed_columns = {0, 3};  // id (int64) and tag (string)
    options.stripe_cache = &cache;
    const double overrides[] = {-1.0, 0.0, 0.35};
    options.incremental_density_override = overrides[rng_() % 3];
    auto table = DualTable::Open(&fs, metadata->get(), &cluster, "idx_diff",
                                 DiffSchema(), options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    table_ = table->get();
    ASSERT_NE(table_->secondary_index(), nullptr);
    struct PinDropper {
      std::vector<PinnedSnapshot>* pins;
      ~PinDropper() { pins->clear(); }
    } drop_pins{&pinned_};

    while (op_ < ops_) {
      ++op_;
      const uint64_t dice = rng_() % 100;
      if (dice < 25) {
        StepInsert();
      } else if (dice < 50) {
        StepUpdate();
      } else if (dice < 66) {
        StepDelete();
      } else if (dice < 74) {
        SCOPED_TRACE(Where("full compact"));
        ASSERT_TRUE(table_->Compact().ok());
      } else if (dice < 86) {
        SCOPED_TRACE(Where("incremental compact"));
        auto stats = table_->CompactIncremental();
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      } else {
        StepSnapshot();
      }
      if (HasFatalFailure()) return;
      VerifyLookups();
      if (HasFatalFailure()) return;
      if (op_ % 5 == 0 || op_ == ops_) {
        VerifyPinnedSnapshots();
        if (HasFatalFailure()) return;
      }
    }
    // The run must have actually exercised the machinery it claims to test.
    const SecondaryIndex::Stats& stats = table_->secondary_index()->stats();
    EXPECT_GT(stats.lookups.load(), 0u);
    EXPECT_GT(stats.entries_added.load(), 0u);
    const orc::StripeCacheStats cs = cache.Stats();
    EXPECT_GT(cs.hits + cs.misses, 0u);
  }

 private:
  static bool HasFatalFailure() { return ::testing::Test::HasFatalFailure(); }

  std::string Where(const std::string& what) const {
    return what + " at op " + std::to_string(op_) + " (seed " +
           std::to_string(seed_) + ")";
  }

  std::pair<int64_t, int64_t> RandomRange(double frac) {
    if (model_.empty()) return {0, 0};
    const int64_t span = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(next_id_) * frac));
    const int64_t lo = static_cast<int64_t>(rng_() % static_cast<uint64_t>(next_id_));
    return {lo, lo + span};
  }

  void StepInsert() {
    SCOPED_TRACE(Where("insert"));
    const size_t n = 1 + rng_() % 48;
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Row row = MakeSeedRow(next_id_++);
      model_[row[0].AsInt64()] = row;
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(table_->InsertRows(rows).ok());
  }

  void StepUpdate() {
    auto [lo, hi] = RandomRange(0.05 + (rng_() % 30) * 0.01);
    SCOPED_TRACE(Where("update [" + std::to_string(lo) + "," + std::to_string(hi) + ")"));
    const double amount_delta = static_cast<double>(rng_() % 1000) * 0.25;
    // Updating `tag` moves rows between index buckets: the old entry must be
    // verified away and the new one must be found.
    const std::string tag = "t" + std::to_string(rng_() % 9);
    std::vector<table::Assignment> assigns(2);
    assigns[0].column = 2;
    assigns[0].input_columns = {2};
    assigns[0].compute = [amount_delta](const Row& row) {
      return Value::Double(row[2].AsDouble() + amount_delta);
    };
    assigns[1].column = 3;
    assigns[1].compute = [tag](const Row&) { return Value::String(tag); };
    std::optional<double> hint;
    if (rng_() % 2 == 0) hint = (rng_() % 100) * 0.01;
    auto result = table_->Update(IdRange(lo, hi), assigns, hint);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    uint64_t touched = 0;
    for (auto it = model_.lower_bound(lo); it != model_.end() && it->first < hi; ++it) {
      it->second[2] = Value::Double(it->second[2].AsDouble() + amount_delta);
      it->second[3] = Value::String(tag);
      ++touched;
    }
    ASSERT_EQ(result->rows_matched, touched);
  }

  void StepDelete() {
    auto [lo, hi] = RandomRange(0.02 + (rng_() % 15) * 0.01);
    SCOPED_TRACE(Where("delete [" + std::to_string(lo) + "," + std::to_string(hi) + ")"));
    std::optional<double> hint;
    if (rng_() % 2 == 0) hint = (rng_() % 100) * 0.01;
    auto result = table_->Delete(IdRange(lo, hi), hint);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    uint64_t touched = 0;
    auto it = model_.lower_bound(lo);
    while (it != model_.end() && it->first < hi) {
      it = model_.erase(it);
      ++touched;
    }
    ASSERT_EQ(result->rows_matched, touched);
  }

  void StepSnapshot() {
    if (pinned_.size() < 3 && rng_() % 2 == 0) {
      SCOPED_TRACE(Where("acquire snapshot"));
      pinned_.push_back({table_->AcquireSnapshot(), model_, op_});
    } else if (!pinned_.empty()) {
      SCOPED_TRACE(Where("release snapshot"));
      pinned_.erase(pinned_.begin() + rng_() % pinned_.size());
    }
  }

  // Runs the index path for `probes` on `column` and the full-scan path with
  // an equivalent predicate at the same snapshot; both must agree with each
  // other in content AND order, and with `expected` (model-derived) as a set.
  void CheckLookup(const SnapshotPtr& snap, size_t column,
                   const std::vector<Value>& probes,
                   const std::map<int64_t, Row>& expected) {
    table::ScanSpec spec;  // all columns, no extra predicate
    auto looked = table_->IndexLookupAt(snap, column, probes, spec);
    ASSERT_TRUE(looked.ok()) << looked.status().ToString();

    table::ScanSpec scan_spec;
    scan_spec.predicate_columns = {column};
    scan_spec.predicate = [column, probes](const Row& row) {
      if (row[column].is_null()) return false;
      for (const Value& p : probes) {
        if (row[column].Compare(p) == 0) return true;
      }
      return false;
    };
    auto it = table_->ScanAt(snap, scan_spec);
    ASSERT_TRUE(it.ok());
    std::vector<std::string> scan_order;
    std::map<int64_t, Row> scan_state;
    while ((*it)->Next()) {
      const Row& row = (*it)->row();
      scan_order.push_back(dtl::RowToString(row));
      scan_state[row[0].AsInt64()] = row;
    }
    ASSERT_TRUE((*it)->status().ok()) << (*it)->status().ToString();

    std::vector<std::string> index_order;
    std::map<int64_t, Row> index_state;
    uint64_t prev_rid = 0;
    bool first = true;
    for (const auto& [rid, row] : *looked) {
      if (!first) {
        ASSERT_LT(prev_rid, rid) << "index path emitted out of rid order";
      }
      prev_rid = rid;
      first = false;
      index_order.push_back(dtl::RowToString(row));
      index_state[row[0].AsInt64()] = row;
    }
    ASSERT_EQ(index_order, scan_order)
        << "index path diverged from full scan (column " << column << ")";
    ASSERT_EQ(StateToString(index_state), StateToString(expected))
        << "index path diverged from the model (column " << column << ")";
    (void)scan_state;
  }

  void VerifyLookups() {
    SCOPED_TRACE(Where("verify lookups"));
    SnapshotPtr snap = table_->AcquireSnapshot();
    ASSERT_TRUE(snap->has_index);

    // Point lookups on id: a few existing keys, a missing key, a never-seen
    // key (exercises the empty-candidate path).
    {
      std::vector<Value> probes;
      std::map<int64_t, Row> expected;
      for (int i = 0; i < 4 && next_id_ > 0; ++i) {
        const int64_t id = static_cast<int64_t>(rng_() % static_cast<uint64_t>(next_id_));
        probes.push_back(Value::Int64(id));
        auto it = model_.find(id);
        if (it != model_.end()) expected[id] = it->second;
      }
      probes.push_back(Value::Int64(next_id_ + 1000));
      CheckLookup(snap, 0, probes, expected);
      if (HasFatalFailure()) return;
    }

    // Range lookup on id as a multi-probe IN over a dense window.
    if (next_id_ > 0) {
      const int64_t lo = static_cast<int64_t>(rng_() % static_cast<uint64_t>(next_id_));
      const int64_t hi = lo + 1 + static_cast<int64_t>(rng_() % 24);
      std::vector<Value> probes;
      std::map<int64_t, Row> expected;
      for (int64_t id = lo; id < hi; ++id) probes.push_back(Value::Int64(id));
      for (auto it = model_.lower_bound(lo); it != model_.end() && it->first < hi; ++it) {
        expected[it->first] = it->second;
      }
      CheckLookup(snap, 0, probes, expected);
      if (HasFatalFailure()) return;
    }

    // Point lookup on the string tag column (non-unique: many hits).
    {
      const std::string tag = "t" + std::to_string(rng_() % 9);
      std::map<int64_t, Row> expected;
      for (const auto& [id, row] : model_) {
        if (row[3].AsString() == tag) expected[id] = row;
      }
      CheckLookup(snap, 3, {Value::String(tag)}, expected);
    }
  }

  void VerifyPinnedSnapshots() {
    for (const PinnedSnapshot& pin : pinned_) {
      SCOPED_TRACE(Where("pinned snapshot from op " + std::to_string(pin.acquired_at)));
      if (pin.frozen_model.empty()) continue;
      // Sample a handful of frozen keys: the lookup must replay the frozen
      // row even though the live table has moved on.
      std::vector<Value> probes;
      std::map<int64_t, Row> expected;
      size_t taken = 0;
      for (const auto& [id, row] : pin.frozen_model) {
        if (rng_() % 7 == 0 || taken == 0) {
          probes.push_back(Value::Int64(id));
          expected[id] = row;
          if (++taken == 4) break;
        }
      }
      CheckLookup(pin.snapshot, 0, probes, expected);
      if (HasFatalFailure()) return;
    }
  }

  struct PinnedSnapshot {
    SnapshotPtr snapshot;
    std::map<int64_t, Row> frozen_model;
    uint64_t acquired_at;
  };

  const uint64_t seed_;
  const uint64_t ops_;
  std::mt19937_64 rng_;
  DualTable* table_ = nullptr;
  std::map<int64_t, Row> model_;
  std::vector<PinnedSnapshot> pinned_;
  int64_t next_id_ = 0;
  uint64_t op_ = 0;
};

TEST(IndexDifferentialTest, LookupMatchesScanAndModel) {
  const uint64_t base = EnvOr("DTL_DIFF_SEED", std::random_device{}());
  const uint64_t ops = EnvOr("DTL_DIFF_OPS", 120);
  const uint64_t iterations = std::getenv("DTL_DIFF_SEED") != nullptr ? 1 : 2;
  for (uint64_t i = 0; i < iterations; ++i) {
    const uint64_t seed = base + i;
    std::fprintf(stderr, "index-differential seed %llu (replay: DTL_DIFF_SEED=%llu)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed));
    IndexDifferentialHarness harness(seed, ops);
    harness.Run();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Deterministic companion: one fixed interleaving in every CI run,
// independent of the entropy source.
TEST(IndexDifferentialTest, FixedSeedRegression) {
  IndexDifferentialHarness harness(/*seed=*/0xD17AB1E5, /*ops=*/90);
  harness.Run();
}

}  // namespace
}  // namespace dtl::dual
