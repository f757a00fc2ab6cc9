// StripeCache unit + stress coverage: LRU capacity/eviction invariants, the
// (owner, file, generation, stripe, projection) key discipline that keeps a
// post-COMPACT reader from ever being served a pre-swap stripe, and a
// TSan-friendly multi-session stress where concurrent lookups and scans run
// against EDIT/COMPACT generation swaps — every read through the cache must
// be byte-identical to the uncached path at the same snapshot. A policy pin
// keeps statement-internal scans out of the shared cache and global meter.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "dualtable/dual_table.h"
#include "fs/filesystem.h"
#include "orc/reader.h"
#include "orc/stripe_cache.h"
#include "orc/writer.h"
#include "table/scan_stats.h"

namespace dtl::orc {
namespace {

std::shared_ptr<const StripeBatch> MakeBatch(uint64_t first_row, size_t rows,
                                             const std::string& payload) {
  auto batch = std::make_shared<StripeBatch>();
  batch->first_row = first_row;
  batch->num_rows = rows;
  batch->projection = {0};
  batch->columns.resize(1);
  for (size_t i = 0; i < rows; ++i) {
    batch->columns[0].push_back(Value::String(payload + std::to_string(i)));
  }
  return batch;
}

TEST(StripeCacheTest, LookupReturnsInsertedBatchAndCountsHits) {
  StripeCache cache(1 << 20, /*shards=*/2);
  auto batch = MakeBatch(0, 4, "p");
  EXPECT_EQ(cache.Lookup(1, 10, 1, 0, {0}), nullptr);
  cache.Insert(1, 10, 1, 0, {0}, batch);
  EXPECT_EQ(cache.Lookup(1, 10, 1, 0, {0}).get(), batch.get());
  const StripeCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(StripeCacheTest, GenerationIsPartOfTheKey) {
  // The stale-read regression: a file decoded under generation G must never
  // satisfy a lookup for the same (owner, file, stripe) at generation G+1 —
  // that is what makes a COMPACT-recycled slot safe.
  StripeCache cache(1 << 20, /*shards=*/2);
  cache.Insert(1, 10, /*generation=*/1, 0, {0}, MakeBatch(0, 4, "old"));
  EXPECT_EQ(cache.Lookup(1, 10, /*generation=*/2, 0, {0}), nullptr);
  // Same for a different projection and a different owner.
  EXPECT_EQ(cache.Lookup(1, 10, 1, 0, {0, 1}), nullptr);
  EXPECT_EQ(cache.Lookup(2, 10, 1, 0, {0}), nullptr);
  auto hit = cache.Lookup(1, 10, 1, 0, {0});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->columns[0][0].AsString(), "old0");
}

TEST(StripeCacheTest, CapacityBoundsResidentBytesAndEvictsLru) {
  // Each batch carries ~room for only a few entries; inserting many must
  // evict the least-recently-used while never exceeding capacity.
  StripeCache cache(/*capacity_bytes=*/4096, /*shards=*/1);
  for (uint64_t i = 0; i < 64; ++i) {
    cache.Insert(1, i, 1, 0, {0}, MakeBatch(0, 16, "payload-payload-"));
    EXPECT_LE(cache.Stats().bytes, 4096u) << "resident bytes exceeded capacity";
  }
  const StripeCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LT(stats.entries, 64u);
  // The most recent insert survives; the very first was evicted long ago.
  EXPECT_NE(cache.Lookup(1, 63, 1, 0, {0}), nullptr);
  EXPECT_EQ(cache.Lookup(1, 0, 1, 0, {0}), nullptr);
}

TEST(StripeCacheTest, EraseOwnerDropsOnlyThatOwner) {
  StripeCache cache(1 << 20, 2);
  cache.Insert(1, 10, 1, 0, {0}, MakeBatch(0, 4, "a"));
  cache.Insert(2, 10, 1, 0, {0}, MakeBatch(0, 4, "b"));
  cache.EraseOwner(1);
  EXPECT_EQ(cache.Lookup(1, 10, 1, 0, {0}), nullptr);
  EXPECT_NE(cache.Lookup(2, 10, 1, 0, {0}), nullptr);
}

TEST(StripeCacheTest, ReaderRoutesSharedReadsThroughCache) {
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 8;
  Schema schema({{"v", DataType::kInt64}});
  auto writer = OrcWriter::Create(&fs, "/t/c.orc", schema, 7, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 32; ++i) ASSERT_TRUE((*writer)->Append({Value::Int64(i)}).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  StripeCache cache(1 << 20, 2);
  auto reader = OrcReader::Open(&fs, "/t/c.orc");
  ASSERT_TRUE(reader.ok());
  (*reader)->SetSharedCache(&cache, /*owner=*/StripeCache::NewOwnerToken(),
                            /*generation=*/1);
  auto first = (*reader)->ReadStripeShared(1, {0});
  ASSERT_TRUE(first.ok());
  auto second = (*reader)->ReadStripeShared(1, {0});
  ASSERT_TRUE(second.ok());
  // Same decoded stripe object: the second read was served from the cache.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_GE(cache.Stats().hits, 1u);
  EXPECT_EQ((*first)->columns[0][0].AsInt64(), 8);
}

Schema StressSchema() {
  return Schema({{"id", DataType::kInt64}, {"payload", DataType::kString}});
}

// Policy pin (DESIGN.md §6): the statement-internal UNION READs — EDIT
// locate, OVERWRITE, COMPACT and the index rebuild — read stripes uncached
// and meter into a statement-local meter. They must move neither the shared
// cache's hit/miss counters nor the global scan meter's rows (the benchmark's
// cold-regime gate and rows-scanned figure rely on both). A user SELECT moves
// both.
TEST(StripeCachePolicyTest, StatementInternalScansBypassCacheAndGlobalMeter) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;
  ThreadPool pool(2);
  using PlanMode = dual::DualTableOptions::PlanMode;
  auto open = [&](PlanMode mode, std::vector<size_t> indexed) {
    dual::DualTableOptions options;  // stripe_cache null: StripeCache::Default()
    options.writer_options.stripe_rows = 16;
    options.pool = &pool;  // two master files: COMPACT takes the parallel rewrite
    options.plan_mode = mode;
    options.indexed_columns = std::move(indexed);
    return dual::DualTable::Open(&fs, metadata->get(), &cluster, "pin", StressSchema(),
                                 options);
  };
  struct Counters {
    uint64_t hits, misses, rows;
  };
  auto counters = [] {
    const StripeCacheStats stats = StripeCache::Default()->Stats();
    return Counters{stats.hits, stats.misses, table::GlobalScanMeter().Snapshot().rows};
  };
  auto expect_unchanged = [&](const Counters& before, const char* what) {
    const Counters after = counters();
    EXPECT_EQ(after.hits, before.hits) << what;
    EXPECT_EQ(after.misses, before.misses) << what;
    EXPECT_EQ(after.rows, before.rows) << what;
  };
  auto id_below = [](int64_t bound) {
    table::ScanSpec spec;
    spec.predicate_columns = {0};
    spec.predicate = [bound](const Row& row) { return row[0].AsInt64() < bound; };
    return spec;
  };

  auto edit = open(PlanMode::kForceEdit, {});
  ASSERT_TRUE(edit.ok());
  for (int64_t file = 0; file < 2; ++file) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < 64; ++i) {
      rows.push_back({Value::Int64(file * 64 + i), Value::String("p")});
    }
    ASSERT_TRUE((*edit)->InsertRows(rows).ok());
  }
  Counters before = counters();
  auto deleted = (*edit)->Delete(id_below(10));
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->plan, table::DmlPlan::kEdit);
  EXPECT_EQ(deleted->rows_matched, 10u);
  expect_unchanged(before, "EDIT DELETE");

  before = counters();
  ASSERT_TRUE((*edit)->Compact().ok());
  expect_unchanged(before, "COMPACT");
  edit->reset();

  auto overwrite = open(PlanMode::kForceOverwrite, {});
  ASSERT_TRUE(overwrite.ok());
  std::vector<table::Assignment> assigns(1);
  assigns[0].column = 1;
  assigns[0].compute = [](const Row&) { return Value::String("q"); };
  before = counters();
  auto updated = (*overwrite)->Update(id_below(20), assigns);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->plan, table::DmlPlan::kOverwrite);
  EXPECT_EQ(updated->rows_matched, 10u);
  expect_unchanged(before, "OVERWRITE UPDATE");
  overwrite->reset();

  // No index meta row yet: Open rebuilds the index from a full UNION READ.
  before = counters();
  auto indexed = open(PlanMode::kCostModel, {0});
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ((*indexed)->secondary_index()->stats().rebuilds.load(), 1u);
  expect_unchanged(before, "index rebuild");

  before = counters();
  auto rows = table::CollectRows(indexed->get(), table::ScanSpec{});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 118u);
  const Counters after = counters();
  EXPECT_GT(after.hits + after.misses, before.hits + before.misses);
  EXPECT_EQ(after.rows, before.rows + 118);
}

// Concurrent point lookups + double scans against EDIT/COMPACT generation
// swaps, all sharing one tiny cache. Designed for TSan: fixed iteration
// counts, no timing assertions. Each reader compares two scans of the SAME
// pinned snapshot (first populates the cache, second hits it) — any stale or
// torn cached stripe shows up as a diff; the index path must agree too.
TEST(StripeCacheStressTest, CachedReadsMatchUncachedUnderConcurrentDmlAndCompact) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;
  ThreadPool pool(4);
  StripeCache cache(/*capacity_bytes=*/1 << 14, /*shards=*/2);

  dual::DualTableOptions options;
  options.writer_options.stripe_rows = 16;
  options.pool = &pool;
  options.indexed_columns = {0};
  options.stripe_cache = &cache;
  auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "cache_stress",
                                     StressSchema(), options);
  ASSERT_TRUE(table.ok());
  dual::DualTable* t = table->get();

  constexpr int64_t kRows = 400;
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int64(i), Value::String("v0_" + std::to_string(i))});
  }
  ASSERT_TRUE(t->InsertRows(rows).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer_thread([&] {
    for (int round = 0; round < 12 && failures.load() == 0; ++round) {
      table::ScanSpec spec;
      spec.predicate_columns = {0};
      const int64_t lo = (round * 37) % kRows;
      const int64_t hi = lo + 50;
      spec.predicate = [lo, hi](const Row& row) {
        return row[0].AsInt64() >= lo && row[0].AsInt64() < hi;
      };
      std::vector<table::Assignment> assigns(1);
      assigns[0].column = 1;
      const std::string tag = "v" + std::to_string(round + 1) + "_";
      assigns[0].input_columns = {0};
      assigns[0].compute = [tag](const Row& row) {
        return Value::String(tag + std::to_string(row[0].AsInt64()));
      };
      if (!t->Update(spec, assigns, 0.01).ok()) failures.fetch_add(1);
      if (round % 4 == 3) {
        // Swap the whole generation under the readers.
        if (!t->Compact().ok()) failures.fetch_add(1);
      }
    }
    stop.store(true);
  });

  auto scan_all = [&](const dual::SnapshotPtr& snap, std::vector<std::string>* out) {
    auto it = t->ScanAt(snap, table::ScanSpec{});
    if (!it.ok()) return false;
    while ((*it)->Next()) out->push_back(dtl::RowToString((*it)->row()));
    return (*it)->status().ok();
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t iter = 0;
      while (!stop.load() && failures.load() == 0) {
        ++iter;
        dual::SnapshotPtr snap = t->AcquireSnapshot();
        std::vector<std::string> cold, warm;
        if (!scan_all(snap, &cold) || !scan_all(snap, &warm) || cold != warm) {
          failures.fetch_add(1);
          break;
        }
        // Index path at the same snapshot must see the same row bytes.
        const int64_t probe = static_cast<int64_t>((iter * 31 + r * 131)) % kRows;
        table::ScanSpec spec;
        auto looked = t->IndexLookupAt(snap, 0, {Value::Int64(probe)}, spec);
        if (!looked.ok() || looked->size() != 1 ||
            dtl::RowToString(looked->front().second) !=
                cold[static_cast<size_t>(probe)]) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  writer_thread.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  const StripeCacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
}

}  // namespace
}  // namespace dtl::orc
