// MVCC snapshots (ROADMAP: snapshot-isolated UNION READ). A Snapshot pins
// one consistent view of a DualTable: the master manifest generation and the
// attached KV store's state at a single commit timestamp. Every read path —
// row and batch UNION READ, morsel scans, SQL statements — takes a Snapshot
// explicitly and observes exactly the acquisition-time state, no matter how
// many EDITs, COMPACTs, or OVERWRITEs commit while the scan runs.
//
// Visibility rules:
//   * EDIT publishes a commit timestamp only after its WAL sync; snapshots
//     acquired earlier never see a half-applied statement.
//   * COMPACT/OVERWRITE publish (new generation + cleared attached state)
//     atomically; a snapshot sees either the old pair or the new pair.
//   * Generations are refcounted; replaced master files are deleted only
//     when the last pinning snapshot dies (deferred orphan GC).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/stopwatch.h"
#include "dualtable/master_table.h"
#include "kv/store.h"
#include "table/spec.h"

namespace dtl::dual {

/// Bookkeeping behind the snapshot.* metric views: how many snapshots are
/// live, how many were ever acquired, and how old the oldest one is (a
/// long-lived snapshot is what delays generation GC). Thread-safe; shared by
/// a DualTable and every Snapshot it hands out.
class SnapshotTracker {
 public:
  uint64_t acquired() const { return acquired_.load(std::memory_order_relaxed); }
  uint64_t active() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.size();
  }
  /// Age in seconds of the oldest live snapshot; 0 when none are live.
  double OldestSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    double oldest = 0.0;
    for (const auto& [token, watch] : active_) {
      oldest = std::max(oldest, watch.ElapsedSeconds());
    }
    return oldest;
  }

  uint64_t OnAcquire() {
    acquired_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t token = next_token_++;
    active_.emplace(token, Stopwatch());
    return token;
  }
  void OnRelease(uint64_t token) {
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(token);
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, Stopwatch> active_;
  uint64_t next_token_ = 1;
  std::atomic<uint64_t> acquired_{0};
};

/// One pinned, immutable view of a DualTable — its StorageTable::Pin(). Cheap
/// to copy by SnapshotPtr; the pins release (and deferred GC may run) when the
/// last holder drops it.
struct Snapshot : table::PinnedRead {
  /// Pinned master file set. Holding this keeps the generation's files on
  /// disk even after a COMPACT/OVERWRITE replaces them.
  MasterGenerationPtr generation;
  /// Pinned attached-store state; `attached.read_ts` is clamped to the
  /// table's commit timestamp, so unsynced EDIT cells are invisible.
  kv::KvSnapshot attached;
  /// True when the pinned attached state holds no cells at all — the only
  /// case where master stripe-stat pruning is sound (attached updates can
  /// move values across stripe-stat boundaries).
  bool attached_empty = false;
  /// Pinned secondary-index store state, clamped to the index commit
  /// timestamp (set only for tables with indexed columns). Index lookups
  /// read exactly this state, so a lookup and a UNION READ scan under the
  /// same Snapshot can never disagree.
  kv::KvSnapshot index;
  bool has_index = false;

  ~Snapshot() override {
    if (tracker != nullptr) tracker->OnRelease(tracker_token);
  }

  /// The commit timestamp this snapshot reads at (ISSUE naming:
  /// kv_read_timestamp). Writes stamped later are invisible.
  uint64_t kv_read_timestamp() const { return attached.read_ts; }
  /// The pinned manifest generation number.
  uint64_t manifest_generation() const {
    return generation == nullptr ? 0 : generation->number();
  }

  std::shared_ptr<SnapshotTracker> tracker;
  uint64_t tracker_token = 0;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

}  // namespace dtl::dual
