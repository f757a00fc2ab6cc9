// Scan-path metering in the style of fs::IoStats: every batch and row moved
// by the vectorized read path is counted here, so benches can report
// rows/sec, batch sizes, selectivity, and how often the UNION READ
// no-modification fast path (plain batch pass-through) was taken.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace dtl::table {

/// Point-in-time copy of the scan counters; subtract two for a delta.
struct ScanSnapshot {
  uint64_t batches = 0;            // batches emitted by storage scans
  uint64_t rows = 0;               // physical rows in those batches
  uint64_t bytes = 0;              // encoded column bytes decoded for them
  uint64_t passthrough_batches = 0;  // UNION READ fast path (no modification)
  uint64_t patched_rows = 0;       // rows overlaid with attached updates
  uint64_t masked_rows = 0;        // rows hidden by attached delete markers
  uint64_t predicate_drops = 0;    // rows removed by selection-vector filters
  uint64_t materialized_rows = 0;  // rows copied out as Row objects (adapters)
  uint64_t stripes_skipped = 0;    // stripes pruned by min/max or bloom stats
  uint64_t stripes_skipped_bloom = 0;  // subset pruned only by the bloom probe
  uint64_t files_skipped = 0;      // files whose every stripe was pruned

  ScanSnapshot operator-(const ScanSnapshot& rhs) const {
    ScanSnapshot d;
    d.batches = batches - rhs.batches;
    d.rows = rows - rhs.rows;
    d.bytes = bytes - rhs.bytes;
    d.passthrough_batches = passthrough_batches - rhs.passthrough_batches;
    d.patched_rows = patched_rows - rhs.patched_rows;
    d.masked_rows = masked_rows - rhs.masked_rows;
    d.predicate_drops = predicate_drops - rhs.predicate_drops;
    d.materialized_rows = materialized_rows - rhs.materialized_rows;
    d.stripes_skipped = stripes_skipped - rhs.stripes_skipped;
    d.stripes_skipped_bloom = stripes_skipped_bloom - rhs.stripes_skipped_bloom;
    d.files_skipped = files_skipped - rhs.files_skipped;
    return d;
  }

  /// Divides every counter by `n` (integer floor). Benches use this to turn
  /// a delta spanning all timed iterations of a repeated identical scan into
  /// the per-scan figure, so each logical row and batch is reported once.
  ScanSnapshot operator/(uint64_t n) const {
    if (n == 0) return *this;
    ScanSnapshot d;
    d.batches = batches / n;
    d.rows = rows / n;
    d.bytes = bytes / n;
    d.passthrough_batches = passthrough_batches / n;
    d.patched_rows = patched_rows / n;
    d.masked_rows = masked_rows / n;
    d.predicate_drops = predicate_drops / n;
    d.materialized_rows = materialized_rows / n;
    d.stripes_skipped = stripes_skipped / n;
    d.stripes_skipped_bloom = stripes_skipped_bloom / n;
    d.files_skipped = files_skipped / n;
    return d;
  }

  /// Only the stripe/file pruning counters. Statement-internal scans meter
  /// into a private meter and fold just these into the caller's.
  ScanSnapshot PruningOnly() const {
    ScanSnapshot d;
    d.stripes_skipped = stripes_skipped;
    d.stripes_skipped_bloom = stripes_skipped_bloom;
    d.files_skipped = files_skipped;
    return d;
  }

  /// Fraction of scanned rows that survived filters and masks (1.0 when no
  /// rows were scanned).
  double Selectivity() const {
    if (rows == 0) return 1.0;
    const uint64_t kept = rows - predicate_drops - masked_rows;
    return static_cast<double>(kept) / static_cast<double>(rows);
  }

  std::string ToString() const {
    return "scan{batches=" + std::to_string(batches) + " rows=" + std::to_string(rows) +
           " bytes=" + std::to_string(bytes) +
           " passthrough=" + std::to_string(passthrough_batches) +
           " patched=" + std::to_string(patched_rows) +
           " masked=" + std::to_string(masked_rows) +
           " dropped=" + std::to_string(predicate_drops) +
           " materialized=" + std::to_string(materialized_rows) +
           " stripes_skipped=" + std::to_string(stripes_skipped) +
           " bloom_skipped=" + std::to_string(stripes_skipped_bloom) +
           " files_skipped=" + std::to_string(files_skipped) + "}";
  }
};

/// Thread-safe accumulator; one process-global instance (GlobalScanMeter).
///
/// A meter may be constructed with a forward target: every charge is then
/// mirrored into the target as well. Sessions use this to keep a private
/// meter (their scan counters, uncontaminated by concurrent sessions) that
/// still feeds GlobalScanMeter(), so the long-standing process-wide totals
/// that benches snapshot keep working. Explicitly-created meters (worker
/// locals, test meters) default to no forwarding and count exactly what
/// they observe.
class ScanMeter {
 public:
  ScanMeter() = default;
  explicit ScanMeter(ScanMeter* forward) : forward_(forward) {}

  void AddBatch(uint64_t rows, uint64_t bytes) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    rows_.fetch_add(rows, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->AddBatch(rows, bytes);
  }
  void AddPassthroughBatch() {
    passthrough_batches_.fetch_add(1, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->AddPassthroughBatch();
  }
  void AddPatchedRows(uint64_t n) {
    patched_rows_.fetch_add(n, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->AddPatchedRows(n);
  }
  void AddMaskedRows(uint64_t n) {
    masked_rows_.fetch_add(n, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->AddMaskedRows(n);
  }
  void AddPredicateDrops(uint64_t n) {
    predicate_drops_.fetch_add(n, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->AddPredicateDrops(n);
  }
  void AddMaterializedRows(uint64_t n) {
    materialized_rows_.fetch_add(n, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->AddMaterializedRows(n);
  }
  /// `bloom` marks a stripe whose min/max range admitted the probe but the
  /// bloom filter ruled it out — the pruning only the filter can do.
  void AddSkippedStripe(bool bloom) {
    stripes_skipped_.fetch_add(1, std::memory_order_relaxed);
    if (bloom) stripes_skipped_bloom_.fetch_add(1, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->AddSkippedStripe(bloom);
  }
  void AddSkippedFile() {
    files_skipped_.fetch_add(1, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->AddSkippedFile();
  }

  ScanSnapshot Snapshot() const {
    ScanSnapshot s;
    s.batches = batches_.load(std::memory_order_relaxed);
    s.rows = rows_.load(std::memory_order_relaxed);
    s.bytes = bytes_.load(std::memory_order_relaxed);
    s.passthrough_batches = passthrough_batches_.load(std::memory_order_relaxed);
    s.patched_rows = patched_rows_.load(std::memory_order_relaxed);
    s.masked_rows = masked_rows_.load(std::memory_order_relaxed);
    s.predicate_drops = predicate_drops_.load(std::memory_order_relaxed);
    s.materialized_rows = materialized_rows_.load(std::memory_order_relaxed);
    s.stripes_skipped = stripes_skipped_.load(std::memory_order_relaxed);
    s.stripes_skipped_bloom = stripes_skipped_bloom_.load(std::memory_order_relaxed);
    s.files_skipped = files_skipped_.load(std::memory_order_relaxed);
    return s;
  }

  /// Folds a snapshot delta into this meter. Parallel scans give each worker
  /// a private meter and merge them at the barrier, so per-worker counting
  /// stays contention-free and the merged totals match a serial scan.
  void Add(const ScanSnapshot& s) {
    batches_.fetch_add(s.batches, std::memory_order_relaxed);
    rows_.fetch_add(s.rows, std::memory_order_relaxed);
    bytes_.fetch_add(s.bytes, std::memory_order_relaxed);
    passthrough_batches_.fetch_add(s.passthrough_batches, std::memory_order_relaxed);
    patched_rows_.fetch_add(s.patched_rows, std::memory_order_relaxed);
    masked_rows_.fetch_add(s.masked_rows, std::memory_order_relaxed);
    predicate_drops_.fetch_add(s.predicate_drops, std::memory_order_relaxed);
    materialized_rows_.fetch_add(s.materialized_rows, std::memory_order_relaxed);
    stripes_skipped_.fetch_add(s.stripes_skipped, std::memory_order_relaxed);
    stripes_skipped_bloom_.fetch_add(s.stripes_skipped_bloom,
                                     std::memory_order_relaxed);
    files_skipped_.fetch_add(s.files_skipped, std::memory_order_relaxed);
    if (forward_ != nullptr) forward_->Add(s);
  }

  /// Zeroes every counter. Single-resetter contract: Reset must not run
  /// concurrently with another Reset or with code that reads a Snapshot
  /// delta spanning the reset (benches call it between phases, from one
  /// thread). Counter increments MAY race with Reset — they use the same
  /// relaxed ordering, so the result is merely "some increments land before
  /// the reset, some after", never a torn value. Plain `= 0` assignment
  /// would issue seq-cst stores, paying eight full fences for counters that
  /// are relaxed everywhere else. Reset never propagates to the forward
  /// target: a session zeroing its own counters must not zero the global.
  void Reset() {
    batches_.store(0, std::memory_order_relaxed);
    rows_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
    passthrough_batches_.store(0, std::memory_order_relaxed);
    patched_rows_.store(0, std::memory_order_relaxed);
    masked_rows_.store(0, std::memory_order_relaxed);
    predicate_drops_.store(0, std::memory_order_relaxed);
    materialized_rows_.store(0, std::memory_order_relaxed);
    stripes_skipped_.store(0, std::memory_order_relaxed);
    stripes_skipped_bloom_.store(0, std::memory_order_relaxed);
    files_skipped_.store(0, std::memory_order_relaxed);
  }

 private:
  ScanMeter* forward_ = nullptr;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> passthrough_batches_{0};
  std::atomic<uint64_t> patched_rows_{0};
  std::atomic<uint64_t> masked_rows_{0};
  std::atomic<uint64_t> predicate_drops_{0};
  std::atomic<uint64_t> materialized_rows_{0};
  std::atomic<uint64_t> stripes_skipped_{0};
  std::atomic<uint64_t> stripes_skipped_bloom_{0};
  std::atomic<uint64_t> files_skipped_{0};
};

/// The process-wide scan meter (scans of every table feed it, mirroring how
/// fs::SimFileSystem owns one IoMeter per instance).
inline ScanMeter& GlobalScanMeter() {
  static ScanMeter meter;
  return meter;
}

}  // namespace dtl::table
