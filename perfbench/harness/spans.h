// In-memory span recorder for the traced pass. A span is a named interval
// on the steady clock with the span that caused it and the request (one SQL
// statement) it belongs to. Spans are kept in memory while the pass runs and
// written out once, as JSON lines, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;   // 0 = root of its request
  uint32_t request = 0;  // shared by every span of one statement
  std::string name;      // "<layer>.<what>", e.g. "dualtable.union_read"
  double start_us = 0;   // since the recorder was created
  double end_us = 0;

  double duration_us() const { return end_us - start_us; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Starts a new request; returns its root span (named `name`).
  uint32_t BeginRequest(const std::string& name);
  /// Opens a span under `parent` in the parent's request.
  uint32_t Begin(const std::string& name, uint32_t parent);
  /// Closes `id`; returns its duration in microseconds.
  double End(uint32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its direct children, summed by name (microseconds).
  std::map<std::string, double> SelfTimeByName() const;

  /// Writes one JSON object per span to `path`. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;  // spans_[id - 1]
  uint32_t next_request_ = 1;
};

/// RAII span: opens on construction, closes on End() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, uint32_t parent)
      : recorder_(recorder), id_(recorder->Begin(name, parent)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (once); returns its duration in microseconds.
  double End() {
    if (!open_) return duration_us_;
    open_ = false;
    duration_us_ = recorder_->End(id_);
    return duration_us_;
  }
  uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
  bool open_ = true;
  double duration_us_ = 0;
};

}  // namespace perfbench
