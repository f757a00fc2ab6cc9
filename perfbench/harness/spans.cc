#include "harness/spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

uint32_t SpanRecorder::BeginRequest(const std::string& name) {
  SpanRecord span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.request = next_request_++;
  span.name = name;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint32_t SpanRecorder::Begin(const std::string& name, uint32_t parent) {
  SpanRecord span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = parent == 0 ? next_request_++ : spans_[parent - 1].request;
  span.name = name;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanRecorder::End(uint32_t id) {
  SpanRecord& span = spans_[id - 1];
  span.end_us = NowUs();
  return span.duration_us();
}

std::map<std::string, double> SpanRecorder::SelfTimeByName() const {
  // Children of one parent never overlap (the harness is single-threaded),
  // so the covered part of a parent's interval is the sum of its children.
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) child_us[span.parent] += span.duration_us();
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    self[span.name] += std::max(0.0, span.duration_us() - child_us[span.id]);
  }
  return self;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& span : spans_) {
    std::fprintf(out,
                 "{\"id\":%u,\"parent\":%u,\"request\":%u,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 span.id, span.parent, span.request, span.name.c_str(), span.start_us,
                 span.end_us);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
