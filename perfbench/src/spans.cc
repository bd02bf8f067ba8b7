#include "spans.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

SpanRecorder::ThreadBuffer* SpanRecorder::Buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<int>(buffers_.size());
    buffer->spans.reserve(1 << 14);
  }
  return buffer;
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  std::vector<Span> spans = Collect();
  std::unordered_map<int64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    auto it = child_us.find(s.id);
    ++t.count;
    t.total_us += us;
    t.self_us += us - (it == child_us.end() ? 0.0 : it->second);
  }
  return totals;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Collect()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%lld,\"parent\":%lld,\"request\":%llu,"
                 "\"thread\":%d}\n",
                 s.name, (long long)s.start_ns, (long long)s.end_ns,
                 (long long)s.id, (long long)s.parent,
                 (unsigned long long)s.request, s.thread);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  SpanRecorder& recorder = SpanRecorder::Get();
  if (!recorder.enabled()) return;
  buffer_ = recorder.Buffer();
  Span span;
  span.name = name;
  span.id = recorder.next_id_.fetch_add(1, std::memory_order_relaxed);
  span.thread = buffer_->thread;
  if (!buffer_->open.empty()) {
    const Span& parent = buffer_->spans[buffer_->open.back()];
    span.parent = parent.id;
    span.request = request != 0 ? request : parent.request;
  } else {
    span.request = request;
  }
  index_ = buffer_->spans.size();
  buffer_->open.push_back(index_);
  span.start_ns = NowNanos();
  buffer_->spans.push_back(span);
}

void ScopedSpan::set_name(const char* name) {
  if (buffer_ != nullptr) buffer_->spans[index_].name = name;
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = NowNanos();
  buffer_->open.pop_back();
}

}  // namespace perfbench
