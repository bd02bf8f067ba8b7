#include "obs/trace_store.h"

#include <algorithm>
#include <map>

#include "util/logging.h"
#include "util/string_util.h"

namespace drugtree {
namespace obs {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::StringPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Exact percentile over a sorted sample (nearest-rank).
int64_t SortedPercentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = p / 100.0 * static_cast<double>(sorted.size());
  size_t idx = static_cast<size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx > 0) --idx;                          // 1-based rank -> index
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

std::string TailAttribution::ToString() const {
  std::string out = util::StringPrintf(
      "%s p99=%.3fms p50=%.3fms (tail %lld of %lld):", query_class.c_str(),
      static_cast<double>(p99_micros) / 1000.0,
      static_cast<double>(p50_micros) / 1000.0, (long long)tail_count,
      (long long)count);
  bool first = true;
  for (int p = 0; p < kNumTracePhases; ++p) {
    double pct = share[static_cast<size_t>(p)] * 100.0;
    if (pct < 0.05) continue;
    out += util::StringPrintf("%s %.0f%% %s", first ? "" : " /", pct,
                              TracePhaseName(static_cast<TracePhase>(p)));
    first = false;
  }
  if (other_share * 100.0 >= 0.05) {
    out += util::StringPrintf("%s %.0f%% other", first ? "" : " /",
                              other_share * 100.0);
  }
  if (first && other_share * 100.0 < 0.05) out += " (no attributed time)";
  return out;
}

TraceStore::TraceStore(size_t capacity, int64_t slow_threshold_micros)
    // Ceiling split so total retained capacity is never below the request
    // (truncating division silently shrank e.g. capacity=12 to 8 records).
    : per_shard_capacity_(std::max<size_t>(1, (capacity + kShards - 1) / kShards)),
      slow_threshold_micros_(slow_threshold_micros) {}

void TraceStore::Record(TraceRecord record) {
  int64_t threshold = slow_threshold_micros();
  if (threshold > 0 && record.TotalMicros() >= threshold) {
    record.slow = true;
    slow_count_.fetch_add(1, std::memory_order_relaxed);
    DT_LOG(WARNING) << "slow query (" << record.TotalMicros() << "us >= "
                    << threshold << "us threshold)\n"
                    << record.TimelineString()
                    << (record.analyzed_plan.empty()
                            ? std::string()
                            : "  plan:\n" + record.analyzed_plan);
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_log_.push_back(record);
    if (slow_log_.size() > kSlowLogCapacity) slow_log_.pop_front();
  }
  total_recorded_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shards_[record.trace_id % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.ring.size() < per_shard_capacity_) {
    shard.ring.push_back(std::move(record));
    return;
  }
  shard.ring[shard.next_slot] = std::move(record);
  shard.next_slot = (shard.next_slot + 1) % per_shard_capacity_;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceRecord> TraceStore::Snapshot() const {
  // Size the copy once: a full ring holds thousands of records, and growing
  // the vector shard by shard would reallocate and move them four times.
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.ring.size();
  }
  std::vector<TraceRecord> out;
  out.reserve(total);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.ring.begin(), shard.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.begin_micros != b.begin_micros) {
                return a.begin_micros < b.begin_micros;
              }
              return a.trace_id < b.trace_id;
            });
  return out;
}

std::vector<TraceRecord> TraceStore::SlowQueries() const {
  std::vector<TraceRecord> out;
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    out.assign(slow_log_.begin(), slow_log_.end());
  }
  // Concurrent slots race to file their records; sort on the (deterministic)
  // virtual-clock stamps so consumers see a stable order.
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.begin_micros != b.begin_micros) {
                return a.begin_micros < b.begin_micros;
              }
              return a.trace_id < b.trace_id;
            });
  return out;
}

void TraceStore::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.ring.clear();
    shard.next_slot = 0;
  }
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_log_.clear();
  total_recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  slow_count_.store(0, std::memory_order_relaxed);
}

std::string ExportChromeTrace(const std::vector<TraceRecord>& records) {
  return ExportChromeTrace(records, {});
}

std::string ExportChromeTrace(const std::vector<TraceRecord>& records,
                              const std::vector<TraceInstant>& instants) {
  // Stable lane -> tid assignment: record + instant lanes first (sorted),
  // then network channel lanes above 1000.
  std::map<std::string, int> lane_tids;
  std::map<int, int> channel_tids;
  for (const auto& r : records) {
    std::string lane = r.lane.empty() ? std::string("unlaned") : r.lane;
    lane_tids.emplace(lane, 0);
    for (const auto& f : r.fetches) channel_tids.emplace(f.channel, 0);
  }
  for (const auto& inst : instants) {
    lane_tids.emplace(inst.lane.empty() ? std::string("unlaned") : inst.lane,
                      0);
  }
  int next_tid = 1;
  for (auto& [lane, tid] : lane_tids) tid = next_tid++;
  next_tid = 1001;
  for (auto& [channel, tid] : channel_tids) tid = next_tid++;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",";
    out += "\n" + event;
    first = false;
  };
  // Lane names as thread_name metadata events.
  for (const auto& [lane, tid] : lane_tids) {
    emit(util::StringPrintf(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        tid, JsonEscape(lane).c_str()));
  }
  for (const auto& [channel, tid] : channel_tids) {
    emit(util::StringPrintf(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"name\":\"net-ch%d\"}}",
        tid, channel));
  }
  for (const auto& r : records) {
    std::string lane = r.lane.empty() ? std::string("unlaned") : r.lane;
    int tid = lane_tids[lane];
    for (const auto& iv : r.intervals) {
      emit(util::StringPrintf(
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%lld,\"dur\":%lld,\"args\":{\"trace_id\":%llu,"
          "\"class\":\"%s\",\"session\":%llu,\"status\":\"%s\","
          "\"sql\":\"%s\"}}",
          iv.Name().c_str(), tid, (long long)iv.start_micros,
          (long long)iv.DurationMicros(), (unsigned long long)r.trace_id,
          JsonEscape(r.query_class).c_str(), (unsigned long long)r.session_id,
          JsonEscape(r.status).c_str(), JsonEscape(r.sql).c_str()));
    }
    for (const auto& f : r.fetches) {
      emit(util::StringPrintf(
          "{\"name\":\"fetch\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%lld,\"dur\":%lld,\"args\":{\"trace_id\":%llu,"
          "\"bytes\":%llu}}",
          channel_tids[f.channel], (long long)f.start_micros,
          (long long)(f.end_micros - f.start_micros),
          (unsigned long long)r.trace_id, (unsigned long long)f.bytes));
    }
  }
  for (const auto& inst : instants) {
    std::string lane = inst.lane.empty() ? std::string("unlaned") : inst.lane;
    emit(util::StringPrintf(
        "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,"
        "\"ts\":%lld,\"args\":%s}",
        JsonEscape(inst.name).c_str(), lane_tids[lane],
        (long long)inst.ts_micros,
        inst.args_json.empty() ? "{}" : inst.args_json.c_str()));
  }
  out += "\n]}";
  return out;
}

std::vector<TailAttribution> ComputeTailAttribution(
    const std::vector<TraceRecord>& records) {
  std::map<std::string, std::vector<const TraceRecord*>> by_class;
  for (const auto& r : records) {
    if (r.TotalMicros() <= 0 && r.intervals.empty()) continue;
    by_class[r.query_class.empty() ? "unclassified" : r.query_class]
        .push_back(&r);
  }
  std::vector<TailAttribution> out;
  for (auto& [cls, recs] : by_class) {
    TailAttribution attr;
    attr.query_class = cls;
    attr.count = static_cast<int64_t>(recs.size());
    std::vector<int64_t> totals;
    totals.reserve(recs.size());
    for (const TraceRecord* r : recs) totals.push_back(r->TotalMicros());
    std::sort(totals.begin(), totals.end());
    attr.p50_micros = SortedPercentile(totals, 50.0);
    attr.p99_micros = SortedPercentile(totals, 99.0);
    // Tail = everything at or above the p99 total; average each record's
    // phase fractions so one huge outlier does not dominate the shares.
    double acc[kNumTracePhases] = {};
    double acc_other = 0.0;
    for (const TraceRecord* r : recs) {
      int64_t total = r->TotalMicros();
      if (total < attr.p99_micros || total <= 0) continue;
      ++attr.tail_count;
      int64_t attributed = 0;
      for (int p = 0; p < kNumTracePhases; ++p) {
        int64_t micros = r->PhaseMicros(static_cast<TracePhase>(p));
        // fetch_blocked accrues inside execute: report execute net of it.
        if (static_cast<TracePhase>(p) == TracePhase::kExecute) {
          micros = std::max<int64_t>(
              0, micros - r->PhaseMicros(TracePhase::kFetchBlocked));
        }
        attributed += micros;
        acc[p] += static_cast<double>(micros) / static_cast<double>(total);
      }
      acc_other += static_cast<double>(std::max<int64_t>(0, total - attributed)) /
                   static_cast<double>(total);
    }
    if (attr.tail_count > 0) {
      for (int p = 0; p < kNumTracePhases; ++p) {
        attr.share[static_cast<size_t>(p)] =
            acc[p] / static_cast<double>(attr.tail_count);
      }
      attr.other_share = acc_other / static_cast<double>(attr.tail_count);
    }
    out.push_back(std::move(attr));
  }
  return out;
}

}  // namespace obs
}  // namespace drugtree
