#include "mobile/session.h"

#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/string_util.h"

namespace drugtree {
namespace mobile {

std::string SessionReport::ToString() const {
  std::string out = "session: " + latency_ms.ToString() + " (ms)\n";
  out += util::StringPrintf(
      "  frames=%llu nodes=%llu delta-skipped=%llu bytes=%s total=%.1fs\n",
      (unsigned long long)frames, (unsigned long long)nodes_shipped,
      (unsigned long long)nodes_delta_skipped,
      util::HumanBytes(bytes_shipped).c_str(),
      static_cast<double>(total_session_micros) / 1e6);
  for (const auto& [kind, stats] : latency_by_action_ms) {
    out += util::StringPrintf("  %-14s n=%lld mean=%.1fms max=%.1fms\n",
                              kind.c_str(), (long long)stats.count(),
                              stats.mean(), stats.max());
  }
  if (overlay_queries > 0) {
    out += util::StringPrintf(
        "  served-overlays=%llu shed=%llu deadline-missed=%llu\n",
        (unsigned long long)overlay_queries, (unsigned long long)overlay_shed,
        (unsigned long long)overlay_deadline_missed);
  }
  if (!tail_attribution.empty()) {
    out += "  tail: " + tail_attribution;
  }
  return out;
}

MobileSession::MobileSession(const phylo::Tree* tree,
                             const phylo::TreeIndex* index,
                             const phylo::TreeLayout* layout,
                             std::vector<double> annotation,
                             DeviceProfile device, util::Clock* clock,
                             SessionOptions options,
                             OverlayQueryFn overlay_query,
                             ServedQueryConfig served)
    : tree_(tree),
      index_(index),
      layout_(layout),
      annotation_(std::move(annotation)),
      device_(device),
      clock_(clock),
      options_(options),
      overlay_query_(std::move(overlay_query)),
      served_(std::move(served)),
      network_(clock, device.link),
      client_cache_(device.cache_bytes),
      viewport_(Viewport::FullExtent(*layout)) {}

void MobileSession::ServeVia(ServedQueryConfig config) {
  served_ = std::move(config);
}

util::Result<uint64_t> MobileSession::ServedOverlayQuery(phylo::NodeId node) {
  server::QueryRequest request;
  request.session_id = served_.session_id;
  request.sql = served_.overlay_sql(node);
  request.query_class = server::QueryClass::kInteractive;
  request.priority = served_.priority;
  if (served_.overlay_deadline_micros > 0) {
    request.deadline_micros = served_.server->clock()->NowMicros() +
                              served_.overlay_deadline_micros;
  }
  request.planner = served_.planner;
  ++report_.overlay_queries;
  util::Result<query::QueryOutcome> outcome =
      served_.server->Submit(std::move(request));
  if (outcome.ok()) {
    return outcome->result.ApproxBytes();
  }
  // Graceful degradation: the client gets a tiny "server busy, retry"
  // frame instead of an overlay. Anything else is a real error.
  if (outcome.status().IsResourceExhausted()) {
    ++report_.overlay_shed;
    return static_cast<uint64_t>(64);
  }
  if (outcome.status().IsCancelled()) {
    ++report_.overlay_deadline_missed;
    return static_cast<uint64_t>(64);
  }
  return outcome.status();
}

util::Result<int64_t> MobileSession::Interact(const Action& action) {
  if (options_.trace_sink == nullptr) return InteractInner(action);
  // Trace ids: session id in the high bits keeps ids unique when several
  // sessions share one sink.
  obs::TraceContext trace((served_.session_id << 32) | ++trace_seq_, clock_);
  trace.set_session_id(served_.session_id);
  trace.set_query_class("mobile");
  trace.set_lane(
      util::StringPrintf("session-%llu",
                         (unsigned long long)served_.session_id));
  trace.set_sql(ActionKindName(action.kind));
  util::Result<int64_t> out = [&] {
    obs::ScopedTraceContext installed(&trace);
    return InteractInner(action);
  }();
  options_.trace_sink->Record(
      trace.Finish(out.ok() ? "ok" : out.status().ToString(), out.ok()));
  return out;
}

util::Result<int64_t> MobileSession::InteractInner(const Action& action) {
  static obs::Counter* bytes_shipped =
      obs::MetricRegistry::Default()->GetCounter("mobile.session.bytes");
  static obs::Counter* nodes_shipped =
      obs::MetricRegistry::Default()->GetCounter("mobile.session.nodes");
  static obs::Counter* frames_shipped =
      obs::MetricRegistry::Default()->GetCounter("mobile.session.frames");
  util::Timer timer(clock_);

  // 1. Viewport update (client-side, instantaneous in the model).
  switch (action.kind) {
    case ActionKind::kInitialLoad:
      viewport_ = Viewport::FullExtent(*layout_);
      break;
    case ActionKind::kZoomIn:
      viewport_.Zoom(0.5, *layout_);
      break;
    case ActionKind::kZoomOut:
      viewport_.Zoom(2.0, *layout_);
      break;
    case ActionKind::kPan:
      viewport_.Pan(action.dx * viewport_.Width(),
                    action.dy * viewport_.Height(), *layout_);
      break;
    case ActionKind::kFocusNode: {
      const auto& pos = layout_->position(action.node);
      double h = std::max(
          2.0, static_cast<double>(index_->SubtreeLeafCount(action.node)));
      viewport_.CenterOn(pos, viewport_.Width(), h * 1.2, *layout_);
      break;
    }
    case ActionKind::kOverlayQuery:
      break;
  }

  // 2. Server work + response shipping.
  if (action.kind == ActionKind::kOverlayQuery) {
    uint64_t payload = 256;
    {
      obs::TracePhaseScope execute_phase(obs::TracePhase::kExecute);
      if (served_.server != nullptr) {
        // Serving layer: admission + scheduling + execution, with the
        // wall-clock spent (queueing included) charged to the session.
        util::Timer server_timer(util::RealClock::Instance());
        DRUGTREE_ASSIGN_OR_RETURN(payload, ServedOverlayQuery(action.node));
        if (options_.charge_real_compute) {
          clock_->AdvanceMicros(server_timer.ElapsedMicros());
        }
      } else if (overlay_query_) {
        // Charge real server compute time into the session clock.
        util::Timer server_timer(util::RealClock::Instance());
        DRUGTREE_ASSIGN_OR_RETURN(payload, overlay_query_(action.node));
        if (options_.charge_real_compute) {
          clock_->AdvanceMicros(server_timer.ElapsedMicros());
        }
      }
    }
    network_.Request(payload);
    report_.bytes_shipped += payload;
    bytes_shipped->Add(static_cast<int64_t>(payload));
  } else {
    std::vector<LodNode> cut;
    {
      obs::TracePhaseScope serialize_phase(obs::TracePhase::kSerialize,
                                           "lod_cut");
      if (options_.progressive_lod) {
        LodParams lod = options_.lod;
        lod.screen_height_px = device_.screen_height_px;
        DRUGTREE_ASSIGN_OR_RETURN(
            cut, ComputeLodCut(*tree_, *index_, *layout_, viewport_,
                               annotation_, lod));
      } else {
        cut = FullTreeCut(*tree_, *index_, *layout_, annotation_);
      }
    }
    Frame frame;
    {
      obs::TracePhaseScope serialize_phase(obs::TracePhase::kSerialize,
                                           "frame_encode");
      frame = BuildFrame(
          cut, client_cache_.CollapsedIds(), client_cache_.ExpandedIds(),
          options_.delta_encoding);
    }
    network_.Request(frame.bytes);
    client_cache_.Install(frame.nodes);
    // 3. Client render cost for the shipped nodes.
    clock_->AdvanceMicros(static_cast<int64_t>(frame.nodes.size()) *
                          device_.render_micros_per_node);
    report_.bytes_shipped += frame.bytes;
    report_.nodes_shipped += frame.nodes.size();
    report_.nodes_delta_skipped += frame.delta_skipped;
    ++report_.frames;
    bytes_shipped->Add(static_cast<int64_t>(frame.bytes));
    nodes_shipped->Add(static_cast<int64_t>(frame.nodes.size()));
    frames_shipped->Increment();
  }
  return timer.ElapsedMicros();
}

util::Result<SessionReport> MobileSession::Run(
    const std::vector<Action>& trace) {
  report_ = SessionReport();
  client_cache_.Clear();
  int64_t start = clock_->NowMicros();
  for (const auto& action : trace) {
    DRUGTREE_ASSIGN_OR_RETURN(int64_t micros, Interact(action));
    double ms = static_cast<double>(micros) / 1000.0;
    report_.latency_ms.Add(ms);
    report_.latency_by_action_ms[ActionKindName(action.kind)].Add(ms);
    // Think time between interactions (does not count as latency).
    clock_->AdvanceMicros(500'000);
  }
  report_.total_session_micros = clock_->NowMicros() - start;
  if (options_.trace_sink != nullptr) {
    // The sink may be shared (server + many sessions); attribute only this
    // session's interaction traces.
    std::vector<obs::TraceRecord> mine;
    for (obs::TraceRecord& r : options_.trace_sink->Snapshot()) {
      if (r.query_class == "mobile" && r.session_id == served_.session_id) {
        mine.push_back(std::move(r));
      }
    }
    for (const obs::TailAttribution& a : obs::ComputeTailAttribution(mine)) {
      report_.tail_attribution += a.ToString();
      report_.tail_attribution += "\n";
    }
  }
  return report_;
}

}  // namespace mobile
}  // namespace drugtree
