#include "perfbench/src/probes.h"

#include <initializer_list>

#include "src/sim/event_queue.h"
#include "src/tapestry/object_store.h"

namespace perfbench {

namespace {

using tap::Guid;
using tap::NodeId;

// Probe results land here so the compiler cannot drop the probed calls.
volatile std::uint64_t g_sink = 0;

constexpr std::size_t kPasses = 5;

/// Median over kPasses of the ns per call of `body(i)` for i < calls; each
/// pass is one `span`.
template <typename Fn>
double ns_per_call(Tracer& tr, std::uint16_t span, std::size_t calls,
                   Fn&& body) {
  std::vector<double> per;
  if (calls == 0) return 0.0;
  for (std::size_t p = 0; p < kPasses; ++p) {
    Span s(tr, span);
    const Nanos a = now_ns();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    per.push_back(static_cast<double>(now_ns() - a) /
                  static_cast<double>(calls));
  }
  return median(per);
}

void probe_router_registry_metric(tap::Network& net,
                                  const ProbeInputs& in, Tracer& tr,
                                  Report& report) {
  const auto kPeek = tr.intern("router.route_to_root_peek");
  std::vector<std::pair<const tap::TapestryNode*, Guid>> live;
  for (const auto& [client, guid] : in.locates) {
    if (!net.contains(client)) continue;
    live.emplace_back(&net.node(client), guid);
    Span s(tr, kPeek);
    g_sink = g_sink + net.router()
                          .route_to_root_peek(client, tap::salted_guid(guid, 0))
                          .hops;
  }

  const unsigned digits = kIdSpec.num_digits;
  const double slot_ns = ns_per_call(
      tr, tr.intern("router.select_slot.batch"), live.size() * digits,
      [&](std::size_t i) {
        const auto& [node, guid] = live[i / digits];
        const auto level = static_cast<unsigned>(i % digits);
        bool past_hole = false;
        g_sink = g_sink + net.router()
                              .select_slot(*node, level, guid.digit(level),
                                           past_hole)
                              .value_or(0);
      });
  report.add("router.select_slot_ns", slot_ns, "ns", live.size() * digits);

  const double find_ns = ns_per_call(
      tr, tr.intern("registry.find.batch"), in.locates.size(),
      [&](std::size_t i) {
        g_sink = g_sink + (net.registry().find(in.locates[i].first) != nullptr);
      });
  report.add("registry.find_ns", find_ns, "ns", in.locates.size());

  const tap::MetricSpace& space = net.space();
  const double dist_ns = ns_per_call(
      tr, tr.intern("metric.distance.batch"), in.pairs.size(),
      [&](std::size_t i) {
        g_sink = g_sink + static_cast<std::uint64_t>(
                              space.distance(in.pairs[i].first,
                                             in.pairs[i].second) *
                              1e6);
      });
  report.add("metric.distance_ns", dist_ns, "ns", in.pairs.size());
}

// Store probes run on a private copy of the records of the live node that
// holds the most, never on a live store.
void probe_store(tap::Network& net, Tracer& tr, Report& report) {
  const tap::TapestryNode* busiest = nullptr;
  for (const auto& node : net.registry().nodes())
    if (node->alive &&
        (busiest == nullptr || node->store().size() > busiest->store().size()))
      busiest = node.get();
  const auto records = busiest->store().snapshot();
  auto copy = tap::make_object_store(net.params(), busiest->id());
  for (const auto& [guid, rec] : records) copy->upsert(guid, rec);
  const std::size_t m = records.size();
  constexpr std::size_t kCalls = 20000;
  const double now = net.now();
  const double find_ns = ns_per_call(
      tr, tr.intern("store.find_live.batch"), m == 0 ? 0 : kCalls,
      [&](std::size_t i) {
        g_sink = g_sink + copy->find_live(records[i % m].first, now).size();
      });
  const double upsert_ns = ns_per_call(
      tr, tr.intern("store.upsert.batch"), m == 0 ? 0 : kCalls,
      [&](std::size_t i) {
        copy->upsert(records[i % m].first, records[i % m].second);
      });
  const auto kSnap = tr.intern("store.snapshot");
  std::vector<double> snap_us;
  for (std::size_t i = 0; i < 50; ++i) {
    Span s(tr, kSnap);
    const Nanos a = now_ns();
    g_sink = g_sink + copy->snapshot().size();
    snap_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
  }
  report.add("store.find_live_ns", find_ns, "ns", kCalls);
  report.add("store.upsert_ns", upsert_ns, "ns", kCalls);
  report.add("store.snapshot_us", median(snap_us), "us", snap_us.size());
}

// schedule_at + step of no-op events on a private queue.
void probe_sim(Tracer& tr, Report& report) {
  constexpr std::size_t kEvents = 100000;
  const auto kProbe = tr.intern("sim.schedule_fire.batch");
  tap::Rng r(0x73696dull);
  std::vector<double> per;
  std::uint64_t fired = 0;
  for (std::size_t p = 0; p < kPasses; ++p) {
    Span s(tr, kProbe);
    tap::EventQueue q;
    const Nanos a = now_ns();
    for (std::size_t i = 0; i < kEvents; ++i)
      q.schedule_at(r.next_double() * 1000.0, [&fired] { ++fired; });
    while (q.step()) {
    }
    per.push_back(static_cast<double>(now_ns() - a) / kEvents);
  }
  g_sink = g_sink + fired;
  report.add("sim.schedule_fire_ns", median(per), "ns", kEvents);
}

}  // namespace

void run_probes(tap::Network& net, const ProbeInputs& inputs, Tracer& tr,
                Report& report) {
  tr.set_phase(Phase::kProbe);
  probe_router_registry_metric(net, inputs, tr, report);
  probe_store(net, tr, report);
  probe_sim(tr, report);
}

void report_layers(const Tracer& tr, double measured_ns, Report& report) {
  const std::initializer_list<Phase> all = {Phase::kSetup, Phase::kMeasure,
                                            Phase::kProbe, Phase::kEpilogue};
  const auto add_q = [&](const char* span, const std::string& metric,
                         double q, double scale, const char* unit) {
    const Tracer::Summary s = tr.summarize(span, all);
    report.add(metric, quantile(s.durations_ns, q) * scale, unit, s.count);
  };
  add_q("maintenance.rebuild_static_tables",
        "maintenance.rebuild_static_tables_s", 0.5, 1e-9, "s");
  add_q("maintenance.join", "maintenance.join_ms.p50", 0.5, 1e-6, "ms");
  add_q("maintenance.join", "maintenance.join_ms.p99", 0.99, 1e-6, "ms");
  add_q("maintenance.heartbeat_sweep", "maintenance.heartbeat_sweep_ms.p50",
        0.5, 1e-6, "ms");
  add_q("maintenance.heartbeat_sweep", "maintenance.heartbeat_sweep_ms.max",
        1.0, 1e-6, "ms");
  report.add("maintenance.heartbeat_sweep.count",
             static_cast<double>(
                 tr.summarize("maintenance.heartbeat_sweep", all).count),
             "count");
  add_q("maintenance.leave", "maintenance.leave_ms.p50", 0.5, 1e-6, "ms");
  add_q("maintenance.fail", "maintenance.fail_ms.p50", 0.5, 1e-6, "ms");
  add_q("registry.insert_static_bulk", "registry.insert_static_bulk_s", 0.5,
        1e-9, "s");
  add_q("router.route_to_root_peek", "router.route_peek_us.p50", 0.5, 1e-3,
        "us");
  add_q("router.route_to_root_peek", "router.route_peek_us.p99", 0.99, 1e-3,
        "us");
  add_q("directory.locate", "directory.locate_us.p50", 0.5, 1e-3, "us");
  add_q("directory.locate", "directory.locate_us.p99", 0.99, 1e-3, "us");
  add_q("directory.publish", "directory.publish_us.p50", 0.5, 1e-3, "us");
  add_q("directory.unpublish", "directory.unpublish_us.p50", 0.5, 1e-3, "us");
  add_q("directory.async_step", "directory.async_step_us", 0.5, 1e-3, "us");
  report.add(
      "directory.async_step.count",
      static_cast<double>(tr.summarize("directory.async_step", all).count),
      "count");
  add_q("directory.republish_tick", "directory.republish_tick_ms", 0.5, 1e-6,
        "ms");
  add_q("directory.expire_pointers", "directory.expire_pointers_ms", 0.5,
        1e-6, "ms");

  // Self shares of the measured phase.  Async queue steps are directory
  // work reported on their own; what no span covers is the benchmark's
  // own loop.
  const double maintenance = tr.layer_self_ns("maintenance", Phase::kMeasure);
  const double directory = tr.layer_self_ns("directory", Phase::kMeasure);
  const double async =
      tr.summarize("directory.async_step", {Phase::kMeasure}).self_ns;
  const double sim = tr.layer_self_ns("sim", Phase::kMeasure);
  const double share = measured_ns > 0.0 ? 1.0 / measured_ns : 0.0;
  report.add("maintenance.self_share", maintenance * share, "ratio");
  report.add("directory.self_share", (directory - async) * share, "ratio");
  report.add("directory.async_step.share", async * share, "ratio");
  report.add("sim.self_share", sim * share, "ratio");
  report.add("trace.unattributed_share",
             1.0 - (maintenance + directory + sim) * share, "ratio");
}

void report_registry_ratios(Report& report,
                            const std::vector<double>& ratios) {
  report.add("sim.metrics_overhead_ratio.p25", quantile(ratios, 0.25),
             "ratio", ratios.size());
  report.add("sim.metrics_overhead_ratio.p50", quantile(ratios, 0.5), "ratio",
             ratios.size());
  report.add("sim.metrics_overhead_ratio.p75", quantile(ratios, 0.75),
             "ratio", ratios.size());
}

}  // namespace perfbench
