// Workload `lookup`: a static overlay under a closed loop of one caller.
//
// Set-up (repeated kSetups times, each a fresh overlay): ring metric,
// n = 2048 nodes registered by insert_static_bulk, tables from
// rebuild_static_tables(1), then n/2 objects published with one replica
// each at uniformly drawn servers.  (An 8192-node overlay, 173 MB, ran
// with 0.22-0.26 run-to-run spread in its timings against 0.14-0.16 for
// this one, interleaved on the same shared host: the larger working set
// is more exposed to other tenants' cache and memory traffic.)
//
// Warm-up: kWarmupLocates untimed locates, drawn from a stream of their
// own, so the measured phase starts with warm caches.
//
// Measured phase: 90% sync locate from a uniform client to a zipf(1.0)
// object, 10% writes (unpublish the object's replica, publish it at a new
// uniform server).  The operation count is --seconds times a nominal rate
// (about the rate of the reference machine), not a wall-clock deadline, so
// a run does the same work on every commit and every count it reports
// repeats exactly for a seed.  The operations are cut into kSegments
// segments of equal count; each timing is the median over the segments
// (see LatencySeries).
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "perfbench/src/probes.h"
#include "perfbench/src/workload.h"
#include "src/metric/ring.h"
#include "src/sim/metrics.h"

namespace perfbench {

namespace {

using tap::Guid;
using tap::LocateResult;
using tap::Location;
using tap::Network;
using tap::NodeId;
using tap::Rng;

constexpr std::size_t kNodes = 2048;
constexpr std::size_t kSetups = 5;
constexpr double kOpsPerSecond = 250000.0;  // nominal; sets the op count
constexpr std::size_t kSegments = 10;  // timings: median over segments
constexpr std::size_t kWarmupLocates = 100000;
constexpr double kMaxMeasureSeconds = 120.0;  // ends a pathologically slow run
constexpr double kWriteShare = 0.1;
constexpr double kZipfS = 1.0;
constexpr std::size_t kSpareLocations = 64;  // epilogue joins land here

/// Zipf(s) over ranks 0..n-1 by inverted cumulative weights.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double acc = 0.0;
    cdf_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      acc += std::pow(static_cast<double>(r + 1), -s);
      cdf_.push_back(acc);
    }
  }
  std::size_t draw(Rng& rng) const {
    const double u = rng.next_double() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Overlay {
  std::unique_ptr<tap::RingMetric> space;
  std::unique_ptr<Network> net;  // declared after space: destroyed first
  std::vector<NodeId> ids;
  std::vector<Guid> objects;
  std::vector<NodeId> server;  // the one replica of each object
};

/// What must be identical between set-ups of one seed.
struct Fingerprint {
  std::size_t table_entries = 0;
  std::size_t pointers = 0;
  std::uint64_t messages = 0;
  bool operator==(const Fingerprint& o) const {
    return table_entries == o.table_entries && pointers == o.pointers &&
           messages == o.messages;
  }
};

Overlay build(std::uint64_t seed, std::size_t n, Tracer& tr,
              HostProbe& probe) {
  const auto kInsert = tr.intern("registry.insert_static_bulk");
  const auto kRebuild = tr.intern("maintenance.rebuild_static_tables");
  const auto kPublish = tr.intern("directory.publish");
  Overlay o;
  Rng space_rng(seed ^ 0x72696e67ull);
  o.space = std::make_unique<tap::RingMetric>(n + kSpareLocations, space_rng);
  tap::TapestryParams params;
  params.id = kIdSpec;
  o.net = std::make_unique<Network>(*o.space, params, seed);
  std::vector<Location> locs(n);
  std::iota(locs.begin(), locs.end(), Location{0});
  {
    Span s(tr, kInsert);
    o.ids = o.net->insert_static_bulk(locs, 1);
  }
  probe.sample();
  {
    Span s(tr, kRebuild);
    o.net->rebuild_static_tables(1);
  }
  probe.sample();
  o.objects = make_objects(seed, n / 2);
  Rng place(seed ^ 0x706c616365ull);
  for (const Guid& g : o.objects) {
    const NodeId server = o.ids[place.next_u64(n)];
    {
      Span s(tr, kPublish);
      o.net->publish(server, g);
    }
    o.server.push_back(server);
    probe.maybe_sample(now_ns());
  }
  return o;
}

/// Locate-only segments alternating metrics::set_enabled(false/true); each
/// pair replays the same draws.  Returns enabled/disabled wall ratios.
std::vector<double> registry_ratios(Overlay& o, std::uint64_t seed,
                                    const Zipf& zipf) {
  constexpr std::size_t kPairs = 10;
  constexpr std::size_t kSegment = 20000;
  std::vector<double> ratios;
  Rng base(seed ^ 0x7265676973ull);
  for (std::size_t p = 0; p < kPairs; ++p) {
    const Rng draws = base.split();
    double wall[2] = {0.0, 0.0};  // [disabled, enabled]
    for (int half = 0; half < 2; ++half) {
      const bool enabled = (p % 2 == 0) == (half == 1);
      tap::metrics::set_enabled(enabled);
      Rng r = draws;
      const Nanos a = now_ns();
      for (std::size_t i = 0; i < kSegment; ++i) {
        const NodeId client = o.ids[r.next_u64(o.ids.size())];
        (void)o.net->locate(client, o.objects[zipf.draw(r)]);
      }
      wall[enabled ? 1 : 0] = static_cast<double>(now_ns() - a);
    }
    ratios.push_back(wall[1] / wall[0]);
  }
  tap::metrics::set_enabled(true);
  return ratios;
}

/// Exercises the layers the measured phase leaves idle, on the final
/// overlay after every outcome is reported: dynamic joins, departures,
/// one heartbeat sweep, one event-driven republish wave (drained step by
/// step) and one expiry sweep.
void epilogue(Overlay& o, Tracer& tr, Report& report) {
  constexpr std::size_t kJoins = 32;
  constexpr std::size_t kLeaves = 8;
  constexpr std::size_t kFails = 8;
  const auto kJoin = tr.intern("maintenance.join");
  const auto kLeave = tr.intern("maintenance.leave");
  const auto kFail = tr.intern("maintenance.fail");
  const auto kSweep = tr.intern("maintenance.heartbeat_sweep");
  const auto kRepublish = tr.intern("directory.republish_tick");
  const auto kAsync = tr.intern("directory.async_step");
  const auto kExpire = tr.intern("directory.expire_pointers");
  Network& net = *o.net;
  tr.set_phase(Phase::kEpilogue);

  std::uint64_t join_msgs = 0;
  for (std::size_t i = 0; i < kJoins; ++i) {
    const std::uint64_t m0 = net.transport().stats().messages;
    Span s(tr, kJoin);
    net.join(o.ids.size() + i);
    join_msgs += net.transport().stats().messages - m0;
  }
  report.add("maintenance.join_msgs",
             static_cast<double>(join_msgs) / static_cast<double>(kJoins),
             "msgs", kJoins, true);

  // Departures among nodes that serve no object, so no replica is lost.
  std::vector<bool> serves(o.ids.size(), false);
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < o.ids.size(); ++i) index[o.ids[i].value()] = i;
  for (const NodeId& s : o.server) serves[index.at(s.value())] = true;
  std::size_t next = 0;
  auto next_victim = [&] {
    while (serves[next]) ++next;
    return o.ids[next++];
  };
  for (std::size_t i = 0; i < kLeaves; ++i) {
    const NodeId v = next_victim();
    Span s(tr, kLeave);
    net.leave(v);
  }
  for (std::size_t i = 0; i < kFails; ++i) {
    const NodeId v = next_victim();
    Span s(tr, kFail);
    net.fail(v);
  }
  {
    Span s(tr, kSweep);
    net.heartbeat_sweep();
  }
  {
    Span s(tr, kRepublish);
    for (const auto& [guid, server] : net.published())
      if (net.contains(server)) net.publish_async(server, guid);
  }
  while (!net.events().empty()) {
    Span s(tr, kAsync);
    net.events().step();
  }
  {
    Span s(tr, kExpire);
    net.expire_pointers(1);
  }
}

}  // namespace

void run_lookup(const RunArgs& args, Tracer& tr, Report& report) {
  const std::size_t n = kNodes;
  const auto kLocate = tr.intern("directory.locate");
  const auto kPublish = tr.intern("directory.publish");
  const auto kUnpublish = tr.intern("directory.unpublish");

  // --- set-up, repeated; the last overlay is measured ---
  tr.set_phase(Phase::kSetup);
  HostProbe probe;
  std::vector<double> setup_s, wall_setup_s;
  Overlay o;
  Fingerprint first;
  for (std::size_t i = 0; i < kSetups; ++i) {
    o.net.reset();  // the previous overlay goes before the next is built
    o.space.reset();
    probe.sample();
    const Nanos spent = probe.spent();
    const Nanos a = now_ns();
    o = build(args.seed, n, tr, probe);
    probe.sample();
    wall_setup_s.push_back(
        static_cast<double>(now_ns() - a - (probe.spent() - spent)) * 1e-9);
    setup_s.push_back(wall_setup_s.back() * probe.take_scale());
    const Fingerprint fp{o.net->total_table_entries(),
                         o.net->total_object_pointers(),
                         o.net->transport().stats().messages};
    if (i == 0) first = fp;
    if (!(fp == first)) report.fail_check("set-ups of one seed differ");
  }
  Network& net = *o.net;
  const std::size_t n_obj = o.objects.size();

  // --- warm-up: untimed locates from a stream of their own ---
  const Zipf zipf(n_obj, kZipfS);
  Rng warm(args.seed ^ 0x7761726dull);
  for (std::size_t i = 0; i < kWarmupLocates; ++i) {
    const NodeId client = o.ids[warm.next_u64(n)];
    (void)net.locate(client, o.objects[zipf.draw(warm)]);
  }

  // --- measured phase: a fixed operation count set by --seconds ---
  tr.set_phase(Phase::kMeasure);
  const auto total_ops =
      static_cast<std::uint64_t>(std::llround(args.seconds * kOpsPerSecond));
  Rng ops(args.seed ^ 0x6f7073ull);
  Throughput throughput;
  LatencySeries locate_us(true, 0.99);
  LatencySeries write_us(true, 0.95);
  ProbeInputs probe_inputs;
  std::size_t found = 0, hops = 0, stretch_n = 0;
  double stretch_sum = 0.0;
  const KindCounts k0 = kind_counts(net.transport());
  const std::uint64_t m0 = net.transport().stats().messages;
  const std::uint64_t f0 = net.events().fired();
  const Nanos give_up =
      now_ns() + static_cast<Nanos>(kMaxMeasureSeconds * 1e9);
  std::uint64_t op = 0;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    const std::uint64_t seg_end = total_ops * (seg + 1) / kSegments;
    const std::uint64_t seg_begin = op;
    probe.sample();
    const Nanos spent = probe.spent();
    const Nanos seg_start = now_ns();
    Nanos t = seg_start;
    while (op < seg_end && t < give_up) {
      probe.maybe_sample(t);
      ++op;
      if (ops.next_double() < kWriteShare) {
        const std::size_t obj = ops.next_u64(n_obj);
        NodeId to = o.ids[ops.next_u64(n)];
        while (to == o.server[obj]) to = o.ids[ops.next_u64(n)];
        const Guid& g = o.objects[obj];
        const Nanos a = now_ns();
        {
          Span s(tr, kUnpublish, static_cast<std::uint32_t>(op));
          net.unpublish(o.server[obj], g);
        }
        {
          Span s(tr, kPublish, static_cast<std::uint32_t>(op));
          net.publish(to, g);
        }
        t = now_ns();
        write_us.add(static_cast<double>(t - a) * 1e-3);
        o.server[obj] = to;
        continue;
      }
      const NodeId client = o.ids[ops.next_u64(n)];
      const std::size_t obj = zipf.draw(ops);
      const Guid& g = o.objects[obj];
      const Nanos a = now_ns();
      LocateResult r;
      {
        Span s(tr, kLocate, static_cast<std::uint32_t>(op));
        r = net.locate(client, g);
      }
      t = now_ns();
      locate_us.add(static_cast<double>(t - a) * 1e-3);
      if (!r.found) continue;
      const auto servers = net.servers_of(g);
      if (r.server != o.server[obj] ||
          std::find(servers.begin(), servers.end(), r.server) ==
              servers.end()) {
        ++report.failed;
        report.fail_check("locate resolved a server not in servers_of");
      }
      ++found;
      hops += r.hops;
      const double direct = net.distance_to_nearest_replica(client, g);
      if (direct > 1e-9) {
        stretch_sum += r.latency / direct;
        ++stretch_n;
      }
      if (tr.on()) probe_inputs.record(net, client, g, r.server);
    }
    const double wall_s =
        static_cast<double>(now_ns() - seg_start - (probe.spent() - spent)) *
        1e-9;
    const double scale = probe.take_scale();
    throughput.close_segment(op - seg_begin, wall_s, scale);
    locate_us.close_segment(scale);
    write_us.close_segment(scale);
  }
  const double measured_s = throughput.wall_s();
  report.attempted = op;
  const KindCounts kinds = kind_counts(net.transport()) - k0;
  const std::uint64_t messages = net.transport().stats().messages - m0;
  const std::uint64_t events = net.events().fired() - f0;

  // --- output checks, outside the timing ---
  check_invariants(net, report);
  for (std::size_t i = 0; i < n_obj; ++i) {
    const auto servers = net.servers_of(o.objects[i]);
    if (servers.size() != 1 || servers[0] != o.server[i]) {
      report.fail_check("replica registry disagrees with the workload");
      break;
    }
  }

  // --- end-to-end metrics ---
  report_setup(report, setup_s, wall_setup_s, probe);
  report_timings(report, throughput, locate_us, write_us);
  const auto ratio = [](double a, std::size_t b) {
    return b == 0 ? 0.0 : a / static_cast<double>(b);
  };
  report.add("locate_found_frac",
             ratio(static_cast<double>(found), locate_us.count()), "ratio",
             locate_us.count(), true);
  report.add("hops_mean", ratio(static_cast<double>(hops), found), "hops",
             found, true);
  report.add("stretch_mean", ratio(stretch_sum, stretch_n), "ratio",
             stretch_n, true);
  report.add("msgs_per_op", ratio(static_cast<double>(messages), op), "msgs",
             op, true);

  // --- deterministic layer counts ---
  report_kinds(report, kinds);
  report.add("sim.events_fired", static_cast<double>(events), "count", 0,
             true);
  report.add("store.records",
             static_cast<double>(net.total_object_pointers()), "count", 0,
             true);

  if (!tr.on()) return;
  // --- traced run: probes, registry cost, epilogue ---
  run_probes(net, probe_inputs, tr, report);
  report_registry_ratios(report, registry_ratios(o, args.seed, zipf));
  epilogue(o, tr, report);
  report_layers(tr, measured_s * 1e9, report);
}

}  // namespace perfbench
