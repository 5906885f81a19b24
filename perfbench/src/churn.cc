// Workload `churn`: an event-driven churn schedule on a dynamic overlay.
//
// Set-up: ring metric, n = 1024 nodes grown by dynamic join, n/2 objects
// published with one replica each, pointer_ttl 8.
//
// Measured phase, on the overlay's own EventQueue, advanced one step() at
// a time by the benchmark through simulated time kHorizon (the timers due
// at it included), then drained:
//   * Poisson membership churn: join 0.8, leave 0.6, fail 0.6 per unit,
//     no departures below n/2 nodes, leaves among non-servers only;
//   * locate_async at 200 per unit from a uniform live client to a
//     uniform object (skipped when the object has no live replica);
//   * the soft-state timers, scheduled by the benchmark itself and calling
//     the same public functions the internal timers call:
//     heartbeat_sweep every 4, publish_async of every live replica from
//     published() every 4, expire_pointers every 1.
// The simulated clock is an open loop; wall-clock throughput is that of a
// batch job.  One run is a fixed number of repetitions set by --seconds
// (kRepsPerSecond per second; one takes about 1.5 s of wall time, set-up
// included, on the reference machine), so a run does the same work on
// every commit.  Every repetition builds the same overlay from the seed
// and drives its own churn schedule, drawn from the seed and the
// repetition's index; the deterministic metrics pool all repetitions,
// which averages out the schedule-to-schedule variance one 40-unit
// horizon has.  Each repetition is one segment of the timings (see
// LatencySeries): ops_per_s and the locate quantiles are medians over the
// repetitions; the writes, about 80 a repetition, are pooled.
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>

#include "perfbench/src/probes.h"
#include "perfbench/src/workload.h"
#include "src/metric/ring.h"
#include "src/sim/metrics.h"

namespace perfbench {

namespace {

using tap::EventId;
using tap::Guid;
using tap::LocateResult;
using tap::Location;
using tap::Network;
using tap::NodeId;
using tap::Rng;

constexpr std::size_t kNodes = 1024;
constexpr double kHorizon = 40.0;
constexpr double kJoinRate = 0.8;
constexpr double kLeaveRate = 0.6;
constexpr double kFailRate = 0.6;
constexpr double kQueryRate = 200.0;
constexpr double kHeartbeatEvery = 4.0;
constexpr double kRepublishEvery = 4.0;
constexpr double kExpiryEvery = 1.0;
constexpr double kPointerTtl = 8.0;
constexpr double kRepsPerSecond = 0.6;  // reps per --seconds
constexpr std::size_t kMinReps = 3;
constexpr double kMaxRunSeconds = 80.0;  // ends a pathologically slow run

struct Overlay {
  std::unique_ptr<tap::RingMetric> space;
  std::unique_ptr<Network> net;  // declared after space: destroyed first
  std::vector<Guid> objects;
  std::vector<NodeId> server;  // the one replica of each object
  std::uint64_t join_msgs = 0;
  std::size_t joins = 0;

  void release() {
    net.reset();
    space.reset();
  }
};

/// `probe` (may be null) samples the host's speed between joins.
Overlay build(std::uint64_t seed, std::size_t n, Tracer& tr,
              HostProbe* probe) {
  const auto kJoin = tr.intern("maintenance.join");
  const auto kPublish = tr.intern("directory.publish");
  Overlay o;
  Rng space_rng(seed ^ 0x72696e67ull);
  o.space = std::make_unique<tap::RingMetric>(2 * n + 16, space_rng);
  tap::TapestryParams params;
  params.id = kIdSpec;
  params.pointer_ttl = kPointerTtl;
  o.net = std::make_unique<Network>(*o.space, params, seed);
  Network& net = *o.net;
  net.bootstrap(0);
  for (Location loc = 1; loc < n; ++loc) {
    const std::uint64_t m0 = net.transport().stats().messages;
    {
      Span s(tr, kJoin);
      net.join(loc);
    }
    o.join_msgs += net.transport().stats().messages - m0;
    ++o.joins;
    if (probe != nullptr) probe->maybe_sample(now_ns());
  }
  o.objects = make_objects(seed, n / 2);
  const auto ids = net.node_ids();
  Rng place(seed ^ 0x706c616365ull);
  for (const Guid& g : o.objects) {
    const NodeId server = ids[place.next_u64(ids.size())];
    Span s(tr, kPublish);
    net.publish(server, g);
    o.server.push_back(server);
  }
  return o;
}

/// Deterministic outcome of one measured phase.
struct Outcome {
  std::uint64_t ops = 0;       ///< generator events: churn draws + queries
  std::uint64_t locates = 0;   ///< sent for objects with a live replica
  std::uint64_t skipped = 0;   ///< drawn object had no live replica
  std::uint64_t found = 0;
  std::uint64_t hops = 0;
  double stretch_sum = 0.0;
  std::uint64_t stretch_n = 0;
  std::uint64_t joins = 0, leaves = 0, fails = 0, floor_skips = 0;
  std::uint64_t messages = 0;
  KindCounts kinds{};
  std::uint64_t events = 0;
  std::uint64_t async_steps = 0;
  std::size_t pointers = 0;  ///< store records at the end

  Outcome& operator+=(const Outcome& o) {
    ops += o.ops;
    locates += o.locates;
    skipped += o.skipped;
    found += o.found;
    hops += o.hops;
    stretch_sum += o.stretch_sum;
    stretch_n += o.stretch_n;
    joins += o.joins;
    leaves += o.leaves;
    fails += o.fails;
    floor_skips += o.floor_skips;
    messages += o.messages;
    for (std::size_t k = 0; k < kinds.size(); ++k) kinds[k] += o.kinds[k];
    events += o.events;
    async_steps += o.async_steps;
    return *this;
  }
};

/// Seed of repetition `rep`'s churn schedule.
std::uint64_t schedule_seed(std::uint64_t seed, std::size_t rep) {
  return tap::splitmix64(tap::splitmix64(seed ^ 0x636875726eull) ^ (rep + 1));
}

/// One measured phase on a freshly built overlay.
class Rep {
 public:
  /// `host` (may be null) samples the host's speed between queue steps;
  /// its time is left out of measured_s and of the latencies.
  Rep(Overlay& o, std::uint64_t schedule_seed, std::size_t n, Tracer& tr,
      Report& report, ProbeInputs* probes, HostProbe* host)
      : o_(o),
        net_(*o.net),
        tr_(tr),
        report_(report),
        probes_(probes),
        host_(host),
        wl_(schedule_seed),
        min_nodes_(n / 2),
        alive_(o.objects.size(), true),
        kStep_(tr.intern("sim.step")),
        kAsync_(tr.intern("directory.async_step")),
        kJoin_(tr.intern("maintenance.join")),
        kLeave_(tr.intern("maintenance.leave")),
        kFail_(tr.intern("maintenance.fail")),
        kSweep_(tr.intern("maintenance.heartbeat_sweep")),
        kLocate_(tr.intern("directory.locate_async")),
        kRepublish_(tr.intern("directory.republish_tick")),
        kExpire_(tr.intern("directory.expire_pointers")) {
    live_ = net_.node_ids();
    for (std::size_t i = 0; i < live_.size(); ++i)
      pos_[live_[i].value()] = i;
    for (std::size_t i = 0; i < o.server.size(); ++i)
      served_[o.server[i].value()].push_back(i);
    // Locations never occupied are the join pool (a corpse keeps its own).
    std::vector<bool> used(net_.space().size(), false);
    for (const auto& node : net_.registry().nodes())
      used[node->location()] = true;
    for (Location loc = used.size(); loc-- > 0;)
      if (!used[loc]) free_.push_back(loc);
  }
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  Outcome run();

  double measured_s = 0.0;
  std::vector<double> locate_us;  ///< locate_async -> callback, wall
  std::vector<double> write_us;   ///< one join / leave / fail call, wall

 private:
  void step();
  void every(double period, std::optional<EventId>& slot,
             const std::function<void()>& body);
  void schedule_churn();
  void churn_event();
  void schedule_query();
  void query();
  void add_live(const NodeId& id);
  void remove_live(const NodeId& id);
  [[nodiscard]] Nanos host_spent() const {
    return host_ != nullptr ? host_->spent() : 0;
  }

  Overlay& o_;
  Network& net_;
  Tracer& tr_;
  Report& report_;
  ProbeInputs* probes_;
  HostProbe* host_;
  Rng wl_;
  std::size_t min_nodes_;
  std::vector<NodeId> live_;
  std::unordered_map<std::uint64_t, std::size_t> pos_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> served_;
  std::vector<bool> alive_;  ///< object still has its live replica
  std::vector<Location> free_;
  Outcome out_;
  std::uint64_t actions_ = 0;  ///< benchmark-scheduled actions fired
  bool stop_ = false;
  std::optional<EventId> churn_ev_, query_ev_, sweep_ev_, republish_ev_,
      expire_ev_, horizon_ev_;
  const std::uint16_t kStep_, kAsync_, kJoin_, kLeave_, kFail_, kSweep_,
      kLocate_, kRepublish_, kExpire_;
};

void Rep::add_live(const NodeId& id) {
  pos_[id.value()] = live_.size();
  live_.push_back(id);
}

void Rep::remove_live(const NodeId& id) {
  const std::size_t i = pos_.at(id.value());
  live_[i] = live_.back();
  pos_[live_[i].value()] = i;
  live_.pop_back();
  pos_.erase(id.value());
}

// A step that fires a benchmark action is a sim.step span holding the
// action's span; any other step is an async hop of a publish or locate
// and is attributed to directory.async_step as a whole.
void Rep::step() {
  if (host_ != nullptr) host_->maybe_sample(now_ns());
  const std::uint64_t before = actions_;
  const std::uint32_t span = tr_.on() ? tr_.open(kStep_, 0) : Tracer::kNone;
  net_.events().step();
  if (actions_ == before) {
    ++out_.async_steps;
    tr_.rename(span, kAsync_);
  }
  if (span != Tracer::kNone) tr_.close(span);
}

void Rep::every(double period, std::optional<EventId>& slot,
                const std::function<void()>& body) {
  slot = net_.events().schedule_in(period, [this, period, &slot, body] {
    ++actions_;
    body();
    every(period, slot, body);
  });
}

void Rep::schedule_churn() {
  churn_ev_ = net_.events().schedule_in(
      wl_.exponential(kJoinRate + kLeaveRate + kFailRate), [this] {
        ++actions_;
        churn_event();
        schedule_churn();
      });
}

void Rep::churn_event() {
  const auto op = static_cast<std::uint32_t>(++out_.ops);
  const double dice = wl_.next_double() * (kJoinRate + kLeaveRate + kFailRate);
  if (dice < kJoinRate) {
    if (free_.empty()) {
      ++out_.floor_skips;
      return;
    }
    const Location loc = free_.back();
    free_.pop_back();
    const Nanos a = now_ns();
    NodeId id;
    {
      Span s(tr_, kJoin_, op);
      id = net_.join(loc);
    }
    write_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
    add_live(id);
    ++out_.joins;
    return;
  }
  if (live_.size() <= min_nodes_) {
    ++out_.floor_skips;
    return;
  }
  if (dice < kJoinRate + kLeaveRate) {
    // A voluntary departure would withdraw its replicas (§5.1); only
    // crashes destroy objects, so leavers are drawn among non-servers.
    std::vector<NodeId> candidates;
    for (const NodeId& id : live_)
      if (served_.count(id.value()) == 0) candidates.push_back(id);
    if (candidates.empty()) {
      ++out_.floor_skips;
      return;
    }
    const NodeId victim = candidates[wl_.next_u64(candidates.size())];
    const Location loc = net_.node(victim).location();
    const Nanos a = now_ns();
    {
      Span s(tr_, kLeave_, op);
      net_.leave(victim);
    }
    write_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
    remove_live(victim);
    free_.push_back(loc);
    ++out_.leaves;
    return;
  }
  const NodeId victim = live_[wl_.next_u64(live_.size())];
  const Nanos a = now_ns();
  {
    Span s(tr_, kFail_, op);
    net_.fail(victim);
  }
  write_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
  remove_live(victim);
  const auto it = served_.find(victim.value());
  if (it != served_.end()) {
    for (const std::size_t obj : it->second) alive_[obj] = false;
    served_.erase(it);
  }
  ++out_.fails;
}

void Rep::schedule_query() {
  query_ev_ = net_.events().schedule_in(wl_.exponential(kQueryRate), [this] {
    ++actions_;
    query();
    schedule_query();
  });
}

void Rep::query() {
  const auto op = static_cast<std::uint32_t>(++out_.ops);
  const std::size_t obj = wl_.next_u64(o_.objects.size());
  if (!alive_[obj]) {
    ++out_.skipped;
    return;
  }
  const NodeId client = live_[wl_.next_u64(live_.size())];
  const Guid g = o_.objects[obj];
  Span s(tr_, kLocate_, op);
  const double direct = net_.distance_to_nearest_replica(client, g);
  const Nanos sent = now_ns();
  const Nanos spent = host_spent();
  ++out_.locates;
  net_.locate_async(client, g, [this, obj, client, g, direct, sent,
                                spent](const LocateResult& r) {
    locate_us.push_back(
        static_cast<double>(now_ns() - sent - (host_spent() - spent)) * 1e-3);
    if (!r.found) return;
    if (r.server != o_.server[obj]) {
      ++report_.failed;
      report_.fail_check("locate resolved a server that never held it");
    }
    ++out_.found;
    out_.hops += r.hops;
    if (direct > 1e-9 && direct < 1e18) {
      out_.stretch_sum += r.latency / direct;
      ++out_.stretch_n;
    }
    if (probes_ != nullptr) probes_->record(net_, client, g, r.server);
  });
}

Outcome Rep::run() {
  tap::EventQueue& q = net_.events();
  const KindCounts k0 = kind_counts(net_.transport());
  const std::uint64_t m0 = net_.transport().stats().messages;
  const std::uint64_t f0 = q.fired();
  if (host_ != nullptr) host_->sample();
  const Nanos spent = host_spent();
  const Nanos start = now_ns();

  every(kRepublishEvery, republish_ev_, [this] {
    Span s(tr_, kRepublish_);
    for (const auto& [guid, server] : net_.published())
      if (net_.contains(server)) net_.publish_async(server, guid);
  });
  every(kExpiryEvery, expire_ev_, [this] {
    Span s(tr_, kExpire_);
    net_.expire_pointers(1);
  });
  every(kHeartbeatEvery, sweep_ev_, [this] {
    Span s(tr_, kSweep_);
    net_.heartbeat_sweep();
  });
  schedule_churn();
  schedule_query();
  // Just past the horizon, so the timers due at it fire first: the last
  // heartbeat sweep then runs after the last crash, and the Property 1
  // check below sees the repaired tables (check_property1 counts a slot
  // whose members are all dead as a hole).
  horizon_ev_ = q.schedule_at(
      std::nextafter(q.now() + kHorizon, std::numeric_limits<double>::max()),
      [this] {
        ++actions_;
        stop_ = true;
      });
  while (!stop_ && !q.empty()) step();
  // Horizon reached: stop every benchmark process, then drain the
  // publishes and locates still in flight.
  for (auto* ev : {&churn_ev_, &query_ev_, &sweep_ev_, &republish_ev_,
                   &expire_ev_})
    if (ev->has_value()) q.cancel(**ev);
  while (!q.empty()) step();
  measured_s =
      static_cast<double>(now_ns() - start - (host_spent() - spent)) * 1e-9;

  out_.messages = net_.transport().stats().messages - m0;
  out_.kinds = kind_counts(net_.transport()) - k0;
  out_.events = q.fired() - f0;
  out_.pointers = net_.total_object_pointers();

  // Output checks, outside the timing.
  if (net_.async_in_flight() != 0)
    report_.fail_check("operations still in flight after the drain");
  std::vector<NodeId> mine = live_;
  std::vector<NodeId> theirs = net_.node_ids();
  std::sort(mine.begin(), mine.end());
  std::sort(theirs.begin(), theirs.end());
  if (mine != theirs)
    report_.fail_check("live membership disagrees with the workload");
  for (std::size_t i = 0; i < o_.objects.size(); ++i) {
    const auto servers = net_.servers_of(o_.objects[i]);
    const bool has = !servers.empty();
    if (has != alive_[i] || (has && servers[0] != o_.server[i])) {
      report_.fail_check("replica registry disagrees with the workload");
      break;
    }
  }
  return out_;
}

/// Exercises the calls the measured phase bypasses, on the final overlay
/// after every outcome is reported: sync locates and writes, then static
/// registration and the static table rebuild.
void epilogue(Overlay& o, std::uint64_t seed, Tracer& tr) {
  constexpr std::size_t kLocates = 256;
  constexpr std::size_t kWrites = 64;
  constexpr std::size_t kStatic = 16;
  const auto kLocate = tr.intern("directory.locate");
  const auto kPublish = tr.intern("directory.publish");
  const auto kUnpublish = tr.intern("directory.unpublish");
  const auto kInsert = tr.intern("registry.insert_static_bulk");
  const auto kRebuild = tr.intern("maintenance.rebuild_static_tables");
  Network& net = *o.net;
  tr.set_phase(Phase::kEpilogue);
  Rng r(seed ^ 0x65706cull);
  const auto ids = net.node_ids();
  std::vector<std::size_t> live_objects;
  for (std::size_t i = 0; i < o.objects.size(); ++i)
    if (net.contains(o.server[i])) live_objects.push_back(i);
  for (std::size_t i = 0; i < kLocates && !live_objects.empty(); ++i) {
    const NodeId client = ids[r.next_u64(ids.size())];
    const Guid& g = o.objects[live_objects[r.next_u64(live_objects.size())]];
    Span s(tr, kLocate);
    (void)net.locate(client, g);
  }
  for (std::size_t i = 0; i < kWrites && !live_objects.empty(); ++i) {
    const std::size_t obj = live_objects[r.next_u64(live_objects.size())];
    const NodeId to = ids[r.next_u64(ids.size())];
    {
      Span s(tr, kUnpublish);
      net.unpublish(o.server[obj], o.objects[obj]);
    }
    {
      Span s(tr, kPublish);
      net.publish(to, o.objects[obj]);
    }
    o.server[obj] = to;
  }
  std::vector<bool> used(net.space().size(), false);
  for (const auto& node : net.registry().nodes()) used[node->location()] = true;
  std::vector<Location> locs;
  for (Location loc = 0; loc < used.size() && locs.size() < kStatic; ++loc)
    if (!used[loc]) locs.push_back(loc);
  {
    Span s(tr, kInsert);
    (void)net.insert_static_bulk(locs, 1);
  }
  {
    Span s(tr, kRebuild);
    net.rebuild_static_tables(1);
  }
}

/// Pairs of untraced repetitions with the metrics registry off and on,
/// alternating which runs first.  Returns enabled/disabled measured-phase
/// wall ratios.
std::vector<double> registry_ratios(std::uint64_t seed, std::size_t n) {
  constexpr std::size_t kPairs = 10;
  std::vector<double> ratios;
  Tracer off(false);
  Report ignored;
  for (std::size_t p = 0; p < kPairs; ++p) {
    double wall[2] = {0.0, 0.0};  // [disabled, enabled]
    for (int half = 0; half < 2; ++half) {
      const bool enabled = (p % 2 == 0) == (half == 1);
      Overlay o = build(seed, n, off, nullptr);
      tap::metrics::set_enabled(enabled);
      Rep rep(o, schedule_seed(seed, 0), n, off, ignored, nullptr, nullptr);
      (void)rep.run();
      tap::metrics::set_enabled(true);
      wall[enabled ? 1 : 0] = rep.measured_s;
      o.release();
    }
    ratios.push_back(wall[1] / wall[0]);
  }
  return ratios;
}

}  // namespace

void run_churn(const RunArgs& args, Tracer& tr, Report& report) {
  const std::size_t n = kNodes;
  const std::size_t reps = std::max<std::size_t>(
      kMinReps,
      static_cast<std::size_t>(std::llround(args.seconds * kRepsPerSecond)));
  HostProbe host;
  std::vector<double> setup_s, wall_setup_s;
  Throughput throughput;  // one segment per repetition
  LatencySeries locate_us(true, 0.99);
  LatencySeries write_us(false, 0.95);  // about 80 a repetition: pooled
  Outcome total;
  Overlay o;
  ProbeInputs probe_inputs;
  std::size_t done = 0;
  const Nanos give_up = now_ns() + static_cast<Nanos>(kMaxRunSeconds * 1e9);
  std::size_t end_pointers = 0;
  std::size_t fp_entries = 0;
  std::uint64_t fp_messages = 0;
  for (; done < reps && (done == 0 || now_ns() < give_up); ++done) {
    o.release();
    tr.set_phase(Phase::kSetup);
    host.sample();
    const Nanos spent = host.spent();
    const Nanos a = now_ns();
    o = build(args.seed, n, tr, &host);
    host.sample();
    wall_setup_s.push_back(
        static_cast<double>(now_ns() - a - (host.spent() - spent)) * 1e-9);
    setup_s.push_back(wall_setup_s.back() * host.take_scale());
    // Every repetition builds the same overlay.
    const std::size_t entries = o.net->total_table_entries();
    const std::uint64_t messages = o.net->transport().stats().messages;
    if (done == 0) {
      fp_entries = entries;
      fp_messages = messages;
    } else if (entries != fp_entries || messages != fp_messages) {
      report.fail_check("set-ups of one seed differ");
    }
    tr.set_phase(Phase::kMeasure);
    Rep rep(o, schedule_seed(args.seed, done), n, tr, report,
            done + 1 == reps && tr.on() ? &probe_inputs : nullptr, &host);
    const Outcome out = rep.run();
    total += out;
    end_pointers = out.pointers;
    const double scale = host.take_scale();
    throughput.close_segment(out.ops, rep.measured_s, scale);
    for (const double us : rep.locate_us) locate_us.add(us);
    for (const double us : rep.write_us) write_us.add(us);
    locate_us.close_segment(scale);
    write_us.close_segment(scale);
    check_invariants(*o.net, report);
  }
  report.attempted = total.ops;

  report_setup(report, setup_s, wall_setup_s, host);
  report_timings(report, throughput, locate_us, write_us);
  const auto ratio = [](double a, std::uint64_t b) {
    return b == 0 ? 0.0 : a / static_cast<double>(b);
  };
  report.add("locate_found_frac",
             ratio(static_cast<double>(total.found), total.locates), "ratio",
             total.locates, true);
  report.add("hops_mean", ratio(static_cast<double>(total.hops), total.found),
             "hops", total.found, true);
  report.add("stretch_mean", ratio(total.stretch_sum, total.stretch_n),
             "ratio", total.stretch_n, true);
  report.add("msgs_per_op",
             ratio(static_cast<double>(total.messages), total.ops), "msgs",
             total.ops, true);

  report_kinds(report, total.kinds);
  report.add("sim.events_fired", static_cast<double>(total.events), "count",
             0, true);
  report.add("store.records", static_cast<double>(end_pointers), "count", 0,
             true);
  report.add("maintenance.join_msgs",
             ratio(static_cast<double>(o.join_msgs), o.joins), "msgs",
             o.joins, true);

  if (!tr.on()) return;
  run_probes(*o.net, probe_inputs, tr, report);
  epilogue(o, args.seed, tr);
  o.release();
  report_registry_ratios(report, registry_ratios(args.seed, n));
  report_layers(tr, throughput.wall_s() * 1e9, report);
}

}  // namespace perfbench
