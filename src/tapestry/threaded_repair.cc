// Thread-parallel §5.1/§5.2 repair (see threaded_repair.h for the model,
// the locking discipline and the determinism contract).  The per-node
// steps are the MaintenanceEngine's (leave.cc, maintenance.cc), called
// with the lock table and the live-id index; this file holds the
// orchestration: the serial preamble, the parallel fan-out, the threaded
// sweep and the quiescent chain-repair pass.
#include "src/tapestry/threaded_repair.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <unordered_set>

#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"

namespace tap {

ThreadedRepairDriver::ThreadedRepairDriver(MaintenanceEngine& engine,
                                           NodeRegistry& registry,
                                           Router& router,
                                           ObjectDirectory& directory,
                                           const TapestryParams& params)
    : eng_(engine), reg_(registry), router_(router), dir_(directory),
      params_(params), locks_(registry.node_locks()) {}

void ThreadedRepairDriver::index_live_nodes() {
  live_values_.clear();
  for (TapestryNode* n : reg_.nodes_snapshot())
    if (n->alive) live_values_.push_back(n->id().value());
  std::sort(live_values_.begin(), live_values_.end());
}

// ---------------------------------------------------------------------
// Voluntary delete (§5.1, Figure 12) on real threads
// ---------------------------------------------------------------------

void ThreadedRepairDriver::run_leave(const std::vector<NodeId>& victims,
                                     std::size_t workers, Trace* trace) {
  TAP_CHECK(!victims.empty(), "no leave victims");
  std::unordered_set<std::uint64_t> batch;
  for (const NodeId& v : victims) {
    TAP_CHECK(reg_.is_live(v), "leave victim must be a live node");
    TAP_CHECK(batch.insert(v.value()).second,
              "duplicate victim within the leave batch");
  }
  TAP_CHECK(victims.size() < reg_.live_count(),
            "leave_bulk would empty the network");

  // Serial preamble.  (a) Withdraw every victim's replicas while the mesh
  // still routes through them — the replica registry and the locate cache
  // have no internal synchronisation, so all of this stays on one thread.
  for (const NodeId& v : victims)
    for (const Guid& g : dir_.guids_served_by(v)) dir_.unpublish(v, g, trace);

  // (b) Mark every victim dead before capturing anything: hint and holder
  // lists must never name a co-departing node, no matter how the threads
  // would have interleaved.
  for (const NodeId& v : victims) {
    reg_.mark_dead(reg_.live(v));
    dir_.invalidate_node_cache(v);
  }
  index_live_nodes();

  // (c) Capture each victim's per-level replacement hints (live
  // secondaries of its own-digit slot — one more shared digit, exactly
  // what a holder's vacated slot requires) and live backpointer holders.
  const unsigned digits = params_.id.num_digits;
  std::vector<Session> sessions(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    Session& s = sessions[i];
    s.victim = victims[i];
    s.hints.resize(digits);
    s.holders.resize(digits);
    const TapestryNode& a = reg_.checked(s.victim);
    for (unsigned l = 0; l < digits; ++l) {
      for (const auto& e : a.table().at(l, s.victim.digit(l)).entries())
        if (!(e.id == s.victim) && reg_.is_live(e.id))
          s.hints[l].push_back(e.id);
      for (const NodeId& h : a.table().backpointers(l))
        if (reg_.is_live(h)) s.holders[l].push_back(h);
    }
  }

  parallel_for(
      sessions.size(), [&](std::size_t i) { leave_one(sessions[i]); },
      workers);

  finish_wave(workers, trace, &sessions);
}

void ThreadedRepairDriver::leave_one(Session& s) {
  TapestryNode& a = reg_.checked(s.victim);
  // 1. Notify every backpointer holder, level by level, with the hints;
  //    §4.2 rerouting happens inside each notification.
  for (unsigned l = 0; l < params_.id.num_digits; ++l) {
    for (const NodeId& holder : s.holders[l]) {
      TapestryNode* bp = reg_.find(holder);
      if (bp == nullptr || !bp->alive) continue;
      eng_.notify_leave(a, *bp, l, s.hints[l], &s.trace, &locks_,
                        &live_values_);
    }
  }
  // 2. REMOVELINK: retract the victim's own forward links.
  eng_.remove_links(a, &s.trace, &locks_);
}

// ---------------------------------------------------------------------
// Fail-stop plus eager repair (§5.2) on real threads
// ---------------------------------------------------------------------

void ThreadedRepairDriver::run_fail(const std::vector<NodeId>& victims,
                                    std::size_t workers, Trace* trace) {
  TAP_CHECK(!victims.empty(), "no fail victims");
  std::unordered_set<std::uint64_t> batch;
  for (const NodeId& v : victims) {
    TAP_CHECK(reg_.is_live(v), "fail victim must be a live node");
    TAP_CHECK(batch.insert(v.value()).second,
              "duplicate victim within the fail batch");
  }
  TAP_CHECK(victims.size() < reg_.live_count(),
            "fail_and_repair_bulk would empty the network");

  // Serial preamble: all victims stop responding at once (tombstones keep
  // their tables and stores, as in fail()), then the holder lists are
  // captured — backpointer symmetry makes them exactly the set of nodes
  // lazy repair would eventually have discovered the corpse from.
  for (const NodeId& v : victims) {
    reg_.mark_dead(reg_.live(v));
    dir_.invalidate_node_cache(v);
  }
  index_live_nodes();

  std::vector<Session> sessions(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    Session& s = sessions[i];
    s.victim = victims[i];
    s.holders.resize(1);
    for (const NodeId& h : reg_.checked(s.victim).table().all_backpointers())
      if (reg_.is_live(h)) s.holders[0].push_back(h);
  }

  parallel_for(
      sessions.size(), [&](std::size_t i) { fail_one(sessions[i]); },
      workers);

  finish_wave(workers, trace, &sessions);
}

void ThreadedRepairDriver::fail_one(Session& s) {
  for (const NodeId& holder : s.holders[0]) {
    TapestryNode* bp = reg_.find(holder);
    if (bp == nullptr || !bp->alive) continue;
    eng_.purge_dead_neighbor(*bp, s.victim, &s.trace, &locks_, &live_values_);
  }
}

// ---------------------------------------------------------------------
// Threaded heartbeat sweep (§5.2, §6.5)
// ---------------------------------------------------------------------

bool ThreadedRepairDriver::sweep_node(TapestryNode& n, Trace* trace) {
  bool changed = false;
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();

  // Probe pass: ping every table member under our own stripe, collect the
  // corpses, purge them after the guard drops (purge takes guards of its
  // own).  Replacements are always live, so one pass finds every corpse.
  std::vector<NodeId> corpses;
  {
    NodeLockTable::Guard g(locks_, n.id());
    // One probe and one ack, re-addressed per member and delivered in
    // place.
    Message probe =
        make_message(MessageKind::kHeartbeatProbe, n.id(), n.id(), n.id());
    Message ack =
        make_message(MessageKind::kHeartbeatAck, n.id(), n.id(), n.id());
    ack.flag = true;  // alive
    for (unsigned l = 0; l < digits; ++l) {
      for (unsigned j = 0; j < radix; ++j) {
        for (const auto& e : n.table().at(l, j).entries()) {
          if (e.id == n.id()) continue;
          const TapestryNode* other = reg_.find(e.id);
          TAP_ASSERT(other != nullptr);
          probe.dst = e.id;
          probe.target = e.id;
          router_.transport().deliver(probe);
          reg_.acct(trace, n, *other, 1);  // heartbeat probe
          if (!other->alive) {
            corpses.push_back(e.id);
          } else {
            ack.src = e.id;
            router_.transport().deliver(ack);
          }
        }
      }
    }
  }
  std::sort(corpses.begin(), corpses.end());
  corpses.erase(std::unique(corpses.begin(), corpses.end()), corpses.end());
  for (const NodeId& dead : corpses) {
    eng_.purge_dead_neighbor(n, dead, trace, &locks_, &live_values_);
    changed = true;
  }

  // Fill pass: every empty slot hunts a replacement.  The prefix-range
  // fallback makes the search complete, so one pass fills every slot that
  // has a live candidate at all — Property 1 at quiescence by
  // construction, independent of thread interleaving.
  for (unsigned l = 0; l < digits; ++l)
    for (unsigned j = 0; j < radix; ++j)
      changed = eng_.refill_slot(n, l, j, trace, &locks_, &live_values_) ||
                changed;
  return changed;
}

void ThreadedRepairDriver::run_sweep(std::size_t workers, Trace* trace) {
  index_live_nodes();
  const std::vector<TapestryNode*> nodes = reg_.nodes_snapshot();
  // The complete replacement search converges in one pass; the loop (with
  // the serial sweep's round cap) is belt and braces for interleavings
  // where a purge empties a slot after the fill pass walked it.
  for (int round = 0; round < 4; ++round) {
    std::atomic<bool> changed{false};
    std::vector<Trace> traces(nodes.size());
    parallel_for(
        nodes.size(),
        [&](std::size_t i) {
          if (!nodes[i]->alive) return;
          if (sweep_node(*nodes[i], &traces[i]))
            changed.store(true, std::memory_order_relaxed);
        },
        workers);
    if (trace != nullptr)
      for (const Trace& t : traces) trace->absorb(t);
    if (!changed.load()) break;
  }
}

void ThreadedRepairDriver::finish_wave(std::size_t workers, Trace* trace,
                                       std::vector<Session>* sessions) {
  // Merge per-victim traces in request order (deterministic counters up to
  // scheduling-dependent repair overlap; invariants never depend on them).
  if (sessions != nullptr && trace != nullptr)
    for (const Session& s : *sessions) trace->absorb(s.trace);
  // Quiesce Property 1 across the whole mesh, then close the one §4.2
  // window threads open that serial execution cannot (threaded_repair.h):
  // records deposited on a holder after that holder's snapshot was taken.
  run_sweep(workers, trace);
  dir_.repair_pointer_chains(trace);
}

// ---------------------------------------------------------------------
// MaintenanceEngine facade
// ---------------------------------------------------------------------

namespace {

// Wall-clock wave timing feeds a *volatile* metric: it is scrape-visible
// but excluded from deterministic snapshots (see metrics.h).
class WaveTimer {
 public:
  WaveTimer() : t0_(std::chrono::steady_clock::now()) {}
  ~WaveTimer() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    metrics::repair_wave_seconds().observe(
        std::chrono::duration<double>(dt).count());
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

void MaintenanceEngine::leave_bulk(const std::vector<NodeId>& victims,
                                   std::size_t workers, Trace* trace) {
  WaveTimer timer;
  ThreadedRepairDriver driver(*this, reg_, router_, dir_, params_);
  driver.run_leave(victims, workers, trace);
}

void MaintenanceEngine::fail_and_repair_bulk(const std::vector<NodeId>& victims,
                                             std::size_t workers,
                                             Trace* trace) {
  WaveTimer timer;
  ThreadedRepairDriver driver(*this, reg_, router_, dir_, params_);
  driver.run_fail(victims, workers, trace);
}

void MaintenanceEngine::heartbeat_sweep_bulk(std::size_t workers,
                                             Trace* trace) {
  WaveTimer timer;
  ThreadedRepairDriver driver(*this, reg_, router_, dir_, params_);
  driver.run_sweep(workers, trace);
}

}  // namespace tap
