// Table-link coherence, fail-stop + lazy repair (§5.2), the heartbeat
// sweep, and the continual-optimization heuristics (§6.4).  Insertion lives
// in join.cc, voluntary departure in leave.cc, the static oracle builder in
// static_build.cc — all methods of MaintenanceEngine.
#include "src/tapestry/maintenance.h"

#include <algorithm>
#include <bitset>
#include <unordered_map>

#include "src/sim/metrics.h"

namespace tap {

namespace {

/// One bit per digit of a (level, prefix) class; 256 bits covers every
/// radix an IdSpec allows (digit_bits <= 8).
using DigitMask = std::bitset<256>;

bool row_full(const RoutingTable& table, unsigned level) {
  const std::uint64_t* occ = table.row_occupancy(level);
  unsigned filled = 0;
  for (unsigned w = 0; w < table.occupancy_words(); ++w)
    filled += static_cast<unsigned>(__builtin_popcountll(occ[w]));
  return filled == table.radix();
}

/// True when some live node other than `n` appears in n's row `level` or
/// among its level-`level` backpointers: the peers find_replacement asks,
/// and (row members only) the test that lets its multicast leave n.
bool has_live_level_contact(const NodeRegistry& reg, const TapestryNode& n,
                            unsigned level) {
  const RoutingTable& table = n.table();
  const std::uint64_t* occ = table.row_occupancy(level);
  for (unsigned j = occ::next(occ, table.radix(), 0); j != occ::kNone;
       j = occ::next(occ, table.radix(), j + 1))
    for (const auto& e : table.at(level, j).entries())
      if (!(e.id == n.id()) && reg.is_live(e.id)) return true;
  for (const NodeId& b : table.backpointers(level))
    if (!(b == n.id()) && reg.is_live(b)) return true;
  return false;
}

}  // namespace

MaintenanceEngine::MaintenanceEngine(NodeRegistry& registry, Router& router,
                                     ObjectDirectory& directory,
                                     const TapestryParams& params,
                                     EventQueue& events, Rng& rng)
    : reg_(registry), router_(router), dir_(directory), params_(params),
      events_(events), rng_(rng) {}

// ---------------------------------------------------------------------
// Table-link coherence
// ---------------------------------------------------------------------

bool MaintenanceEngine::link(TapestryNode& owner, unsigned level,
                             TapestryNode& nbr, const NodeLockTable* locks) {
  TAP_ASSERT(!(owner.id() == nbr.id()));
  TAP_ASSERT_MSG(owner.id().matches_prefix(nbr.id(), level),
                 "neighbor does not share the slot's prefix");
  const unsigned digit = nbr.id().digit(level);
  NeighborSet::ConsiderResult res;
  {
    const auto g = maybe_lock(locks, owner.id(), nbr.id());
    res = owner.table().consider(level, digit, nbr.id(),
                                 reg_.dist(owner, nbr));
    if (res.inserted) nbr.table().add_backpointer(level, owner.id());
  }
  // The evictee is a third node: never locked while the pair is held.
  if (res.evicted.has_value())
    sync_backpointer(owner, *res.evicted, level, locks);
  return res.inserted;
}

void MaintenanceEngine::sync_backpointer(const TapestryNode& owner,
                                         const NodeId& member, unsigned level,
                                         const NodeLockTable* locks) {
  TapestryNode* m = reg_.find(member);
  if (m == nullptr) return;
  const auto g = maybe_lock(locks, owner.id(), member);
  if (owner.table().at(level, member.digit(level)).contains(member))
    m->table().add_backpointer(level, owner.id());
  else
    m->table().remove_backpointer(level, owner.id());
}

void MaintenanceEngine::unlink(TapestryNode& owner, unsigned level,
                               NodeId nbr, const NodeLockTable* locks) {
  if (nbr == owner.id()) return;  // never drop self-entries
  const auto g = maybe_lock(locks, owner.id(), nbr);
  if (owner.table().remove(level, nbr.digit(level), nbr)) {
    if (TapestryNode* n = reg_.find(nbr); n != nullptr)
      n->table().remove_backpointer(level, owner.id());
  }
}

bool MaintenanceEngine::add_to_table_if_closer(TapestryNode& host,
                                               TapestryNode& cand,
                                               const NodeLockTable* locks) {
  if (host.id() == cand.id()) return false;
  const unsigned gcp = host.id().common_prefix_len(cand.id());
  bool any = false;
  for (unsigned l = 0; l <= gcp && l < params_.id.num_digits; ++l)
    any = link(host, l, cand, locks) || any;
  return any;
}

// ---------------------------------------------------------------------
// Fail-stop and lazy repair (§5.2)
// ---------------------------------------------------------------------

void MaintenanceEngine::fail(NodeId id) {
  reg_.mark_dead(reg_.live(id));
  // The tombstone keeps its table, store and backpointers: last-hop chains
  // crossing the corpse stay traversable for DELETEPOINTERSBACKWARD, and
  // lazy repair discovers the corpse exactly where a live system would —
  // by failing to talk to it.  Locate-cache hints involving the corpse are
  // dropped eagerly; queries already jumping toward it fail holder
  // verification and fall back to the walk on their own.
  dir_.invalidate_node_cache(id);
}

void MaintenanceEngine::purge_dead_neighbor(TapestryNode& at, NodeId dead,
                                            Trace* trace,
                                            const NodeLockTable* locks,
                                            const LiveIdIndex* live_ids) {
  const auto before = dir_.snapshot_pointer_hops(at, locks);
  const unsigned gcp = at.id().common_prefix_len(dead);
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l <= gcp && l < digits; ++l) {
    unlink(at, l, dead, locks);
    // A hole appeared; Property 1 obliges us to find a replacement or
    // establish that none exists (§5.2).
    refill_slot(at, l, dead.digit(l), trace, locks, live_ids);
    const auto g = maybe_lock(locks, at.id());
    at.table().remove_backpointer(l, dead);
  }
  dir_.reroute_changed_pointers(at, before, trace, locks);
}

bool MaintenanceEngine::refill_slot(TapestryNode& at, unsigned level,
                                    unsigned digit, Trace* trace,
                                    const NodeLockTable* locks,
                                    const LiveIdIndex* live_ids) {
  {
    const auto g = maybe_lock(locks, at.id());
    if (!at.table().slot_empty(level, digit)) return false;
  }
  const auto rep = find_replacement(at, level, digit, trace, locks, live_ids);
  if (rep.has_value()) link(at, level, reg_.live(*rep), locks);
  return rep.has_value();
}

std::optional<NodeId> MaintenanceEngine::find_replacement(
    TapestryNode& at, unsigned level, unsigned digit, Trace* trace,
    const NodeLockTable* locks, const LiveIdIndex* live_ids) {
  // Simple local search first: ask the remaining level-`level` contacts
  // (row members and backpointer holders — all of whom share our length-
  // `level` prefix) for their own entry in that slot.
  std::optional<NodeId> best;
  double best_dist = 0.0;
  auto offer = [&](const NodeId& cand) {
    if (cand == at.id() || !reg_.is_live(cand)) return;
    // Mid-wave tables may be racy: filter rather than trust the prefix.
    if (cand.digit(level) != digit || !at.id().matches_prefix(cand, level))
      return;
    const double d = reg_.dist(at, reg_.checked(cand));
    if (!best.has_value() || d < best_dist ||
        (d == best_dist && cand < *best)) {
      best = cand;
      best_dist = d;
    }
  };

  std::vector<NodeId> peers;
  {
    const auto g = maybe_lock(locks, at.id());
    peers = at.table().row_members(level);
    for (const NodeId& b : at.table().backpointers(level)) peers.push_back(b);
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  for (const NodeId& peer : peers) {
    if (peer == at.id() || !reg_.is_live(peer)) continue;
    TapestryNode& p = reg_.live(peer);
    reg_.acct(trace, at, p, 2);  // ask for its (level, digit) entries
    const auto g = maybe_lock(locks, peer);
    for (const auto& e : p.table().at(level, digit).entries()) offer(e.id);
  }
  if (best.has_value()) return best;

  // Complete fallback, expensive but rare: it only runs when the local
  // search came up empty.
  if (live_ids == nullptr) {
    // Acknowledged multicast over our length-`level` prefix, collecting
    // any node carrying `digit` at that position.
    router_.multicast(at.id(), at.id(), level, offer, trace, {});
    return best;
  }
  // Inside a wave the multicast (an unguarded recursive walk) is unusable.
  // Ids sharing our length-`level` prefix with `digit` next occupy one
  // contiguous value range, so the sorted live-id index enumerates exactly
  // the candidates the multicast would have visited — and the (distance,
  // id) minimum is the same winner regardless of enumeration order.
  const unsigned shift =
      (params_.id.num_digits - level - 1) * params_.id.digit_bits;
  const std::uint64_t lo =
      ((at.id().prefix_value(level) << params_.id.digit_bits) | digit)
      << shift;
  const std::uint64_t span = std::uint64_t{1} << shift;
  for (auto it = std::lower_bound(live_ids->begin(), live_ids->end(), lo);
       it != live_ids->end() && *it - lo < span; ++it) {
    const NodeId cand(params_.id, *it);
    if (cand == at.id()) continue;
    if (TapestryNode* c = reg_.find(cand); c != nullptr && c->alive) {
      reg_.acct(trace, at, *c, 1);  // the multicast-equivalent probe
      offer(cand);
    }
  }
  return best;
}

void MaintenanceEngine::heartbeat_sweep(Trace* trace) {
  metrics::heartbeat_sweeps_total().inc();
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();

  // Pass 1: heartbeat probes.  Each node pings its table members; a failed
  // ping triggers the same lazy repair a failed routing step would.  One
  // probe and one ack are re-addressed per member and delivered in place.
  Message probe;
  probe.kind = MessageKind::kHeartbeatProbe;
  Message ack;
  ack.kind = MessageKind::kHeartbeatAck;
  ack.flag = true;  // alive
  for (const auto& n : reg_.nodes()) {
    if (!n->alive) continue;
    probe.src = n->id();
    ack.dst = n->id();
    ack.target = n->id();
    bool again = true;
    while (again) {
      again = false;
      for (unsigned l = 0; l < digits && !again; ++l) {
        for (unsigned j = 0; j < radix && !again; ++j) {
          for (const auto& e : n->table().at(l, j).entries()) {
            if (e.id == n->id()) continue;
            const TapestryNode* other = reg_.find(e.id);
            TAP_ASSERT(other != nullptr);
            probe.dst = e.id;
            probe.target = e.id;
            transport_->deliver(probe);
            reg_.acct(trace, *n, *other, 1);  // heartbeat probe
            if (!other->alive) {
              purge_dead_neighbor(*n, e.id, trace);
              again = true;  // iterators invalidated; rescan this node
              break;
            }
            ack.src = e.id;
            transport_->deliver(ack);
          }
        }
      }
    }
  }

  // Pass 2..k: purge-time replacement searches can miss while other tables
  // are still dirty; retry emptied slots until nothing changes.  A memo of
  // digit classes established (this sweep) to have no live node avoids
  // re-multicasting for genuinely empty classes: one digit mask per
  // (level, prefix), so classes of different levels never share a key.
  std::vector<std::unordered_map<std::uint64_t, DigitMask>> known_empty(
      digits);
  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    for (const auto& n : reg_.nodes()) {
      if (!n->alive) continue;
      const RoutingTable& table = n->table();
      for (unsigned l = 0; l < digits; ++l) {
        if (row_full(table, l)) continue;
        DigitMask& known = known_empty[l][n->id().prefix_value(l)];
        // Without a live level-l contact, find_replacement has no peer to
        // ask and its multicast fallback visits only n itself (which
        // `offer` rejects): nullopt for every digit, with no message and
        // no change.  So record the verdicts without running the searches.
        if (!has_live_level_contact(reg_, *n, l)) {
          for (unsigned j = 0; j < radix; ++j)
            if (table.slot_empty(l, j)) known.set(j);
          continue;
        }
        for (unsigned j = 0; j < radix; ++j) {
          if (!table.slot_empty(l, j) || known.test(j)) continue;
          const auto rep = find_replacement(*n, l, j, trace);
          if (!rep.has_value()) {
            known.set(j);
            continue;
          }
          // find_replacement leaves n's table and store untouched: the
          // local search and Router::multicast only read tables (the
          // multicast skips corpses, it never purges them).  So this
          // snapshot equals one taken before the search.
          const auto before = dir_.snapshot_pointer_hops(*n);
          link(*n, l, reg_.live(*rep));
          dir_.reroute_changed_pointers(*n, before, trace);
          changed = true;
        }
      }
    }
    if (!changed) break;
    // New links may make old conclusions stale.
    for (auto& level_memo : known_empty) level_memo.clear();
  }
}

void MaintenanceEngine::start_heartbeats(double every, Trace* trace) {
  TAP_CHECK(every > 0.0, "heartbeat interval must be positive");
  stop_heartbeats();
  schedule_heartbeat_tick(every, trace);
}

void MaintenanceEngine::stop_heartbeats() {
  if (heartbeat_event_.has_value()) {
    events_.cancel(*heartbeat_event_);
    heartbeat_event_.reset();
  }
}

void MaintenanceEngine::schedule_heartbeat_tick(double every, Trace* trace) {
  heartbeat_event_ = events_.schedule_in(every, [this, every, trace] {
    heartbeat_event_.reset();
    heartbeat_sweep(trace);
    schedule_heartbeat_tick(every, trace);
  });
}

// ---------------------------------------------------------------------
// Continual optimization (§6.4)
// ---------------------------------------------------------------------

void MaintenanceEngine::relocate(NodeId id, Location loc) {
  TapestryNode& n = reg_.live(id);
  TAP_CHECK(loc < reg_.space().size(), "location outside the metric space");
  n.set_location(loc);
  // Deliberately no table fix-up: stored distances are now stale, exactly
  // the drift the §6.4 heuristics are designed to absorb.
}

void MaintenanceEngine::optimize_primaries(NodeId id, Trace* trace) {
  TapestryNode& n = reg_.live(id);
  const auto before = dir_.snapshot_pointer_hops(n);
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l < digits; ++l) {
    for (unsigned j = 0; j < params_.id.radix(); ++j) {
      // Re-measure every member and re-rank; consider() re-sorts in place.
      auto members = n.table().at(l, j).entries();  // copy: we mutate below
      for (const auto& e : members) {
        if (e.id == n.id()) continue;
        const TapestryNode* other = reg_.find(e.id);
        if (other == nullptr || !other->alive) {
          unlink(n, l, e.id);
          continue;
        }
        reg_.acct(trace, n, *other, 2);  // distance probe
        n.table().consider(l, j, e.id, reg_.dist(n, *other));
      }
    }
  }
  dir_.reroute_changed_pointers(n, before, trace);
}

void MaintenanceEngine::optimize_gossip(NodeId id, Trace* trace) {
  TapestryNode& n = reg_.live(id);
  const auto before = dir_.snapshot_pointer_hops(n);
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l < digits; ++l) {
    // Ask each level-l neighbor for its level-l row; adopt closer members
    // (the "local sharing of information" heuristic).
    const auto peers = n.table().row_members(l);
    for (const NodeId& m : peers) {
      if (m == n.id() || !reg_.is_live(m)) continue;
      TapestryNode& member = reg_.live(m);
      reg_.acct(trace, n, member, 2);  // row exchange
      for (const NodeId& x : member.table().row_members(l)) {
        if (x == n.id() || !reg_.is_live(x)) continue;
        link(n, l, reg_.live(x));
      }
    }
  }
  dir_.reroute_changed_pointers(n, before, trace);
}

void MaintenanceEngine::rebuild_neighbor_table(NodeId id, Trace* trace) {
  TapestryNode& n = reg_.live(id);
  const auto before = dir_.snapshot_pointer_hops(n);
  // Deepest level at which anyone shares our prefix; the multicast over
  // that prefix regenerates the first list exactly as at insertion time.
  unsigned max_level = 0;
  for (unsigned l = 0; l < params_.id.num_digits; ++l)
    if (n.table().row_has_other(l)) max_level = l;
  std::vector<NodeId> list;
  router_.multicast(
      id, n.id(), max_level,
      [&](NodeId y) {
        if (!(y == id)) list.push_back(y);
      },
      trace, {id});
  acquire_neighbor_table(n, max_level, list, trace);
  dir_.reroute_changed_pointers(n, before, trace);
}

}  // namespace tap
