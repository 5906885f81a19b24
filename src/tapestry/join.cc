// Node insertion (paper §4, Figure 7) built on the incremental
// nearest-neighbor algorithm (paper §3, Figure 4).
//
// INSERT:
//   1. acquire the primary surrogate by routing toward the new node-ID;
//   2. copy the surrogate's neighbor table as a preliminary table;
//   3. acknowledged-multicast LINKANDXFERROOT to every node sharing the
//      longest existing prefix α with the new node — these are exactly the
//      nodes whose tables have a hole the new node fills (Property 1), and
//      the holders of object pointers whose root moves to the new node;
//   4. ACQUIRENEIGHBORTABLE: starting from the α-node list, walk prefix
//      lengths downward, each time asking the current list's members for
//      their forward and backward pointers at the next level, measuring the
//      distance to every newly met candidate, and keeping the k closest
//      (Lemma 1 / Theorem 3).  Every contacted node also checks whether the
//      new node improves its own table (Theorem 4) and re-routes object
//      pointers whose next hop changed (§4.2).
//
// Digit-completeness note: row i of the new table is filled from the *full*
// candidate set gathered at level i (the union of the level-(i+1) list
// members' row-i entries), not from the trimmed k-list.  Because every
// queried table satisfies Property 1, the union contains a representative
// of every (prefix, j) that exists, so the new node's table satisfies
// Property 1 deterministically — the k-list only bounds who is *measured*
// for the recursion, mirroring the role k plays in the paper's analysis.
//
// The §4.4 simultaneous-insertion session steps (surrogate bounce, the
// multicast FUNCTION with its forwarding rule, watch list and pinned
// pointers, pin release, finish) live here too: the event coordinator
// (parallel_join.h) and the threaded driver (threaded_join.h) both call
// them, the latter with the lock table, and keep only their transport.
#include "src/tapestry/maintenance.h"

#include <algorithm>

namespace tap {

NodeId MaintenanceEngine::bootstrap(Location loc, std::optional<NodeId> id) {
  TAP_CHECK(reg_.live_count() == 0, "bootstrap requires an empty network");
  NodeId nid = id.has_value() ? *id : Id::random(params_.id, rng_);
  reg_.register_node(nid, loc);
  return nid;
}

NodeId MaintenanceEngine::join(Location loc, std::optional<NodeId> id,
                               Trace* trace) {
  TAP_CHECK(reg_.live_count() > 0,
            "join requires a non-empty network; bootstrap first");
  // Uniformly random live gateway.
  std::vector<NodeId> ids = reg_.node_ids();
  const NodeId gateway = ids[rng_.next_u64(ids.size())];
  return join_via(gateway, loc, id, trace);
}

NodeId MaintenanceEngine::join_via(NodeId gateway, Location loc,
                                   std::optional<NodeId> id, Trace* trace) {
  TAP_CHECK(reg_.is_live(gateway), "gateway must be a live node");
  NodeId nid = id.has_value() ? *id : reg_.fresh_node_id();
  TAP_CHECK(reg_.find(nid) == nullptr, "node id already in use");

  // 1-2. ACQUIREPRIMARYSURROGATE and GETPRELIMNEIGHBORTABLE.
  const NodeId surrogate_id = begin_insertion(nid, gateway, loc, trace);
  TapestryNode& nn = reg_.live(nid);
  const unsigned alpha = nid.common_prefix_len(surrogate_id);

  // 3. ACKNOWLEDGEDMULTICAST(α, LINKANDXFERROOT): reach every α-node.  The
  //    new node is excluded from forwarding — it may already appear in
  //    tables updated earlier in the walk.
  std::vector<NodeId> alpha_nodes;
  router_.multicast(
      surrogate_id, nid, alpha,
      [&](NodeId y) {
        alpha_nodes.push_back(y);
        link_and_xfer_root(reg_.live(y), nn, trace);
      },
      trace, {nid});

  // 4. Build the neighbor table level by level, reusing the multicast
  //    result as the first (level-α) list.
  finish_insertion(nn, alpha, alpha_nodes, trace);
  return nid;
}

NodeId MaintenanceEngine::begin_insertion(NodeId nid, NodeId gateway,
                                          Location loc, Trace* trace,
                                          const NodeLockTable* locks) {
  // 1. ACQUIREPRIMARYSURROGATE: route from the gateway toward the new id
  //    (under per-hop stripes inside a threaded wave); the root reached is
  //    the surrogate.  If it is itself mid-insertion the request bounces
  //    to *its* surrogate — multicasts must start at a core node (§4.4,
  //    Figure 10).  A bounce target always was core when recorded and core
  //    status is permanent, so the chain terminates.
  NodeId sur = locks != nullptr
                   ? router_.route_to_root_guarded(gateway, nid, trace).root
                   : router_.route_to_root(gateway, nid, trace).root;
  for (unsigned guard = 0;; ++guard) {
    TAP_CHECK(guard < 64, "surrogate bounce chain too long");
    std::optional<NodeId> bounce;
    {
      const auto g = maybe_lock(locks, sur);
      const TapestryNode& n = reg_.checked(sur);
      if (n.inserting) {
        TAP_CHECK(n.psurrogate.has_value(),
                  "inserting node without a surrogate");
        bounce = n.psurrogate;
      }
    }
    if (!bounce.has_value()) break;
    if (trace != nullptr) trace->hop(reg_.distance(sur, *bounce));
    sur = *bounce;
  }

  // 2. Register pre-marked as inserting — any thread that finds the node
  //    in the index already sees the §4.3 transient state — then
  //    GETPRELIMNEIGHBORTABLE: one bulk RPC for the surrogate's table.
  TapestryNode& nn = reg_.register_node(nid, loc, /*inserting=*/true, sur);
  copy_preliminary_table(nn, reg_.checked(sur), nid.common_prefix_len(sur),
                         trace, locks);
  return sur;
}

void MaintenanceEngine::finish_insertion(TapestryNode& nn, unsigned alpha,
                                         const std::vector<NodeId>& alpha_list,
                                         Trace* trace,
                                         const NodeLockTable* locks) {
  // ACQUIRENEIGHBORTABLE over the α-list (§3, Figure 4).  The descent
  // rewrites nn's table, so pointers already transferred to it are
  // re-checked afterwards (§4.2).
  const auto before = dir_.snapshot_pointer_hops(nn, locks);
  acquire_neighbor_table(nn, alpha, alpha_list, trace, locks);
  dir_.reroute_changed_pointers(nn, before, trace, locks);

  // Insertion complete: the §4.3 transient state is cleared under nn's
  // stripe.
  const auto g = maybe_lock(locks, nn.id());
  nn.inserting = false;
  nn.psurrogate.reset();
}

void MaintenanceEngine::copy_preliminary_table(TapestryNode& nn,
                                               TapestryNode& surrogate,
                                               unsigned max_level,
                                               Trace* trace,
                                               const NodeLockTable* locks) {
  reg_.acct(trace, nn, surrogate, 2);  // request + bulk reply
  // Rows 0..max_level of the surrogate hold nodes sharing the corresponding
  // prefix of the surrogate's ID, which equals ours up to max_level — all
  // valid candidates for the same rows of our table.  The reply is the
  // rows as read under the surrogate's stripe; linking happens after.
  std::vector<std::pair<unsigned, NodeId>> cands;
  {
    const auto g = maybe_lock(locks, surrogate.id());
    const unsigned digits = params_.id.num_digits;
    for (unsigned l = 0; l <= max_level && l < digits; ++l)
      for (unsigned j = 0; j < params_.id.radix(); ++j)
        for (const auto& e : surrogate.table().at(l, j).entries())
          if (!(e.id == nn.id())) cands.emplace_back(l, e.id);
  }
  for (const auto& [l, id] : cands)
    if (TapestryNode* cand = reg_.find(id); cand != nullptr && cand->alive)
      link(nn, l, *cand, locks);
  add_to_table_if_closer(nn, surrogate, locks);
}

void MaintenanceEngine::link_and_xfer_root(TapestryNode& host,
                                           TapestryNode& nn, Trace* trace,
                                           const NodeLockTable* locks) {
  if (host.id() == nn.id()) return;
  // Snapshot next hops, update the table, then re-route any pointer whose
  // path changed (this transfers to the new node the pointers it is now
  // root of, and deposits them along the new paths — §4.2).
  const auto before = dir_.snapshot_pointer_hops(host, locks);
  add_to_table_if_closer(host, nn, locks);
  dir_.reroute_changed_pointers(host, before, trace, locks);
}

CandidateList closest_candidates(CandidateList list, std::size_t k) {
  const auto last = list.begin() + std::min(k, list.size());
  std::partial_sort(list.begin(), last, list.end(),
                    [](const DescentCandidate& a, const DescentCandidate& b) {
                      if (a.dist != b.dist) return a.dist < b.dist;
                      return a.id < b.id;
                    });
  list.erase(last, list.end());
  return list;
}

CandidateList MaintenanceEngine::measure_candidates(
    const TapestryNode& nn, const std::vector<NodeId>& ids) const {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(ids.size());
  CandidateList out;
  for (const NodeId& x : ids) {
    if (x == nn.id() || !seen.insert(x.value()).second) continue;
    TapestryNode* node = reg_.find(x);
    if (node != nullptr && node->alive)
      out.push_back({reg_.dist(nn, *node), x, node});
  }
  return out;
}

CandidateList MaintenanceEngine::gather_candidates(
    TapestryNode& nn, const CandidateList& list, unsigned level, Trace* trace,
    const NodeLockTable* locks) {
  std::vector<NodeId> ids;
  for (const DescentCandidate& m : list) {
    if (!m.node->alive) continue;
    reg_.acct(trace, nn, *m.node, 2);  // GETFORWARDANDBACKPOINTERS round trip
    {
      const auto g = maybe_lock(locks, m.id);
      const RoutingTable& t = m.node->table();
      for (const NodeId& x : t.row_members(level)) ids.push_back(x);
      for (const NodeId& x : t.backpointers(level)) ids.push_back(x);
    }
    ids.push_back(m.id);  // the member itself matches >= level digits
  }
  CandidateList cands = measure_candidates(nn, ids);
  std::sort(cands.begin(), cands.end(),
            [](const DescentCandidate& a, const DescentCandidate& b) {
              return a.id < b.id;
            });
  return cands;
}

void MaintenanceEngine::build_row_from_list(TapestryNode& nn,
                                            const CandidateList& list,
                                            unsigned level,
                                            const NodeLockTable* locks) {
  for (const DescentCandidate& c : list) {
    if (!c.node->alive) continue;
    TAP_ASSERT_MSG(nn.id().common_prefix_len(c.id) >= level,
                   "candidate does not share the row prefix");
    link(nn, level, *c.node, locks);
  }
}

CandidateList MaintenanceEngine::get_next_list(
    TapestryNode& nn, const CandidateList& list, unsigned level,
    std::unordered_set<std::uint64_t>& contacted, Trace* trace,
    const NodeLockTable* locks) {
  CandidateList candidates =
      gather_candidates(nn, list, level, trace, locks);
  // Measure the distance to every candidate met for the first time; the
  // contacted node simultaneously checks whether the new node belongs in
  // its own table (ADDTOTABLEIFCLOSER, Theorem 4) and fixes pointer paths.
  for (const DescentCandidate& c : candidates) {
    if (contacted.insert(c.id.value()).second) {
      reg_.acct(trace, nn, *c.node, 2);  // distance probe round trip
      link_and_xfer_root(*c.node, nn, trace, locks);
    }
  }
  return candidates;
}

void MaintenanceEngine::acquire_neighbor_table(
    TapestryNode& nn, unsigned max_level,
    const std::vector<NodeId>& initial_list, Trace* trace,
    const NodeLockTable* locks) {
  const std::size_t k = params_.effective_k(reg_.live_count());
  std::unordered_set<std::uint64_t> contacted;
  for (const NodeId& x : initial_list) contacted.insert(x.value());

  // Level max_level: the multicast already visited every α-node, so the
  // initial candidate set is complete by construction (linked in visit
  // order).
  CandidateList candidates = measure_candidates(nn, initial_list);
  build_row_from_list(nn, candidates, max_level, locks);
  CandidateList list = closest_candidates(std::move(candidates), k);

  for (unsigned level = max_level; level-- > 0;) {
    candidates = get_next_list(nn, list, level, contacted, trace, locks);
    build_row_from_list(nn, candidates, level, locks);
    list = closest_candidates(std::move(candidates), k);
  }
}

// ---------------------------------------------------------------------
// Simultaneous insertion (§4.4, Figure 11)
// ---------------------------------------------------------------------

namespace {

// The forwarding targets of the multicast at `at` for session `s`; the
// caller holds whatever synchronisation reading `at`'s table needs.
std::vector<MulticastChild> multicast_children(const NodeRegistry& reg,
                                               const TapestryNode& at,
                                               const JoinSession& s,
                                               unsigned prefix_len) {
  const NodeId& nn = s.nn;
  const unsigned alpha = s.alpha;
  const NodeId at_id = at.id();
  const unsigned digits = reg.params().id.num_digits;
  const unsigned radix = reg.params().id.radix();
  std::vector<MulticastChild> children;

  // Walk our own prefix chain, collecting forwarding targets row by row;
  // self-messages are free and immediate, so the levels where we are the
  // chosen recipient collapse into the caller's single visit.  Per slot
  // the recipients are one unpinned member plus ALL pinned members
  // (Lemma 4); the inserter itself is never forwarded to.
  for (unsigned l = prefix_len; l < digits; ++l) {
    bool row_has_other = false;
    for (unsigned j = 0; j < radix; ++j) {
      bool unpinned_taken = false;
      for (const auto& e : at.table().at(l, j).entries()) {
        if (e.id == nn) continue;
        if (e.id == at_id) {
          unpinned_taken = true;  // the self-message collapses into here
          continue;
        }
        const TapestryNode* m = reg.find(e.id);
        if (m == nullptr || !m->alive) continue;
        row_has_other = true;
        if (e.pinned) {
          children.push_back({e.id, l + 1});
        } else if (!unpinned_taken) {
          unpinned_taken = true;
          children.push_back({e.id, l + 1});
        }
      }
    }
    if (!row_has_other) break;  // alone from this level on: we are a leaf
  }

  // MULTICASTTOFILLEDHOLE (Figure 11 line 9): if the hole this session
  // fills is already occupied by someone else, forward to them too so
  // conflicting inserters learn of each other (Lemma 5).
  for (const auto& e : at.table().at(alpha, s.hole_digit).entries()) {
    if (e.id == nn || e.id == at_id) continue;
    if (s.processed.count(e.id.value()) != 0) continue;
    const TapestryNode* m = reg.find(e.id);
    if (m == nullptr || !m->alive) continue;
    children.push_back({e.id, alpha + 1});
  }
  return children;
}

}  // namespace

WatchList MaintenanceEngine::begin_session(JoinSession& s, NodeId gateway,
                                           Location loc,
                                           const NodeLockTable* locks) {
  s.surrogate = begin_insertion(s.nn, gateway, loc, &s.trace, locks);
  s.alpha = s.nn.common_prefix_len(s.surrogate);
  s.hole_digit = s.nn.digit(s.alpha);
  return watch_list(reg_.checked(s.nn), locks);
}

std::vector<MulticastChild> MaintenanceEngine::multicast_function(
    JoinSession& s, TapestryNode& at, unsigned prefix_len, WatchList& watch,
    const NodeLockTable* locks) {
  TapestryNode& nn = reg_.checked(s.nn);

  // Watch-list service (Figure 11 line 1, Lemma 6).  Fillers reported to
  // the inserter change its table, so its pointer paths are re-checked.
  const auto nn_before = dir_.snapshot_pointer_hops(nn, locks);
  serve_watch_list(at, nn, watch, s.trace, locks);
  dir_.reroute_changed_pointers(nn, nn_before, &s.trace, locks);

  // Pin the inserting node into the slot it fills (§4.4, Lemma 4) and
  // adopt it wherever it improves this node's table (Theorem 4); both
  // change this node's forward routes, so pointer paths are snapshotted
  // around the pair (§4.2).
  const auto at_before = dir_.snapshot_pointer_hops(at, locks);
  if (s.pinned_at.insert(at.id().value()).second)
    pin(at, nn, s.alpha, s.hole_digit, locks);
  add_to_table_if_closer(at, nn, locks);
  dir_.reroute_changed_pointers(at, at_before, &s.trace, locks);

  // Forwarding targets (Lemmas 4 and 5), read under this node's stripe.
  std::vector<MulticastChild> children;
  {
    const auto g = maybe_lock(locks, at.id());
    children = multicast_children(reg_, at, s, prefix_len);
  }
  // FUNCTION applied: record this node on the α-list exactly once.
  s.visited.push_back(at.id());
  return children;
}

void MaintenanceEngine::release_pin(JoinSession& s, const NodeId& at,
                                    const NodeLockTable* locks) {
  if (s.pinned_at.erase(at.value()) == 0) return;
  unpin(reg_.checked(at), s.nn, s.alpha, s.hole_digit, locks);
}

void MaintenanceEngine::finish_session(JoinSession& s,
                                       const NodeLockTable* locks) {
  // Defensive: every acknowledged subtree released its pin already, so
  // nothing should be left.
  const std::vector<std::uint64_t> leftovers(s.pinned_at.begin(),
                                             s.pinned_at.end());
  for (const std::uint64_t v : leftovers)
    release_pin(s, NodeId(params_.id, v), locks);
  finish_insertion(reg_.checked(s.nn), s.alpha, s.visited, &s.trace, locks);
  s.done = true;
}

WatchList MaintenanceEngine::watch_list(const TapestryNode& nn,
                                        const NodeLockTable* locks) const {
  const unsigned radix = params_.id.radix();
  const std::uint64_t full_row =
      radix == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << radix) - 1;
  WatchList watch(params_.id.num_digits, 0);
  const auto g = maybe_lock(locks, nn.id());
  for (unsigned l = 0; l < watch.size(); ++l)
    watch[l] = ~nn.table().row_mask64(l) & full_row;
  return watch;
}

void MaintenanceEngine::serve_watch_list(TapestryNode& at, TapestryNode& nn,
                                         WatchList& watch, Trace& trace,
                                         const NodeLockTable* locks) {
  const unsigned gcp = at.id().common_prefix_len(nn.id());
  // Can this node fill slot (l, j) of the inserter?  Its own (l, j)
  // entries share prefix nn[0..l)·j because l <= gcp.  Fillers are found
  // under its stripe, then reported to the inserter outside it.
  std::vector<std::pair<unsigned, NodeId>> fillers;
  {
    const auto g = maybe_lock(locks, at.id());
    for (unsigned l = 0; l < watch.size() && l <= gcp; ++l) {
      if (watch[l] == 0) continue;
      for (unsigned j = 0; j < params_.id.radix(); ++j) {
        if ((watch[l] & (std::uint64_t{1} << j)) == 0) continue;
        for (const auto& e : at.table().at(l, j).entries()) {
          if (e.id == nn.id()) continue;
          const TapestryNode* filler = reg_.find(e.id);
          if (filler == nullptr || !filler->alive) continue;
          fillers.emplace_back(l, e.id);
          watch[l] &= ~(std::uint64_t{1} << j);  // found before forwarding
          break;
        }
      }
    }
  }
  for (const auto& [l, id] : fillers) {
    trace.hop(reg_.distance(at.id(), nn.id()));  // the report message
    if (TapestryNode* filler = reg_.find(id); filler != nullptr &&
                                              filler->alive)
      link(nn, l, *filler, locks);
  }
}

void MaintenanceEngine::pin(TapestryNode& at, TapestryNode& nn,
                            unsigned alpha, unsigned hole_digit,
                            const NodeLockTable* locks) {
  const auto g = maybe_lock(locks, at.id(), nn.id());
  at.table().pin(alpha, hole_digit, nn.id(), reg_.dist(at, nn));
  nn.table().add_backpointer(alpha, at.id());
}

void MaintenanceEngine::unpin(TapestryNode& at, const NodeId& nn,
                              unsigned alpha, unsigned hole_digit,
                              const NodeLockTable* locks) {
  std::vector<NodeId> evicted;
  {
    const auto g = maybe_lock(locks, at.id());
    at.table().unpin(alpha, hole_digit, nn, evicted);
  }
  for (const NodeId& ev : evicted) sync_backpointer(at, ev, alpha, locks);
}

}  // namespace tap
