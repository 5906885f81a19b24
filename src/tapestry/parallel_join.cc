#include "src/tapestry/parallel_join.h"

#include <algorithm>

namespace tap {

ParallelJoinCoordinator::ParallelJoinCoordinator(Network& net, double jitter)
    : net_(net), jitter_(jitter) {
  TAP_CHECK(jitter >= 0.0, "jitter must be non-negative");
}

double ParallelJoinCoordinator::delay(const NodeId& a, const NodeId& b) {
  double d = net_.distance(a, b);
  if (jitter_ > 0.0) d += net_.rng().uniform(0.0, jitter_);
  // Zero-delay messages still take a scheduling step so ordering stays
  // observable.
  return d > 0.0 ? d : 1e-9;
}

std::vector<ParallelJoinCoordinator::Outcome> ParallelJoinCoordinator::run(
    const std::vector<Request>& requests) {
  TAP_CHECK(!requests.empty(), "no join requests");
  sessions_.clear();
  outcomes_.clear();
  pending_.clear();
  sessions_.resize(requests.size());
  outcomes_.resize(requests.size());
  pending_.resize(requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request req = requests[i];
    net_.events().schedule_at(std::max(req.start_time, net_.events().now()),
                              [this, i, req] { start_join(i, req); });
  }
  net_.events().run();

  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    TAP_CHECK(sessions_[i].multicast_done,
              "a join's multicast never completed");
    outcomes_[i].messages = sessions_[i].trace.messages();
  }
  return outcomes_;
}

void ParallelJoinCoordinator::start_join(std::size_t index,
                                         const Request& req) {
  Session& s = sessions_[index];
  s.index = index;

  NodeId nid = req.id.has_value() ? *req.id : net_.fresh_node_id();

  // 1. Acquire the primary surrogate from the gateway.  If routing lands on
  //    a node that is itself still inserting, bounce to *its* surrogate —
  //    multicasts must start at a core node (§4.4).
  const RouteResult rr = net_.route_to_root(req.gateway, nid, &s.trace);
  NodeId sur = rr.root;
  for (unsigned guard = 0; net_.node(sur).inserting; ++guard) {
    TAP_CHECK(guard < 64, "surrogate bounce chain too long");
    const auto& ps = net_.node(sur).psurrogate;
    TAP_CHECK(ps.has_value(), "inserting node without a surrogate");
    s.trace.hop(net_.distance(sur, *ps));
    sur = *ps;
  }

  TapestryNode& nn = net_.registry().register_node(nid, req.loc);
  nn.inserting = true;
  nn.psurrogate = sur;
  TapestryNode& surrogate = net_.registry().live(sur);
  const unsigned alpha = nid.common_prefix_len(sur);

  s.nn = nid;
  s.surrogate = sur;
  s.alpha = alpha;
  s.hole_digit = nid.digit(alpha);

  Outcome& out = outcomes_[index];
  out.id = nid;
  out.surrogate = sur;
  out.alpha = alpha;
  out.start_time = net_.events().now();

  // 2. Preliminary table copy from the surrogate.
  net_.maintenance().copy_preliminary_table(nn, surrogate, alpha, &s.trace);

  // 3. Watch list: every slot the new node still knows no one for.
  TAP_CHECK(net_.params().id.radix() <= 64,
            "parallel join watch lists require radix <= 64");
  WatchList watch = net_.maintenance().watch_list(nn);

  // 4. Launch the acknowledged multicast at the surrogate.
  deliver_multicast(index, sur, std::nullopt, alpha, std::move(watch));
}

void ParallelJoinCoordinator::deliver_multicast(std::size_t session_idx,
                                                NodeId to,
                                                std::optional<NodeId> parent,
                                                unsigned prefix_len,
                                                WatchList watch) {
  Session& s = sessions_[session_idx];
  const NodeId from = parent.has_value() ? *parent : s.nn;
  const double d = delay(from, to);
  s.trace.hop(net_.distance(from, to));
  net_.events().schedule_in(
      d, [this, session_idx, to, parent, prefix_len,
          watch = std::move(watch)]() mutable {
        handle_multicast(session_idx, to, parent, prefix_len,
                         std::move(watch));
      });
}

void ParallelJoinCoordinator::handle_multicast(std::size_t session_idx,
                                               NodeId at_id,
                                               std::optional<NodeId> parent,
                                               unsigned prefix_len,
                                               WatchList watch) {
  Session& s = sessions_[session_idx];
  TapestryNode& at = net_.node(at_id);

  // Duplicate suppression: a node that already handled this session's
  // multicast just acknowledges so its parent can unblock.
  if (!s.processed.insert(at_id.value()).second) {
    if (parent.has_value()) deliver_ack(session_idx, at_id, *parent);
    else finish_multicast(session_idx);
    return;
  }

  TapestryNode& nn = net_.registry().live(s.nn);

  // Watch list service (Figure 11 line 1).  Fillers reported to the
  // inserter change its table, so its pointer paths are re-checked.
  const auto nn_before = net_.directory().snapshot_pointer_hops(nn);
  net_.maintenance().serve_watch_list(at, nn, watch, s.trace);
  net_.directory().reroute_changed_pointers(nn, nn_before, &s.trace);

  // Pin the inserting node into the slot it fills (§4.4) and adopt it
  // wherever it improves this node's table; both change this node's
  // forward routes, so pointer paths are snapshotted around the pair.
  const auto at_before = net_.directory().snapshot_pointer_hops(at);
  if (s.pinned_at.insert(at_id.value()).second)
    net_.maintenance().pin(at, nn, s.alpha, s.hole_digit);
  net_.maintenance().add_to_table_if_closer(at, nn);
  net_.directory().reroute_changed_pointers(at, at_before, &s.trace);

  // Forwarding targets: the Lemma 4/5 rule shared with the threaded
  // driver (multicast_children, join.cc).
  const std::vector<MulticastChild> children =
      multicast_children(net_.registry(), at, s.nn, prefix_len, s.alpha,
                         s.hole_digit, s.processed);

  // FUNCTION (LINKANDXFERROOT) was applied inline above — link plus
  // pointer transfer; record this node on the α-list exactly once.
  s.visited.push_back(at_id);

  if (children.empty()) {
    release_pin(session_idx, at_id);
    if (parent.has_value()) deliver_ack(session_idx, at_id, *parent);
    else finish_multicast(session_idx);
    return;
  }

  pending_[session_idx][at_id.value()] =
      PendingAcks{children.size(), parent, net_.events().now()};
  for (const MulticastChild& c : children)
    deliver_multicast(session_idx, c.id, at_id, c.prefix_len, watch);
}

void ParallelJoinCoordinator::deliver_ack(std::size_t session_idx, NodeId from,
                                          NodeId to) {
  Session& s = sessions_[session_idx];
  const double d = delay(from, to);
  s.trace.hop(net_.distance(from, to));
  net_.events().schedule_in(
      d, [this, session_idx, to] { handle_ack(session_idx, to); });
}

void ParallelJoinCoordinator::handle_ack(std::size_t session_idx, NodeId at) {
  auto& pmap = pending_[session_idx];
  auto it = pmap.find(at.value());
  TAP_ASSERT_MSG(it != pmap.end(), "ack for a node with no pending state");
  TAP_ASSERT(it->second.remaining > 0);
  if (--it->second.remaining > 0) return;

  const std::optional<NodeId> parent = it->second.parent;
  pmap.erase(it);

  // Subtree fully acknowledged: unlock the pinned pointer (Lemma 4) and
  // acknowledge upward.
  release_pin(session_idx, at);
  if (parent.has_value()) deliver_ack(session_idx, at, *parent);
  else finish_multicast(session_idx);
}

void ParallelJoinCoordinator::release_pin(std::size_t session_idx,
                                          const NodeId& at) {
  Session& s = sessions_[session_idx];
  if (s.pinned_at.erase(at.value()) == 0) return;
  net_.maintenance().unpin(net_.node(at), s.nn, s.alpha, s.hole_digit);
}

void ParallelJoinCoordinator::finish_multicast(std::size_t session_idx) {
  Session& s = sessions_[session_idx];
  TAP_ASSERT(!s.multicast_done);
  s.multicast_done = true;
  outcomes_[session_idx].core_time = net_.events().now();

  // Defensive unpin of any leftovers (a leaf start node acks synchronously
  // and may never enter the pending map).
  const std::vector<std::uint64_t> leftovers(s.pinned_at.begin(),
                                             s.pinned_at.end());
  for (const std::uint64_t v : leftovers)
    release_pin(session_idx, NodeId(net_.params().id, v));

  // The α-list is the set of nodes that ran FUNCTION; finish the insertion
  // with the synchronous nearest-neighbor descent (one logical batch of
  // RPCs at this instant).  The descent rewrites the new node's table, so
  // any pointers already transferred to it are re-checked afterwards.
  TapestryNode& nn = net_.registry().live(s.nn);
  const auto before = net_.directory().snapshot_pointer_hops(nn);
  net_.maintenance().acquire_neighbor_table(nn, s.alpha, s.visited, &s.trace);
  net_.directory().reroute_changed_pointers(nn, before, &s.trace);
  nn.inserting = false;
  nn.psurrogate.reset();
  outcomes_[session_idx].done_time = net_.events().now();
}

}  // namespace tap
