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
  TAP_CHECK(net_.params().id.radix() <= 64,
            "parallel join watch lists require radix <= 64");
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
    const JoinSession& s = sessions_[i];
    TAP_CHECK(s.done, "a join's multicast never completed");
    outcomes_[i].id = s.nn;
    outcomes_[i].surrogate = s.surrogate;
    outcomes_[i].alpha = s.alpha;
    outcomes_[i].messages = s.trace.messages();
  }
  return outcomes_;
}

void ParallelJoinCoordinator::start_join(std::size_t index,
                                         const Request& req) {
  JoinSession& s = sessions_[index];
  s.nn = req.id.has_value() ? *req.id : net_.fresh_node_id();
  outcomes_[index].start_time = net_.events().now();

  // Surrogate (bounced to a core node), registration, preliminary table
  // copy and watch list, then the acknowledged multicast from the
  // surrogate.
  WatchList watch = net_.maintenance().begin_session(s, req.gateway, req.loc);
  deliver_multicast(index, s.surrogate, std::nullopt, s.alpha,
                    std::move(watch));
}

void ParallelJoinCoordinator::deliver_multicast(std::size_t session_idx,
                                                NodeId to,
                                                std::optional<NodeId> parent,
                                                unsigned prefix_len,
                                                WatchList watch) {
  JoinSession& s = sessions_[session_idx];
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
  JoinSession& s = sessions_[session_idx];

  // Duplicate suppression: a node that already handled this session's
  // multicast just acknowledges so its parent can unblock.
  if (!s.processed.insert(at_id.value()).second) {
    if (parent.has_value()) deliver_ack(session_idx, at_id, *parent);
    else finish_multicast(session_idx);
    return;
  }

  const std::vector<MulticastChild> children =
      net_.maintenance().multicast_function(s, net_.node(at_id), prefix_len,
                                            watch);
  if (children.empty()) {
    net_.maintenance().release_pin(s, at_id);
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
  JoinSession& s = sessions_[session_idx];
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
  net_.maintenance().release_pin(sessions_[session_idx], at);
  if (parent.has_value()) deliver_ack(session_idx, at, *parent);
  else finish_multicast(session_idx);
}

void ParallelJoinCoordinator::finish_multicast(std::size_t session_idx) {
  JoinSession& s = sessions_[session_idx];
  TAP_ASSERT(!s.done);
  outcomes_[session_idx].core_time = net_.events().now();
  // The α-list is the set of nodes that ran FUNCTION; the engine releases
  // any leftover pins and finishes the insertion with the synchronous §3
  // descent (one logical batch of RPCs at this instant).
  net_.maintenance().finish_session(s);
  outcomes_[session_idx].done_time = net_.events().now();
}

}  // namespace tap
