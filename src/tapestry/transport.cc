#include "src/tapestry/transport.h"

#include "src/common/assert.h"
#include "src/sim/metrics.h"

namespace tap {

void Transport::count(const Message& m, std::uint64_t wire_bytes) {
  stats_.messages.add(1);
  stats_.per_kind[static_cast<std::size_t>(m.kind)].add(1);
  metrics::transport_messages_total().inc();
  if (wire_bytes != 0) {
    stats_.bytes.add(wire_bytes);
    metrics::transport_bytes_total().inc(wire_bytes);
  }
}

void DirectTransport::deliver(Message& m) { count(m, 0); }

void LoopbackTransport::deliver(Message& m) {
  // One frame buffer per thread, reused: a synchronous delivery completes
  // on the calling thread (like today's direct calls), so concurrent
  // batch/repair threads never share a buffer.
  thread_local Datagram frame;
  frame.clear();
  encode(m, frame);
  count(m, frame.size());
  decode(frame.data(), frame.size(), m);
}

Transport* default_transport() {
  static DirectTransport t;
  return &t;
}

std::unique_ptr<Transport> make_transport(const TapestryParams& params) {
  switch (params.transport) {
    case TransportKind::kDirect:
      return std::make_unique<DirectTransport>();
    case TransportKind::kLoopback:
      return std::make_unique<LoopbackTransport>();
  }
  TAP_CHECK(false, "unknown TransportKind (valid: direct, loopback)");
  return nullptr;  // unreachable
}

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDirect: return "direct";
    case TransportKind::kLoopback: return "loopback";
  }
  return "unknown";
}

}  // namespace tap
