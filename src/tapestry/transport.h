// The pluggable transport seam: every inter-node RPC in the overlay is
// funneled through Transport::deliver as a typed wire Message.
//
// The overlay's layers (Router hop delivery, ObjectDirectory pointer
// traffic, MaintenanceEngine multicast/heartbeats, QuorumReplicator
// replica RPCs) never hand each other raw references across a node
// boundary any more: the sender packs the cross-node payload into a
// Message, passes it through the overlay's Transport, and continues
// from the message as delivered: deliver(m) leaves in `m` what the
// receiver observed.  Cost accounting (NodeRegistry::acct) is unchanged
// — the transport decides only how the payload travels, not what it
// costs in the paper's model.
//
// Two implementations, selected by TapestryParams::transport /
// `--transport=` (docs/transport.md):
//
//   DirectTransport    only counts the message — zero serialization,
//                      byte-identical to the pre-transport build on
//                      same-seed runs;
//   LoopbackTransport  encodes the message into a frame, then decodes
//                      the frame back into it — the full serialize/parse
//                      path of a real wire in one process.  Because the
//                      wire format is lossless, results are identical to
//                      direct; the existing conformance/churn/scenario
//                      matrix run under TAP_TRANSPORT=loopback is the
//                      proof.
//
// A socket transport for multi-process overlays slots in behind the
// same interface without touching protocol code (ROADMAP).
//
// Thread-safety: deliver() is called concurrently from batch publish
// walks and threaded repair waves.  Stats count into per-thread cells
// (src/common/thread_cell.h), and the loopback frame buffer is
// thread-local (each simulated delivery completes on the calling
// thread, as today's synchronous calls do).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "src/common/thread_cell.h"
#include "src/tapestry/params.h"
#include "src/tapestry/wire.h"

namespace tap {

/// Lifetime message/byte tallies of one transport instance, per message
/// kind.  Each delivery counts into the calling thread's cells; a read
/// (load() or the implicit conversion) sums them.
struct TransportStats {
  CellCount messages;  ///< deliver() calls completed
  CellCount bytes;     ///< wire bytes encoded (0: direct)
  std::array<CellCount, kWireKindCount> per_kind;

  [[nodiscard]] std::uint64_t kind_count(MessageKind k) const {
    return per_kind[static_cast<std::size_t>(k)].load();
  }
};

/// Abstract wire layer.  deliver(m) moves one message from m.src to
/// m.dst; on return `m` is what the receiver observed, and callers
/// continue from it (for a serializing transport that is the decoded
/// frame, not the fields the sender wrote).
class Transport {
 public:
  virtual ~Transport() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void deliver(Message& m) = 0;
  [[nodiscard]] const TransportStats& stats() const { return stats_; }

 protected:
  void count(const Message& m, std::uint64_t wire_bytes);

  TransportStats stats_;
};

/// Today's calls: the message is handed to the receiver by reference,
/// untouched; deliver() only counts it.  Keeps every same-seed run
/// byte-identical to the pre-transport build.
class DirectTransport final : public Transport {
 public:
  [[nodiscard]] const char* name() const override { return "direct"; }
  void deliver(Message& m) override;
};

/// A real wire boundary inside one process: encode into the thread's
/// frame buffer → bounds-checked decode back into the message.  Lossless,
/// so semantics match DirectTransport exactly.
class LoopbackTransport final : public Transport {
 public:
  [[nodiscard]] const char* name() const override { return "loopback"; }
  void deliver(Message& m) override;
};

/// Shared process-wide DirectTransport: the fallback every layer binds
/// until a Network wires its own (mirrors the bind_repair pattern, so
/// subsystems constructed standalone in tests keep working).
[[nodiscard]] Transport* default_transport();

/// Instantiates the transport selected by params.transport.
/// TAP_CHECKs on an unknown enum value, listing the valid choices.
[[nodiscard]] std::unique_ptr<Transport> make_transport(
    const TapestryParams& params);

/// "direct" / "loopback" — flag values and bench labels.
[[nodiscard]] const char* transport_kind_name(TransportKind kind);

}  // namespace tap
