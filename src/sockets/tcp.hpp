// Host-based TCP/IP socket model.
//
// This is the baseline transport the paper's framework competes against.
// Every message charges kernel CPU time on *both* hosts (protocol
// processing + payload copies), and the receive path runs in process
// context through the host scheduler — so on a loaded host, replies queue
// behind other runnable work.  That CPU entanglement is exactly what the
// RDMA-based designs eliminate.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "sim/sync.hpp"

namespace dcs::sockets {

using fabric::NodeId;

class TcpNetwork;

/// A received message plus the sender's trace request context (0 when the
/// sender was untracked).  Server loops pass `ctx` to trace::AdoptContext
/// so their processing is charged to the originating request.
struct TcpMessage {
  std::vector<std::byte> payload;
  std::uint64_t ctx = 0;
};

/// A connected, message-oriented TCP stream endpoint pair.
///
/// Each endpoint ("side") is closed separately with close().  The owning
/// TcpNetwork destroys the connection as soon as both sides have closed, so
/// a side must not touch the connection after closing it: send, recv or
/// close on a closed side is a DCS_CHECK failure.  Sending to a peer that
/// has closed is allowed; the message is dropped with the connection.
class TcpConnection {
 public:
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Sends from `self` to the peer. Charges sender kernel CPU + copy, then
  /// the wire. Completes when the payload is handed to the wire.
  sim::Task<void> send(NodeId self, std::vector<std::byte> payload);

  /// Receives the next message at `self`. Charges interrupt wake-up plus
  /// receive-path kernel CPU (schedulable: waits in the run queue under
  /// load) before returning the payload and the sender's request context.
  sim::Task<TcpMessage> recv(NodeId self);

  /// Ends `self`'s side.  Charges no simulated time and sends nothing (the
  /// model has no FIN), so the peer learns of the close only through the
  /// application protocol.  If the peer has already closed, this frees the
  /// connection before returning.
  void close(NodeId self);

  NodeId peer_of(NodeId self) const;

 private:
  friend class TcpNetwork;

  TcpConnection(TcpNetwork& net, NodeId a, NodeId b, std::size_t slot);

  struct Side {
    explicit Side(sim::Engine& eng) : inbound(eng) {}
    sim::Channel<TcpMessage> inbound;  // messages addressed to this side
    bool closed = false;
  };
  Side& side(NodeId node);  // DCS_CHECKs that `node` is an endpoint
  Side& open_side(NodeId self);  // ... and that its side has not closed

  TcpNetwork& net_;
  NodeId a_, b_;
  Side side_a_, side_b_;
  std::size_t slot_;  // index in TcpNetwork::conns_
};

/// Factory for listeners and connections.
class TcpNetwork {
 public:
  explicit TcpNetwork(fabric::Fabric& fab) : fab_(fab) {}
  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  fabric::Fabric& fabric() { return fab_; }
  sim::Engine& engine() { return fab_.engine(); }

  /// Client side: connect to (server, port). Costs one handshake RTT, then
  /// queues the connection in the listener's backlog and returns without
  /// waiting for the server to accept() it; the client may send at once.
  sim::Task<TcpConnection*> connect(NodeId client, NodeId server,
                                    std::uint16_t port);
  /// Server side: waits for the next incoming connection on (node, port).
  sim::Task<TcpConnection*> accept(NodeId node, std::uint16_t port);

  /// Connections with at least one side still open (a connection is freed
  /// when both sides have closed; see TcpConnection::close).
  std::size_t connection_count() const { return conns_.size(); }

 private:
  friend class TcpConnection;

  struct PendingKey {
    NodeId node;
    std::uint16_t port;
    bool operator==(const PendingKey&) const = default;
  };
  struct PendingKeyHash {
    std::size_t operator()(const PendingKey& k) const {
      return (static_cast<std::size_t>(k.node) << 16) | k.port;
    }
  };

  sim::Channel<TcpConnection*>& backlog(NodeId node, std::uint16_t port);
  /// Frees `conn` (both sides closed) by moving the last connection into
  /// its slot.
  void destroy(TcpConnection& conn);

  fabric::Fabric& fab_;
  std::vector<std::unique_ptr<TcpConnection>> conns_;  // the open ones
  std::unordered_map<PendingKey, std::unique_ptr<sim::Channel<TcpConnection*>>,
                     PendingKeyHash>
      backlogs_;
};

}  // namespace dcs::sockets
