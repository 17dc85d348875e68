#include "sockets/tcp.hpp"

#include <utility>

#include "trace/trace.hpp"

namespace dcs::sockets {

namespace {
constexpr std::size_t kTcpHeaderBytes = 66;  // eth + ip + tcp headers

struct TcpMetrics {
  trace::Counter& sends = reg().counter("sockets.tcp.sends");
  trace::Counter& send_bytes = reg().counter("sockets.tcp.send_bytes");
  trace::Counter& recvs = reg().counter("sockets.tcp.recvs");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

TcpMetrics& metrics() { return trace::context_metrics<TcpMetrics>(); }
}  // namespace

TcpConnection::TcpConnection(TcpNetwork& net, NodeId a, NodeId b,
                             std::size_t slot)
    : net_(net),
      a_(a),
      b_(b),
      side_a_(net.engine()),
      side_b_(net.engine()),
      slot_(slot) {}

NodeId TcpConnection::peer_of(NodeId self) const {
  DCS_CHECK(self == a_ || self == b_);
  return self == a_ ? b_ : a_;
}

TcpConnection::Side& TcpConnection::side(NodeId node) {
  DCS_CHECK(node == a_ || node == b_);
  return node == a_ ? side_a_ : side_b_;
}

TcpConnection::Side& TcpConnection::open_side(NodeId self) {
  Side& s = side(self);
  DCS_CHECK_MSG(!s.closed, "TCP side used after close()");
  return s;
}

void TcpConnection::close(NodeId self) {
  open_side(self).closed = true;
  if (side_a_.closed && side_b_.closed) net_.destroy(*this);  // frees *this
}

sim::Task<void> TcpConnection::send(NodeId self, std::vector<std::byte> payload) {
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  (void)open_side(self);
  const NodeId dst = peer_of(self);
  metrics().sends.add();
  metrics().send_bytes.add(payload.size());
  DCS_TRACE_SPAN("sockets", "tcp.send", self, payload.size());
  // Sender kernel path: user->kernel copy + protocol processing (on-CPU).
  co_await fab.node(self).execute(p.tcp_per_message_cpu +
                                  p.copy_time(payload.size()));
  co_await fab.tcp_wire_transfer(self, dst, payload.size() + kTcpHeaderBytes);
  side(dst).inbound.push(
      TcpMessage{std::move(payload), trace::current_request()});
}

sim::Task<std::vector<std::byte>> TcpConnection::recv(NodeId self) {
  TcpMessage msg = co_await recv_msg(self);
  co_return std::move(msg.payload);
}

sim::Task<TcpMessage> TcpConnection::recv_msg(NodeId self) {
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  TcpMessage msg = co_await open_side(self).inbound.recv();
  metrics().recvs.add();
  DCS_TRACE_SPAN("sockets", "tcp.recv", self, msg.payload.size());
  // The receive-path kernel work belongs to the sender's request even when
  // the caller has not adopted its context yet.
  trace::AdoptContext adopted(msg.ctx);
  // Interrupt + softirq, then process-context receive: copies the payload to
  // user space.  Runs through the scheduler, so it queues behind load.
  {
    DCS_TRACE_COST_SPAN(trace::Cost::kQueueing, "sockets", "tcp.interrupt",
                        self);
    co_await fab.engine().delay(p.tcp_interrupt_latency);
  }
  co_await fab.node(self).execute(p.tcp_per_message_cpu +
                                  p.copy_time(msg.payload.size()));
  co_return msg;
}

sim::Channel<TcpConnection*>& TcpNetwork::backlog(NodeId node,
                                                  std::uint16_t port) {
  const PendingKey key{node, port};
  auto it = backlogs_.find(key);
  if (it == backlogs_.end()) {
    it = backlogs_
             .emplace(key, std::make_unique<sim::Channel<TcpConnection*>>(
                               engine()))
             .first;
  }
  return *it->second;
}

sim::Task<TcpConnection*> TcpNetwork::connect(NodeId client, NodeId server,
                                              std::uint16_t port) {
  const auto& p = fab_.params();
  // SYN / SYN-ACK handshake: one round trip plus kernel work on both ends.
  co_await fab_.node(client).execute(p.tcp_per_message_cpu);
  co_await fab_.tcp_wire_transfer(client, server, kTcpHeaderBytes);
  co_await fab_.node(server).execute(p.tcp_per_message_cpu);
  co_await fab_.tcp_wire_transfer(server, client, kTcpHeaderBytes);

  conns_.push_back(std::unique_ptr<TcpConnection>(
      new TcpConnection(*this, client, server, conns_.size())));
  TcpConnection* conn = conns_.back().get();
  backlog(server, port).push(conn);
  co_return conn;
}

void TcpNetwork::destroy(TcpConnection& conn) {
  const std::size_t slot = conn.slot_;
  DCS_CHECK(slot < conns_.size() && conns_[slot].get() == &conn);
  std::swap(conns_[slot], conns_.back());
  conns_[slot]->slot_ = slot;
  conns_.pop_back();
}

sim::Task<TcpConnection*> TcpNetwork::accept(NodeId node, std::uint16_t port) {
  TcpConnection* conn = co_await backlog(node, port).recv();
  co_return conn;
}

}  // namespace dcs::sockets
