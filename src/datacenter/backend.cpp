#include "datacenter/backend.hpp"

#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::datacenter {

BackendService::BackendService(sockets::TcpNetwork& tcp,
                               const DocumentStore& store,
                               std::vector<NodeId> backends,
                               BackendConfig config)
    : tcp_(tcp), store_(store), backends_(std::move(backends)),
      config_(config) {
  DCS_CHECK(!backends_.empty());
}

BackendService::BackendService(sockets::TcpNetwork& tcp, verbs::Network& net,
                               const DocumentStore& store,
                               std::vector<NodeId> backends,
                               BackendConfig config)
    : tcp_(tcp), net_(&net), store_(store), backends_(std::move(backends)),
      config_(config) {
  DCS_CHECK(!backends_.empty());
  DCS_CHECK_MSG(config_.transport != BackendTransport::kSdp || net_ != nullptr,
                "SDP transport needs a verbs network");
}

void BackendService::start() {
  for (const NodeId node : backends_) {
    if (config_.transport == BackendTransport::kSdp) {
      tcp_.engine().spawn(sdp_daemon(node));
    } else {
      tcp_.engine().spawn(accept_loop(node));
    }
    tcp_.fabric().node(node).add_service_threads(1);
  }
}

sim::Task<void> BackendService::accept_loop(NodeId node) {
  for (;;) {
    sockets::TcpConnection* conn = co_await tcp_.accept(node, config_.port);
    tcp_.engine().spawn(session(node, conn));
  }
}

sim::Task<void> BackendService::session(NodeId node,
                                        sockets::TcpConnection* conn) {
  // One request per connection (HTTP/1.0-style), so abandoned connections
  // do not accumulate parked sessions.
  auto& fab = tcp_.fabric();
  auto request = co_await conn->recv(node);
  // Generation runs in the proxy's request context: under the TCP
  // transport the origin's CPU burn shows up in the request's host-cpu
  // attribution — the entanglement one-sided transports remove.
  trace::AdoptContext adopted(request.ctx);
  const DocId id = verbs::Decoder(request.payload).u32();
  ++requests_served_;
  // Application-tier work: parse, look up, generate the body.
  const auto generate_ns = static_cast<SimNanos>(
      static_cast<double>(store_.doc_bytes(id)) /
      config_.generate_bytes_per_ns);
  co_await fab.node(node).execute(config_.request_cpu + generate_ns);
  co_await conn->send(node, store_.content(id));
  conn->close(node);
}

sim::Task<std::vector<std::byte>> BackendService::fetch(NodeId proxy,
                                                        DocId id) {
  // Round-robin across origin servers; one connection per fetch keeps the
  // miss path honest (real proxies pool connections; the handshake cost is
  // small next to the backend work).
  const NodeId backend = backends_[next_backend_++ % backends_.size()];
  if (config_.transport == BackendTransport::kSdp) {
    co_return co_await fetch_sdp(proxy, id, backend);
  }
  sockets::TcpConnection* conn =
      co_await tcp_.connect(proxy, backend, config_.port);
  co_await conn->send(proxy, verbs::Encoder().u32(id).take());
  auto reply = (co_await conn->recv(proxy)).payload;
  conn->close(proxy);
  co_return reply;
}

namespace {
constexpr std::uint32_t kSdpRequestTag = 0xBE5D0000;
constexpr std::uint32_t kSdpReplyTagBase = 0xBE5E0000;
}  // namespace

sim::Task<std::vector<std::byte>> BackendService::fetch_sdp(NodeId proxy,
                                                            DocId id,
                                                            NodeId backend) {
  // Request rides a verbs send; the body comes back zero-copy: the daemon
  // advertises it (SrcAvail) and the proxy RDMA-reads it into place — no
  // kernel per-message CPU, no payload copies on either host.
  auto& hca = net_->hca(proxy);
  const std::uint32_t reply_tag =
      kSdpReplyTagBase + (next_fetch_tag_++ & 0xFFFF);
  co_await hca.send(backend, kSdpRequestTag,
                    verbs::Encoder().u32(id).u32(reply_tag).take());
  auto avail = co_await hca.recv_reply(reply_tag);  // SrcAvail: body ready
  verbs::Decoder dec(avail.payload);
  const auto bytes = dec.u64();
  co_await hca.raw_read(backend, bytes);  // zero-copy pull
  co_return store_.content(id);
}

sim::Task<void> BackendService::sdp_daemon(NodeId node) {
  auto& fab = tcp_.fabric();
  auto& hca = net_->hca(node);
  for (;;) {
    auto msg = co_await hca.recv(kSdpRequestTag);
    trace::AdoptContext adopted(msg.ctx);
    verbs::Decoder dec(msg.payload);
    const DocId id = dec.u32();
    const std::uint32_t reply_tag = dec.u32();
    ++requests_served_;
    const auto generate_ns = static_cast<SimNanos>(
        static_cast<double>(store_.doc_bytes(id)) /
        config_.generate_bytes_per_ns);
    co_await fab.node(node).execute(config_.request_cpu + generate_ns);
    co_await hca.send(msg.src, reply_tag,
                      verbs::Encoder().u64(store_.doc_bytes(id)).take());
  }
}

}  // namespace dcs::datacenter
