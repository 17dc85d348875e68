#include "datacenter/webfarm.hpp"

#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::datacenter {

WebFarm::WebFarm(sockets::TcpNetwork& tcp, std::vector<NodeId> proxies,
                 DocHandler handler, WebFarmConfig config)
    : tcp_(tcp),
      proxies_(std::move(proxies)),
      handler_(std::move(handler)),
      config_(config) {
  DCS_CHECK(!proxies_.empty());
  DCS_CHECK(handler_ != nullptr);
}

void WebFarm::start() {
  for (const NodeId node : proxies_) {
    tcp_.engine().spawn(accept_loop(node));
    tcp_.fabric().node(node).add_service_threads(1);
  }
}

sim::Task<void> WebFarm::accept_loop(NodeId node) {
  for (;;) {
    sockets::TcpConnection* conn = co_await tcp_.accept(node, config_.port);
    tcp_.engine().spawn(session(node, conn));
  }
}

sim::Task<void> WebFarm::session(NodeId node, sockets::TcpConnection* conn) {
  // Persistent (keep-alive) connection: one client session drives many
  // requests.  An empty request payload ends the session.
  auto& fab = tcp_.fabric();
  for (;;) {
    auto request = co_await conn->recv(node);
    if (request.payload.empty()) {
      conn->close(node);
      co_return;
    }
    // Serve in the client's causal context: everything the proxy does for
    // this request (parse, handler, response send) is attributed to it.
    trace::AdoptContext adopted(request.ctx);
    const DocId id = verbs::Decoder(request.payload).u32();
    co_await fab.node(node).execute(config_.request_cpu);
    auto body = co_await handler_(node, id);
    ++requests_served_;
    co_await conn->send(node, std::move(body));
  }
}

}  // namespace dcs::datacenter
