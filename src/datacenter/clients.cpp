#include "datacenter/clients.hpp"

#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::datacenter {

ClientFarm::ClientFarm(sockets::TcpNetwork& tcp,
                       std::vector<NodeId> client_nodes,
                       std::vector<NodeId> proxies, const DocumentStore& store,
                       ClientFarmConfig config)
    : tcp_(tcp),
      client_nodes_(std::move(client_nodes)),
      proxies_(std::move(proxies)),
      store_(store),
      config_(config) {
  DCS_CHECK(!client_nodes_.empty());
  DCS_CHECK(!proxies_.empty());
  DCS_CHECK(config_.sessions > 0);
}

sim::Task<void> ClientFarm::run(std::vector<DocId> trace) {
  stats_ = RunStats{};
  stats_.started_at = tcp_.engine().now();

  const std::size_t sessions = std::min(config_.sessions, trace.size());
  std::vector<sim::Task<void>> tasks;
  tasks.reserve(sessions);
  // An empty trace opens no session (and must not divide by zero).
  const std::size_t per =
      sessions == 0 ? 0 : (trace.size() + sessions - 1) / sessions;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::size_t begin = s * per;
    const std::size_t end = std::min(trace.size(), begin + per);
    if (begin >= end) break;
    std::vector<DocId> slice(trace.begin() + static_cast<std::ptrdiff_t>(begin),
                             trace.begin() + static_cast<std::ptrdiff_t>(end));
    tasks.push_back(session(client_nodes_[s % client_nodes_.size()],
                            proxies_[s % proxies_.size()], std::move(slice)));
  }
  co_await tcp_.engine().when_all(std::move(tasks));
  stats_.finished_at = tcp_.engine().now();
}

sim::Task<void> ClientFarm::session(NodeId client, NodeId proxy,
                                    std::vector<DocId> requests) {
  auto& eng = tcp_.engine();
  sockets::TcpConnection* conn =
      co_await tcp_.connect(client, proxy, config_.port);
  for (const DocId id : requests) {
    const auto t0 = eng.now();
    std::vector<std::byte> body;
    {
      // Request root: the critical-path analyzer attributes this window.
      trace::Request req("web.request", client, id);
      co_await conn->send(client, verbs::Encoder().u32(id).take());
      body = (co_await conn->recv(client)).payload;
    }
    stats_.latency_us.add(to_micros(eng.now() - t0));
    ++stats_.completed;
    if (!store_.verify(id, body)) ++stats_.integrity_failures;
  }
  // Empty request ends the keep-alive session at the proxy.
  co_await conn->send(client, {});
  conn->close(client);
}

}  // namespace dcs::datacenter
