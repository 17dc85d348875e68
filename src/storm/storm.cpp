#include "storm/storm.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::storm {

const char* to_string(ControlPlane plane) {
  return plane == ControlPlane::kSockets ? "STORM" : "STORM-DDSS";
}

StormCluster::StormCluster(verbs::Network& net, sockets::TcpNetwork& tcp,
                           ControlPlane plane, NodeId coordinator,
                           NodeId meta_node, std::vector<NodeId> data_nodes,
                           StormConfig config)
    : net_(net),
      tcp_(tcp),
      plane_(plane),
      coordinator_(coordinator),
      meta_(meta_node),
      data_nodes_(std::move(data_nodes)),
      config_(config) {
  DCS_CHECK(!data_nodes_.empty());
}

sim::Task<void> StormCluster::start() {
  DCS_CHECK(!started_);
  started_ = true;
  auto& eng = net_.fabric().engine();
  for (const NodeId n : data_nodes_) {
    eng.spawn(data_daemon(n));
    net_.fabric().node(n).add_service_threads(1);
  }
  if (plane_ == ControlPlane::kSockets) {
    eng.spawn(metadata_service());
    net_.fabric().node(meta_).add_service_threads(1);
    co_return;
  }
  // DDSS build: shared query/progress state hosted on the metadata node.
  ddss_ = std::make_unique<ddss::Ddss>(net_);
  ddss_->start();
  auto client = ddss_->client(coordinator_);
  for (std::size_t i = 0; i < data_nodes_.size() + 1; ++i) {
    state_allocs_.push_back(co_await client.allocate(
        256, ddss::Coherence::kVersion, ddss::Placement::kRemote));
  }
}

sim::Task<void> StormCluster::metadata_service() {
  // Classic user-space catalog/state daemon: every interaction costs a TCP
  // round trip plus schedulable CPU on the metadata host.
  for (;;) {
    auto* conn = co_await tcp_.accept(meta_, config_.meta_port);
    net_.fabric().engine().spawn(
        [](StormCluster& self, sockets::TcpConnection* c) -> sim::Task<void> {
          for (;;) {
            auto req = co_await c->recv(self.meta_);
            co_await self.net_.fabric().node(self.meta_).execute(
                self.config_.meta_service_cpu);
            co_await c->send(self.meta_, verbs::Encoder().u8(1).take());
            (void)req;
          }
        }(*this, conn));
  }
}

sim::Task<void> StormCluster::control_op(NodeId actor) {
  ++control_ops_;
  if (plane_ == ControlPlane::kSockets) {
    auto it = meta_conns_.find(actor);
    if (it == meta_conns_.end()) {
      auto* conn = co_await tcp_.connect(actor, meta_, config_.meta_port);
      it = meta_conns_.emplace(actor, conn).first;
    }
    co_await it->second->send(actor, verbs::Encoder().u32(0xC0).take());
    (void)co_await it->second->recv(actor);
    co_return;
  }
  // DDSS: one-sided put into the actor's state allocation.
  auto client = ddss_->client(actor);
  const std::size_t slot =
      actor == coordinator_
          ? data_nodes_.size()
          : static_cast<std::size_t>(
                std::find(data_nodes_.begin(), data_nodes_.end(), actor) -
                data_nodes_.begin());
  std::vector<std::byte> state(64);
  co_await client.put(state_allocs_.at(slot), state);
}

sim::Task<void> StormCluster::data_daemon(NodeId node) {
  auto& fab = net_.fabric();
  for (;;) {
    auto* conn = co_await tcp_.accept(node, config_.data_port);
    auto query = co_await conn->recv(node);
    // Scan, control ops and result shipping all happen on behalf of the
    // query that arrived in this message.
    trace::AdoptContext adopted(query.ctx);
    verbs::Decoder dec(query.payload);
    const std::uint64_t records = dec.u64();

    // Register this node's participation in the shared query state.
    co_await control_op(node);

    const auto hits = static_cast<std::uint64_t>(
        static_cast<double>(records) * config_.selectivity);
    std::uint64_t scanned = 0;
    std::uint64_t shipped = 0;
    // At least one batch: an empty partition still ends the stream with a
    // final (empty) batch, which the querier waits for.
    do {
      const std::uint64_t batch =
          std::min<std::uint64_t>(config_.batch_records, records - scanned);
      // Scan the batch.
      co_await fab.node(node).execute(batch * config_.per_record_cpu);
      scanned += batch;
      // Publish transfer progress (per-batch shared-state update).
      co_await control_op(node);
      // Ship this batch's matching records.
      const std::uint64_t batch_hits =
          std::min(hits - shipped,
                   static_cast<std::uint64_t>(static_cast<double>(batch) *
                                              config_.selectivity) +
                       1);
      shipped += batch_hits;
      co_await conn->send(
          node, verbs::Encoder().u64(batch_hits).u64(scanned == records).take());
      // Model the result payload on the wire.
      if (batch_hits > 0) {
        co_await fab.tcp_wire_transfer(node, coordinator_,
                                       batch_hits * config_.record_bytes);
      }
    } while (scanned < records);
    conn->close(node);
  }
}

sim::Task<QueryResult> StormCluster::run_query(std::uint64_t total_records) {
  DCS_CHECK_MSG(started_, "StormCluster::start not awaited");
  auto& eng = net_.fabric().engine();
  const auto t0 = eng.now();
  const auto ops0 = control_ops_;

  // Catalog lookup + query registration.
  co_await control_op(coordinator_);
  co_await control_op(coordinator_);

  const std::uint64_t per_node = total_records / data_nodes_.size();
  std::uint64_t remainder = total_records % data_nodes_.size();
  QueryResult result;

  std::vector<sim::Task<void>> partitions;
  partitions.reserve(data_nodes_.size());
  for (const NodeId n : data_nodes_) {
    const std::uint64_t extra = remainder > 0 ? 1 : 0;
    if (remainder > 0) --remainder;
    partitions.push_back([](StormCluster& self, NodeId node,
                            std::uint64_t records,
                            QueryResult& res) -> sim::Task<void> {
      auto* conn =
          co_await self.tcp_.connect(self.coordinator_, node,
                                     self.config_.data_port);
      co_await conn->send(self.coordinator_,
                          verbs::Encoder().u64(records).take());
      for (;;) {
        auto batch = (co_await conn->recv(self.coordinator_)).payload;
        verbs::Decoder dec(batch);
        res.records_returned += dec.u64();
        if (dec.u64() != 0) break;  // final batch flag
      }
      conn->close(self.coordinator_);
      res.records_scanned += records;
    }(*this, n, per_node + extra, result));
  }
  co_await eng.when_all(std::move(partitions));

  // Mark the query complete in the shared state.
  co_await control_op(coordinator_);

  result.elapsed = eng.now() - t0;
  result.control_ops = control_ops_ - ops0;
  co_return result;
}

}  // namespace dcs::storm
