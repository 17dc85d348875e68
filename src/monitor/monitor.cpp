#include "monitor/monitor.hpp"

#include <limits>

#include "audit/audit.hpp"
#include "verbs/wire.hpp"

namespace dcs::monitor {

namespace {
constexpr SimNanos kDaemonCpu = microseconds(20);  // /proc read + format
constexpr std::size_t kStatsWireBytes = 64;

/// The kernel rewrites its stats page continuously while monitors RDMA-read
/// it.  Torn snapshots are tolerated by design (monitoring data), so the
/// page is exempt from race checking.
void mark_kernel_page(fabric::Fabric& fab, NodeId t) {
  if (auto* a = audit::Auditor::current()) {
    a->mark_optimistic_range(t, fab.node(t).kernel_page_addr(),
                             KernelStats::kSize);
  }
}

std::vector<std::byte> encode_sample(const KernelStats& stats, SimNanos at) {
  verbs::Encoder enc;
  enc.u64(stats.runnable)
      .u64(stats.threads)
      .u64(stats.busy_ns)
      .u64(stats.mem_used)
      .u64(stats.seq)
      .u64(at);
  return enc.take();
}

Sample decode_sample(std::span<const std::byte> payload) {
  verbs::Decoder dec(payload);
  Sample s;
  s.stats.runnable = dec.u64();
  s.stats.threads = dec.u64();
  s.stats.busy_ns = dec.u64();
  s.stats.mem_used = dec.u64();
  s.stats.seq = dec.u64();
  s.sampled_at = dec.u64();
  return s;
}
}  // namespace

const char* to_string(MonScheme s) {
  switch (s) {
    case MonScheme::kSocketSync: return "Socket-Sync";
    case MonScheme::kSocketAsync: return "Socket-Async";
    case MonScheme::kRdmaSync: return "RDMA-Sync";
    case MonScheme::kRdmaAsync: return "RDMA-Async";
    case MonScheme::kERdmaSync: return "e-RDMA-Sync";
  }
  return "?";
}

ResourceMonitor::ResourceMonitor(verbs::Network& net, sockets::TcpNetwork& tcp,
                                 NodeId frontend, std::vector<NodeId> targets,
                                 MonScheme scheme, MonitorConfig config)
    : net_(net),
      tcp_(tcp),
      frontend_(frontend),
      targets_(std::move(targets)),
      scheme_(scheme),
      config_(config),
      conn_setup_(std::make_unique<sim::Mutex>(net.fabric().engine())) {
  DCS_CHECK(!targets_.empty());
}

void ResourceMonitor::start() {
  DCS_CHECK(!started_);
  started_ = true;
  auto& eng = net_.fabric().engine();
  for (const NodeId t : targets_) {
    switch (scheme_) {
      case MonScheme::kSocketSync:
        eng.spawn(socket_daemon(t));
        net_.fabric().node(t).add_service_threads(1);
        break;
      case MonScheme::kSocketAsync:
        eng.spawn(socket_push_daemon(t));
        net_.fabric().node(t).add_service_threads(1);
        // The front-end dials the push daemon once at startup.
        eng.spawn([](ResourceMonitor& self, NodeId tgt) -> sim::Task<void> {
          (void)co_await self.connection_to(tgt);
        }(*this, t));
        break;
      case MonScheme::kRdmaSync:
      case MonScheme::kERdmaSync:
        // Kernel-assisted: the target registers its kernel page once; no
        // monitoring process exists on the target at all.
        kernel_pages_.emplace(
            t, net_.hca(t).register_region(
                   net_.fabric().node(t).kernel_page_addr(),
                   KernelStats::kSize));
        mark_kernel_page(net_.fabric(), t);
        break;
      case MonScheme::kRdmaAsync:
        kernel_pages_.emplace(
            t, net_.hca(t).register_region(
                   net_.fabric().node(t).kernel_page_addr(),
                   KernelStats::kSize));
        mark_kernel_page(net_.fabric(), t);
        eng.spawn(rdma_poller(t));
        break;
    }
  }
}

sim::Task<sockets::TcpConnection*> ResourceMonitor::connection_to(
    NodeId target) {
  // Serialized so concurrent first queries share one connection.
  co_await conn_setup_->acquire();
  auto it = conns_.find(target);
  if (it == conns_.end()) {
    auto* conn =
        co_await tcp_.connect(frontend_, target, config_.daemon_port);
    it = conns_.emplace(target, conn).first;
  }
  conn_setup_->release();
  co_return it->second;
}

sim::Task<void> ResourceMonitor::socket_daemon(NodeId target) {
  for (;;) {
    auto* conn = co_await tcp_.accept(target, config_.daemon_port);
    net_.fabric().engine().spawn(
        [](ResourceMonitor& self, NodeId tgt,
           sockets::TcpConnection* c) -> sim::Task<void> {
          auto& fab = self.net_.fabric();
          for (;;) {
            (void)co_await c->recv(tgt);  // schedulable: run-queue wait
            co_await fab.node(tgt).execute(kDaemonCpu);
            // The value is read *now*, in daemon process context — under
            // load this instant is already late relative to the request.
            const KernelStats stats = fab.node(tgt).kernel_stats();
            co_await c->send(tgt,
                             encode_sample(stats, fab.engine().now()));
          }
        }(*this, target, conn));
  }
}

sim::Task<void> ResourceMonitor::socket_push_daemon(NodeId target) {
  auto& fab = net_.fabric();
  auto* conn = co_await tcp_.accept(target, config_.daemon_port);
  // Push loop on the target...
  fab.engine().spawn([](ResourceMonitor& self, NodeId tgt,
                        sockets::TcpConnection* c) -> sim::Task<void> {
    auto& fabric = self.net_.fabric();
    for (;;) {
      co_await fabric.engine().delay(self.config_.async_interval);
      co_await fabric.node(tgt).execute(kDaemonCpu);
      const KernelStats stats = fabric.node(tgt).kernel_stats();
      co_await c->send(tgt, encode_sample(stats, fabric.engine().now()));
    }
  }(*this, target, conn));
  // ...and a receive loop on the front-end updating the cached sample.
  for (;;) {
    auto payload = (co_await conn->recv(frontend_)).payload;
    last_sample_[target] = decode_sample(payload);
  }
}

sim::Task<Sample> ResourceMonitor::rdma_read_sample(NodeId target) {
  std::byte img[KernelStats::kSize];
  co_await net_.hca(frontend_).read(kernel_pages_.at(target), 0, img);
  Sample s;
  s.stats = fabric::Node::decode_kernel_page(img);
  s.sampled_at = net_.fabric().engine().now();
  co_return s;
}

sim::Task<void> ResourceMonitor::rdma_poller(NodeId target) {
  auto& eng = net_.fabric().engine();
  for (;;) {
    co_await eng.delay(config_.async_interval);
    last_sample_[target] = co_await rdma_read_sample(target);
  }
}

sim::Task<Sample> ResourceMonitor::query(NodeId target) {
  DCS_CHECK_MSG(started_, "monitor not started");
  ++queries_issued_;
  switch (scheme_) {
    case MonScheme::kSocketSync: {
      auto* conn = co_await connection_to(target);
      co_await conn->send(frontend_, verbs::Encoder().u8(1).take());
      auto reply = (co_await conn->recv(frontend_)).payload;
      co_return decode_sample(reply);
    }
    case MonScheme::kSocketAsync:
    case MonScheme::kRdmaAsync: {
      const auto it = last_sample_.find(target);
      co_return it != last_sample_.end() ? it->second : Sample{};
    }
    case MonScheme::kRdmaSync:
    case MonScheme::kERdmaSync:
      co_return co_await rdma_read_sample(target);
  }
  co_return Sample{};
}

sim::Task<double> ResourceMonitor::load_estimate(NodeId target) {
  Sample s;
  try {
    s = co_await query(target);
  } catch (const verbs::RemoteTimeoutError&) {
    // A dead node attracts no work.
    co_return std::numeric_limits<double>::infinity();
  }
  if (scheme_ != MonScheme::kERdmaSync) {
    co_return static_cast<double>(s.stats.runnable);
  }
  // Enhanced: blend the instantaneous run-queue length with the measured
  // CPU utilization since our previous query of this node.
  double utilization = 0.0;
  const auto prev = prev_query_.find(target);
  if (prev != prev_query_.end() && s.sampled_at > prev->second.sampled_at) {
    const auto dt = s.sampled_at - prev->second.sampled_at;
    const auto busy = s.stats.busy_ns - prev->second.stats.busy_ns;
    const auto cores = net_.fabric().node(target).cores();
    utilization = static_cast<double>(busy) /
                  (static_cast<double>(dt) * static_cast<double>(cores));
  }
  prev_query_[target] = s;
  co_return static_cast<double>(s.stats.runnable) + utilization;
}

// --- MonitoredDispatcher ---

MonitoredDispatcher::MonitoredDispatcher(verbs::Network& net,
                                         ResourceMonitor& monitor)
    : net_(net), monitor_(monitor) {}

sim::Task<void> MonitoredDispatcher::dispatch(SimNanos cpu,
                                              std::size_t reply_bytes) {
  auto& fab = net_.fabric();
  const auto& targets = monitor_.targets();
  const SimNanos t0 = fab.engine().now();

  // Pick the least-loaded target.  The scan starts at a rotating offset so
  // that ties (e.g. an all-idle tier) spread round-robin instead of herding
  // onto the first node.
  const std::size_t offset = rr_fallback_++;
  double best = std::numeric_limits<double>::infinity();
  NodeId chosen = targets[offset % targets.size()];
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const NodeId t = targets[(offset + i) % targets.size()];
    const double load = co_await monitor_.load_estimate(t);
    if (load < best) {
      best = load;
      chosen = t;
    }
  }

  // Ship the request, run it, ship the reply.
  const NodeId frontend = monitor_.frontend();
  co_await fab.tcp_wire_transfer(frontend, chosen, 256);
  co_await fab.node(chosen).execute(cpu);
  co_await fab.tcp_wire_transfer(chosen, frontend, reply_bytes);
  latency_us_.add(to_micros(fab.engine().now() - t0));
  ++completed_;
}

}  // namespace dcs::monitor
