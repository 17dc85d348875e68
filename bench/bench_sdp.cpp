// E10 — Section 3: SDP family throughput (buffered-copy SDP vs synchronous
// zero-copy ZSDP vs asynchronous zero-copy AZ-SDP).
//
// Paper shape ([3]): buffered copies win for small messages (registration
// and rendezvous overheads dominate zero-copy); zero-copy wins large;
// AZ-SDP's overlapped transfers beat blocking ZSDP throughout, approaching
// the claimed ~2x at intermediate sizes.
#include "common/json.hpp"
#include "common/table.hpp"
#include "datacenter/backend.hpp"
#include "obs/harness.hpp"
#include "sockets/sdp.hpp"

namespace {

using namespace dcs;
using sockets::SdpMode;
using sockets::SdpStream;

/// One stream: `count` messages of `bytes` from node 0 to node 1, each
/// send wrapped in a trace::Request so credit stalls and NIC time are
/// attributed per message.  Records the stream throughput as "MB_per_s".
void stream_scenario(obs::Scenario& s, SdpMode mode, std::size_t bytes,
                     int count) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, mode);
  eng.spawn([](sim::Engine& e, SdpStream& st, std::size_t m, int n,
               obs::Scenario& out) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) {
      const auto t0 = e.now();
      {
        trace::Request req("sdp.send", 0, static_cast<std::uint64_t>(i));
        co_await st.send(std::vector<std::byte>(m));
      }
      out.latency_ns(static_cast<double>(e.now() - t0));
    }
    co_await st.flush();
  }(eng, stream, bytes, count, s));
  eng.spawn([](SdpStream& st, int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) (void)co_await st.recv();
  }(stream, count));
  eng.run();
  s.metric("msgs", count);
  s.metric("msg_bytes", static_cast<double>(bytes));
  s.metric("MB_per_s",
           static_cast<double>(bytes) * count / to_secs(eng.now()) / 1e6);
}

constexpr SdpMode kModes[] = {SdpMode::kBufferedCopy, SdpMode::kZeroCopy,
                              SdpMode::kAsyncZeroCopy};
const std::vector<std::size_t> kSizes = {1024,  4096,   16384,
                                         65536, 131072, 262144};

void print_table(obs::Harness& h) {
  Table table({"msg size", "SDP (MB/s)", "ZSDP (MB/s)", "AZ-SDP (MB/s)",
               "AZ vs Z"});
  for (const std::size_t size : kSizes) {
    const int count = size >= 65536 ? 40 : 200;
    std::vector<double> mbps;
    for (const SdpMode mode : kModes) {
      const std::string name = std::string("stream/") + to_string(mode) +
                               "/" + std::to_string(size / 1024) + "K";
      mbps.push_back(h.run(name, [=](obs::Scenario& s) {
                        stream_scenario(s, mode, size, count);
                      }).at("MB_per_s"));
    }
    table.add_row({std::to_string(size / 1024) + "K", fmt_fixed(mbps[0], 1),
                   fmt_fixed(mbps[1], 1), fmt_fixed(mbps[2], 1),
                   fmt_fixed(mbps[2] / mbps[1], 2) + "x"});
  }
  table.print(
      "Section 3 — SDP / ZSDP / AZ-SDP stream throughput "
      "(paper [3]: AZ-SDP up to ~2x over blocking zero-copy)");
}

/// 40 document fetches from the backend tier (node 3) over `transport`.
/// Generation work is transport-independent, so it is subtracted from the
/// backend's busy time to isolate the communication CPU.
void tier_scenario(obs::Scenario& s, datacenter::BackendTransport transport) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 4, .cores_per_node = 2});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  datacenter::DocumentStore store({.num_docs = 64, .doc_bytes = 16384});
  datacenter::BackendService backend(tcp, net, store, {3},
                                     {.transport = transport});
  backend.start();
  constexpr int kFetches = 40;
  eng.spawn([](datacenter::BackendService& b) -> sim::Task<void> {
    for (datacenter::DocId d = 0; d < kFetches; ++d) {
      (void)co_await b.fetch(1, d);
    }
  }(backend));
  eng.run();
  const double gen_us = 150.0 + 16384.0 / 0.4 / 1000.0;
  s.metric("fetch_us", to_micros(eng.now()) / kFetches);
  s.metric("backend_comm_cpu_us",
           to_micros(fab.node(3).busy_ns()) / kFetches - gen_us);
}

// [5] "SDP over InfiniBand in clusters: is it beneficial?" — the same
// question at data-center level: proxies fetch documents from the backend
// tier over host-TCP vs the SDP-style verbs transport.  Scenarios
// "tier/host-TCP" and "tier/SDP".
void print_datacenter_table(obs::Harness& h) {
  Table table({"tier transport", "fetch latency (us)",
               "backend comm CPU/fetch (us)"});
  for (const auto transport : {datacenter::BackendTransport::kTcp,
                               datacenter::BackendTransport::kSdp}) {
    const bool tcp = transport == datacenter::BackendTransport::kTcp;
    const auto m = h.run(tcp ? "tier/host-TCP" : "tier/SDP",
                         [transport](obs::Scenario& s) {
                           tier_scenario(s, transport);
                         });
    table.add_row({tcp ? "host TCP" : "SDP (verbs)",
                   fmt_fixed(m.at("fetch_us"), 1),
                   fmt_fixed(m.at("backend_comm_cpu_us"), 1)});
  }
  table.print(
      "[5] data-center tier transport — per-fetch latency and backend "
      "communication CPU (16 KB documents)");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::extract_harness_flags(argc, argv);
  obs::reject_unknown_args(argc, argv);
  obs::reject_unsupported("sdp", opts.batch != 0, "--batch");
  obs::Harness h("sdp", opts);
  // One fixed 32 KB x 16 stream per mode: `--trace-out` shows the three
  // modes' sends, receives and stall spans side by side, byte-identical run
  // to run (docs/OBSERVABILITY.md).
  for (const SdpMode mode : kModes) {
    h.run(std::string("stream/") + to_string(mode), [mode](obs::Scenario& s) {
      stream_scenario(s, mode, 32768, 16);
    });
  }
  print_table(h);
  print_datacenter_table(h);
  return h.finish();
}
