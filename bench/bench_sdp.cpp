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

double throughput_mbps(SdpMode mode, std::size_t msg_bytes, int count) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, mode);
  eng.spawn([](SdpStream& s, std::size_t m, int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) {
      co_await s.send(std::vector<std::byte>(m));
    }
    co_await s.flush();
  }(stream, msg_bytes, count));
  eng.spawn([](SdpStream& s, int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) (void)co_await s.recv();
  }(stream, count));
  eng.run();
  return static_cast<double>(msg_bytes) * count / to_secs(eng.now()) / 1e6;
}

const std::vector<std::size_t> kSizes = {1024,  4096,   16384,
                                         65536, 131072, 262144};

void print_table() {
  Table table({"msg size", "SDP (MB/s)", "ZSDP (MB/s)", "AZ-SDP (MB/s)",
               "AZ vs Z"});
  for (const std::size_t size : kSizes) {
    const int count = size >= 65536 ? 40 : 200;
    const double sdp = throughput_mbps(SdpMode::kBufferedCopy, size, count);
    const double zsdp = throughput_mbps(SdpMode::kZeroCopy, size, count);
    const double az = throughput_mbps(SdpMode::kAsyncZeroCopy, size, count);
    table.add_row({std::to_string(size / 1024) + "K", fmt_fixed(sdp, 1),
                   fmt_fixed(zsdp, 1), fmt_fixed(az, 1),
                   fmt_fixed(az / zsdp, 2) + "x"});
  }
  table.print(
      "Section 3 — SDP / ZSDP / AZ-SDP stream throughput "
      "(paper [3]: AZ-SDP up to ~2x over blocking zero-copy)");
}

// [5] "SDP over InfiniBand in clusters: is it beneficial?" — the same
// question at data-center level: proxies fetch documents from the backend
// tier over host-TCP vs the SDP-style verbs transport.
void print_datacenter_table() {
  Table table({"tier transport", "fetch latency (us)",
               "backend comm CPU/fetch (us)"});
  for (const auto transport : {datacenter::BackendTransport::kTcp,
                               datacenter::BackendTransport::kSdp}) {
    sim::Engine eng;
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
    // Generation work is transport-independent: subtract it to isolate the
    // communication CPU.
    const double gen_us = 150.0 + 16384.0 / 0.4 / 1000.0;
    const double cpu_us =
        to_micros(fab.node(3).busy_ns()) / kFetches - gen_us;
    table.add_row(
        {transport == datacenter::BackendTransport::kTcp ? "host TCP"
                                                         : "SDP (verbs)",
         fmt_fixed(to_micros(eng.now()) / kFetches, 1),
         fmt_fixed(cpu_us, 1)});
  }
  table.print(
      "[5] data-center tier transport — per-fetch latency and backend "
      "communication CPU (16 KB documents)");
}

// Harnessed scenarios (docs/BENCHMARKS.md): one fixed stream per SDP mode,
// each message send wrapped in a trace::Request so credit stalls and NIC
// time are attributed per message.  `--trace-out` shows the three modes'
// sends, receives and stall spans side by side, byte-identical run to run
// (docs/OBSERVABILITY.md).
int run_harness(const obs::HarnessOptions& opts) {
  obs::Harness h("sdp", opts);
  for (const auto mode :
       {SdpMode::kBufferedCopy, SdpMode::kZeroCopy, SdpMode::kAsyncZeroCopy}) {
    h.run(std::string("stream/") + to_string(mode),
          [mode](obs::Scenario& s) {
            auto& eng = s.engine();
            fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
            verbs::Network net(fab);
            SdpStream stream(net, 0, 1, mode);
            constexpr int kMsgs = 16;
            constexpr std::size_t kBytes = 32768;
            eng.spawn([](sim::Engine& e, SdpStream& st,
                         obs::Scenario& out) -> sim::Task<void> {
              for (int i = 0; i < kMsgs; ++i) {
                const auto t0 = e.now();
                {
                  trace::Request req("sdp.send", 0,
                                     static_cast<std::uint64_t>(i));
                  co_await st.send(std::vector<std::byte>(kBytes));
                }
                out.latency_ns(static_cast<double>(e.now() - t0));
              }
              co_await st.flush();
            }(eng, stream, s));
            eng.spawn([](SdpStream& st) -> sim::Task<void> {
              for (int i = 0; i < kMsgs; ++i) (void)co_await st.recv();
            }(stream));
            eng.run();
            s.metric("msgs", kMsgs);
            s.metric("msg_bytes", kBytes);
            s.metric("MB_per_s", static_cast<double>(kBytes) * kMsgs /
                                     to_secs(eng.now()) / 1e6);
          });
  }
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = obs::extract_harness_flags(argc, argv);
  obs::reject_unknown_args(argc, argv);
  if (flags.harness_mode()) return run_harness(flags);
  print_table();
  print_datacenter_table();
  return 0;
}
