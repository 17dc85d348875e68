// E9 — Section 6: credit-based vs packetized flow control.
//
// Paper shape: with 8 KB staging buffers, two 1-byte messages waste 99.98 %
// of a credit each under credit-based flow control; sender-managed
// packetized packing recovers close to an order of magnitude of
// small-message throughput.  Full-buffer messages are equivalent.
#include "common/json.hpp"
#include "common/table.hpp"
#include "obs/harness.hpp"
#include "sockets/flowctl.hpp"

namespace {

using namespace dcs;
using sockets::CreditStream;
using sockets::FlowConfig;
using sockets::PacketizedStream;

/// `count` messages of `msg_bytes` over one flow-controlled stream.
template <typename Stream>
void stream_scenario(obs::Scenario& s, std::size_t msg_bytes, int count) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  Stream stream(net, 0, 1, FlowConfig{});
  stream.start_receiver();
  SimNanos elapsed = 0;
  eng.spawn([](Stream& st, sim::Engine& e, std::size_t m, int n,
               SimNanos& done) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) co_await st.send(m);
    if constexpr (requires { st.flush(); }) co_await st.flush();
    co_await st.quiesce();
    done = e.now();
    e.stop();
  }(stream, eng, msg_bytes, count, elapsed));
  eng.run_until(seconds(1000));
  DCS_CHECK(elapsed > 0);
  const double secs = to_secs(elapsed);
  s.metric("msgs_per_s", count / secs);
  s.metric("MB_per_s",
           static_cast<double>(stream.stats().payload_bytes) / secs / 1e6);
  s.metric("buffer_utilization",
           stream.stats().buffer_utilization(FlowConfig{}.buffer_bytes));
}

const std::vector<std::size_t> kSizes = {64, 256, 1024, 4096, 8192};

void print_table(obs::Harness& h) {
  Table table({"msg size", "credit msgs/s", "packetized msgs/s", "speedup",
               "credit util %", "packetized util %"});
  for (const std::size_t size : kSizes) {
    const int count = size <= 1024 ? 2000 : 500;
    const std::string bytes = "/" + std::to_string(size) + "B";
    const auto credit = h.run("credit" + bytes, [=](obs::Scenario& s) {
      stream_scenario<CreditStream>(s, size, count);
    });
    const auto packed = h.run("packetized" + bytes, [=](obs::Scenario& s) {
      stream_scenario<PacketizedStream>(s, size, count);
    });
    const double credit_rate = credit.at("msgs_per_s");
    const double packed_rate = packed.at("msgs_per_s");
    table.add_row({std::to_string(size) + " B", fmt_fixed(credit_rate, 0),
                   fmt_fixed(packed_rate, 0),
                   fmt_fixed(packed_rate / credit_rate, 1) + "x",
                   fmt_fixed(100 * credit.at("buffer_utilization"), 2),
                   fmt_fixed(100 * packed.at("buffer_utilization"), 2)});
  }
  table.print(
      "Section 6 — credit-based vs packetized flow control "
      "(paper: ~order of magnitude for small messages)");
}

}  // namespace

int main(int argc, char** argv) {
  obs::Harness h("flowctl", Args(argc, argv));
  print_table(h);
  return h.finish();
}
