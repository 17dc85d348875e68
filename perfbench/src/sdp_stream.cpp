// sdp-stream: the paper's protocol layer.  Three concurrent one-way
// sockets::SdpStreams, one per mode (buffered copy, ZSDP, AZ-SDP), on
// distinct node pairs of a six-node cluster with the default 64 MB nodes.
// Each sender sends a seeded mix of 1 KB-256 KB messages back to back (the
// next send starts when the previous one returns); each receiver drains its
// stream and checks every byte.  Bulk bytes move with RDMA writes and
// reads, and credit or window stalls shape simulated throughput.  The
// simulator moves payload vectors without touching their bytes, so the host
// time of making and checking payloads is the benchmark's own: it is timed
// and left out of the run phase's host time, which is the CPU time of the
// one thread that runs the engine.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "fabric/fabric.hpp"
#include "sockets/sdp.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace perfbench {
namespace {

using namespace dcs;
using fabric::NodeId;
using sockets::SdpMode;

constexpr std::array<SdpMode, 3> kModes = {
    SdpMode::kBufferedCopy, SdpMode::kZeroCopy, SdpMode::kAsyncZeroCopy};
constexpr std::array<const char*, 3> kModeNames = {"bsdp", "zsdp", "azsdp"};
constexpr std::uint64_t kDefaultLength = 30000;  // messages over all streams
// Payloads are made and checked this many at a time: the CPU clock that
// takes that work out of the run phase is read once per batch, not around
// every message, and payload bytes push the simulator's own data out of the
// caches once per batch.
constexpr std::size_t kPayloadBatch = 8;

/// One stream's messages and what its receiver saw.
struct StreamState {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::vector<std::size_t> sizes;
  std::vector<SimNanos> send_start;
  std::vector<SimNanos> latency;  // send start to receive, per message
  std::uint64_t bytes_received = 0;
  SimNanos last_receive = 0;
  Result checks;  // failures only
  /// Checked buffers, all bytes zero, reused by the sender.
  std::vector<std::vector<std::byte>> pool;
  /// Payloads made for the next messages, the next one last.
  std::vector<std::vector<std::byte>> ready;
  /// Received payloads not checked yet, with their message index.
  std::vector<std::pair<std::size_t, std::vector<std::byte>>> received;
  /// Thread CPU ns spent making and checking payloads (not the simulator's).
  std::uint64_t check_ns = 0;
};

std::uint64_t message_word(const StreamState& st, std::size_t i) {
  std::uint64_t s = st.seed ^ (std::uint64_t{st.index} << 56) ^ i;
  return splitmix64(s);
}

/// Message i: a word naming it, a zero body, and the size as trailer.
std::vector<std::byte> make_payload(StreamState& st, std::size_t i) {
  const std::uint64_t word = message_word(st, i);
  const std::uint64_t size = st.sizes[i];
  std::vector<std::byte> p;
  if (!st.pool.empty()) {
    p = std::move(st.pool.back());
    st.pool.pop_back();
  }
  p.resize(size);
  std::memcpy(p.data(), &word, 8);
  std::memcpy(p.data() + size - 8, &size, 8);
  return p;
}

bool payload_ok(const StreamState& st, std::size_t i,
                const std::vector<std::byte>& p) {
  const std::uint64_t word = message_word(st, i);
  const std::uint64_t size = st.sizes[i];
  if (p.size() != size) return false;
  const std::byte* body = p.data() + 8;
  const std::size_t body_len = size - 16;
  // The body is all zero iff its first byte is and it equals itself
  // shifted by one.
  return std::memcmp(p.data(), &word, 8) == 0 &&
         std::memcmp(p.data() + size - 8, &size, 8) == 0 &&
         body[0] == std::byte{0} &&
         std::memcmp(body, body + 1, body_len - 1) == 0;
}

/// Makes the payloads of up to kPayloadBatch messages from message `first`
/// on, the next one last.
void make_batch(StreamState& st, std::size_t first) {
  const std::uint64_t t0 = thread_cpu_ns();
  const std::size_t end = std::min(first + kPayloadBatch, st.sizes.size());
  for (std::size_t i = end; i-- > first;) {
    st.ready.push_back(make_payload(st, i));
  }
  st.check_ns += thread_cpu_ns() - t0;
}

/// Checks the received payloads and returns their buffers, zeroed, to the
/// pool.
void check_batch(StreamState& st) {
  const std::uint64_t t0 = thread_cpu_ns();
  for (auto& [i, p] : st.received) {
    st.checks.check(payload_ok(st, i, p),
                    std::string("sdp: ") + kModeNames[st.index] +
                        " message differs from the bytes sent");
    std::fill_n(p.begin(), 8, std::byte{0});
    std::fill_n(p.end() - 8, 8, std::byte{0});
    st.pool.push_back(std::move(p));
  }
  st.received.clear();
  st.check_ns += thread_cpu_ns() - t0;
}

sim::Task<void> sender(sim::Engine& eng, sockets::SdpStream& stream,
                       StreamState& st, SpanLog* log, bool critical_path) {
  const NodeId src = static_cast<NodeId>(2 * st.index);
  for (std::size_t i = 0; i < st.sizes.size(); ++i) {
    st.send_start[i] = eng.now();
    if (st.ready.empty()) make_batch(st, i);
    auto payload = std::move(st.ready.back());
    st.ready.pop_back();
    std::optional<trace::Request> root;
    if (critical_path) root.emplace("sdp.send", src, i);
    Scope s(log, eng, "sockets", "sdp.send", kModeNames[st.index], src,
            (std::uint64_t{st.index} << 32) | (i + 1), 0);
    co_await stream.send(std::move(payload));
  }
  co_await stream.flush();
}

sim::Task<void> receiver(sim::Engine& eng, sockets::SdpStream& stream,
                         StreamState& st) {
  for (std::size_t i = 0; i < st.sizes.size(); ++i) {
    auto p = co_await stream.recv();
    st.latency[i] = eng.now() - st.send_start[i];
    st.bytes_received += p.size();
    st.received.emplace_back(i, std::move(p));
    if (st.received.size() == kPayloadBatch || i + 1 == st.sizes.size()) {
      check_batch(st);
    }
  }
  st.last_receive = eng.now();
}

}  // namespace

Result run_sdp_stream(const Options& opts, std::uint64_t main_start_ns) {
  Result r;
  const std::uint64_t length = opts.length > 0 ? opts.length : kDefaultLength;
  const std::uint64_t per_stream = (length + kModes.size() - 1) / kModes.size();
  std::map<std::string, double> setup;
  SpanLog spans;
  SpanLog* log = opts.trace ? &spans : nullptr;

  trace::Registry::global().reset();
  sim::Engine eng;
  trace::Tracer tracer(eng);
  if (opts.trace) tracer.install();

  std::unique_ptr<fabric::Fabric> fab;
  {
    SetupTimer t(log, setup, "fabric");
    fab = std::make_unique<fabric::Fabric>(
        eng, fabric::FabricParams{},
        fabric::ClusterSpec{.num_nodes = 2 * kModes.size()});
  }
  std::unique_ptr<verbs::Network> net;
  {
    SetupTimer t(log, setup, "verbs");
    net = std::make_unique<verbs::Network>(*fab);
  }
  std::array<StreamState, kModes.size()> states;
  std::vector<std::unique_ptr<sockets::SdpStream>> streams;
  {
    SetupTimer t(log, setup, "sockets");
    for (std::size_t s = 0; s < kModes.size(); ++s) {
      StreamState& st = states[s];
      st.index = s;
      st.seed = opts.seed;
      Rng rng(opts.seed ^ (0xD1B54A32D192ED03ULL * (s + 1)));
      for (std::uint64_t i = 0; i < per_stream; ++i) {
        // Log-uniform over 1-256 KB, in 64-byte steps.
        const double bytes = std::exp2(10.0 + 8.0 * rng.uniform_double());
        st.sizes.push_back(64 * static_cast<std::size_t>(bytes / 64));
      }
      st.send_start.assign(per_stream, 0);
      st.latency.assign(per_stream, 0);
      streams.push_back(std::make_unique<sockets::SdpStream>(
          *net, static_cast<NodeId>(2 * s), static_cast<NodeId>(2 * s + 1),
          kModes[s]));
    }
  }
  for (std::size_t s = 0; s < kModes.size(); ++s) {
    eng.spawn(sender(eng, *streams[s], states[s], log, opts.trace));
    eng.spawn(receiver(eng, *streams[s], states[s]));
  }

  r.setup_s = host_s_since(main_start_ns);
  // One thread runs the engine, so its CPU time is the run phase's host
  // cost, without the time it waited for a core.
  const std::uint64_t run_start = thread_cpu_ns();
  eng.run();
  const double run_phase_s = thread_cpu_s_since(run_start);
  tracer.uninstall();
  for (const StreamState& st : states) {
    r.check_s += static_cast<double>(st.check_ns) / 1e9;
  }
  r.run_s = run_phase_s - r.check_s;

  std::uint64_t payload_bytes = 0;
  for (std::size_t s = 0; s < kModes.size(); ++s) {
    const StreamState& st = states[s];
    std::uint64_t sent = 0;
    for (const std::size_t n : st.sizes) sent += n;
    payload_bytes += sent;
    r.check(streams[s]->bytes_sent() == sent && st.bytes_received == sent,
            std::string("sdp: ") + kModeNames[s] + " sent " +
                std::to_string(streams[s]->bytes_sent()) + " and received " +
                std::to_string(st.bytes_received) + " of " +
                std::to_string(sent) + " bytes");
    r.failed += st.checks.failed;
    for (const auto& f : st.checks.failures) {
      if (r.failures.size() < 16) r.failures.push_back(f);
    }
    for (const SimNanos ns : st.latency) {
      r.latency_us.add(static_cast<double>(ns) / 1e3);
    }
    r.sim_elapsed = std::max(r.sim_elapsed, st.last_receive);
  }
  r.attempted = per_stream * kModes.size();
  r.host_ops = r.attempted;
  r.sim_ops = r.attempted;
  r.fingerprint = eng.dispatch_fingerprint();

  r.layer_sim["sim.events"] = {static_cast<double>(eng.events_dispatched()),
                               "count"};
  r.layer_host["sim.host_ns_per_event"] = {
      r.run_s * 1e9 / static_cast<double>(eng.events_dispatched()), "ns"};
  r.layer_sim["fabric.wire_bytes"] = {
      static_cast<double>(fab->bytes_transferred()), "bytes"};
  // No simulator cost scales with bytes today; this moves if one starts to.
  r.layer_host["sockets.sdp.host_ns_per_byte"] = {
      r.run_s * 1e9 / static_cast<double>(payload_bytes), "ns/byte"};
  verbs_op_counts(r);
  r.layer_sim["sockets.sdp.credit_stalls"] = {
      counter("sockets.sdp.credit_stalls"), "count"};
  r.layer_sim["sockets.sdp.window_stalls"] = {
      counter("sockets.sdp.window_stalls"), "count"};
  for (const auto& [name, secs] : setup) r.layer_host[name] = {secs, "s"};

  if (opts.trace) {
    const std::vector<const SpanLog*> logs = {&spans};
    for (const char* mode : kModeNames) {
      span_percentiles(r, logs, "sockets", "sdp.send", mode,
                       std::string("sockets.sdp.") + mode + ".send_us");
    }
    critical_path_metrics(r, trace::CriticalPath(tracer), 0);
    if (!opts.spans_out.empty() && !write_spans(opts.spans_out, logs)) {
      r.fail("cannot write " + opts.spans_out);
    }
  }
  return r;
}

}  // namespace perfbench
