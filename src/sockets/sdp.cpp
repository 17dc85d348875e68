#include "sockets/sdp.hpp"

#include <algorithm>
#include <memory>

#include "audit/audit.hpp"
#include "trace/trace.hpp"

namespace dcs::sockets {

namespace {
struct SdpMetrics {
  trace::Counter& sends = reg().counter("sockets.sdp.sends");
  trace::Counter& bytes = reg().counter("sockets.sdp.bytes");
  trace::Counter& recvs = reg().counter("sockets.sdp.recvs");
  trace::Counter& credit_stalls = reg().counter("sockets.sdp.credit_stalls");
  trace::Counter& window_stalls = reg().counter("sockets.sdp.window_stalls");
  trace::Distribution& send_latency =
      reg().distribution("sockets.sdp.send_latency_ns");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

SdpMetrics& metrics() { return trace::context_metrics<SdpMetrics>(); }
}  // namespace

const char* to_string(SdpMode mode) {
  switch (mode) {
    case SdpMode::kBufferedCopy: return "SDP";
    case SdpMode::kZeroCopy: return "ZSDP";
    case SdpMode::kAsyncZeroCopy: return "AZ-SDP";
  }
  return "?";
}

SdpStream::SdpStream(verbs::Network& net, NodeId src, NodeId dst, SdpMode mode,
                     SdpConfig config)
    : net_(net),
      src_(src),
      dst_(dst),
      mode_(mode),
      config_(config),
      deliveries_(net.fabric().engine()),
      credits_(net.fabric().engine(), config.num_credits),
      window_(net.fabric().engine(), config.max_outstanding),
      az_drained_(net.fabric().engine()) {
  DCS_CHECK(config_.staging_buffer_bytes > 0);
  DCS_CHECK(config_.num_credits > 0);
  DCS_CHECK(config_.max_outstanding > 0);
}

sim::Task<void> SdpStream::send(std::vector<std::byte> payload) {
  bytes_sent_ += payload.size();
  metrics().sends.add();
  metrics().bytes.add(payload.size());
  DCS_TRACE_SPAN("sockets", "sdp.send", src_, payload.size(),
                 to_string(mode_));
  const SimNanos t0 = net_.fabric().engine().now();
  switch (mode_) {
    case SdpMode::kBufferedCopy:
      co_await send_buffered(std::move(payload));
      break;
    case SdpMode::kZeroCopy:
      co_await send_zero_copy(std::move(payload));
      break;
    case SdpMode::kAsyncZeroCopy:
      co_await send_async_zero_copy(std::move(payload));
      break;
  }
  ++sends_completed_;
  metrics().send_latency.record_ns(net_.fabric().engine().now() - t0);
}

// --- BSDP ---

sim::Task<void> SdpStream::send_buffered(std::vector<std::byte> payload) {
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  const std::size_t chunk = config_.staging_buffer_bytes;
  const std::size_t total = payload.size();
  const std::size_t nchunks =
      std::max<std::size_t>(1, (total + chunk - 1) / chunk);

  auto msg = std::make_shared<std::vector<std::byte>>(std::move(payload));
  std::size_t remaining = total;
  for (std::size_t i = 0; i < nchunks; ++i) {
    const std::size_t this_chunk = std::min(remaining, chunk);
    remaining -= this_chunk;
    const bool last = (i + 1 == nchunks);
    // Each staging buffer needs a credit, whether it carries 1 byte or 8 KB.
    // Credits come back chunk-by-chunk as the receiver copies them out, so
    // messages larger than (credits x buffer) still make progress.
    if (credits_.available() == 0) {
      metrics().credit_stalls.add();
      DCS_LOG("sockets", "sdp.credit_stall", src_, this_chunk, i);
      DCS_TRACE_COST_SPAN(trace::Cost::kCreditStall, "sockets",
                          "sdp.credit_stall", src_, this_chunk);
      co_await credits_.acquire();
    } else {
      co_await credits_.acquire();
    }
    if (auto* a = audit::Auditor::current()) {
      a->credit_change(&credits_, "sdp.credits", -1,
                       static_cast<std::int64_t>(config_.num_credits));
    }
    // Copy user data into the pre-registered staging buffer.
    co_await fab.node(src_).execute(p.copy_time(this_chunk));
    // Push the wire work into the background so successive copies pipeline
    // with transfers — this is the pipelining SDP's credit scheme enables.
    fab.engine().spawn([](SdpStream& self, std::size_t bytes, bool is_last,
                          std::shared_ptr<std::vector<std::byte>> m,
                          std::uint64_t ctx) -> sim::Task<void> {
      co_await self.net_.hca(self.src_).raw_write(self.dst_, bytes);
      Delivery d;
      d.chunk_bytes = bytes;
      d.last_chunk = is_last;
      d.ctx = ctx;
      if (is_last) d.payload = std::move(*m);
      self.deliveries_.push(std::move(d));
    }(*this, this_chunk, last, msg, trace::current_request()));
  }
}

sim::Task<void> SdpStream::return_credit_after_wire() {
  // Credit-return control message rides back over the fabric.
  co_await net_.fabric().wire_transfer(dst_, src_,
                                       fabric::FabricParams::kControlBytes);
  if (auto* a = audit::Auditor::current()) {
    a->credit_change(&credits_, "sdp.credits", +1,
                     static_cast<std::int64_t>(config_.num_credits));
  }
  credits_.release();
}

// --- ZSDP ---

sim::Task<void> SdpStream::send_zero_copy(std::vector<std::byte> payload) {
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  const std::size_t bytes = payload.size();
  // Register the user buffer on the fly (the dominant ZSDP overhead for
  // small messages), then advertise it with a SrcAvail control message.
  co_await fab.node(src_).execute(p.registration_cost(bytes));
  co_await net_.hca(src_).raw_write(dst_, fabric::FabricParams::kControlBytes);
  sim::Event done(fab.engine());
  Delivery d{std::move(payload), &done};
  d.ctx = trace::current_request();
  deliveries_.push(std::move(d));
  // Synchronous semantics: block until the receiver has pulled the data.
  co_await done.wait();
}

// --- AZ-SDP ---

sim::Task<void> SdpStream::send_async_zero_copy(std::vector<std::byte> payload) {
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  // Block only when the window of outstanding protected buffers is full —
  // the moment the paper's design would block an application that touches
  // a still-protected buffer.
  if (window_.available() == 0) {
    metrics().window_stalls.add();
    DCS_LOG("sockets", "sdp.window_stall", src_, payload.size(),
            config_.max_outstanding);
    DCS_TRACE_COST_SPAN(trace::Cost::kCreditStall, "sockets",
                        "sdp.window_stall", src_, payload.size());
    co_await window_.acquire();
  } else {
    co_await window_.acquire();
  }
  if (auto* a = audit::Auditor::current()) {
    a->credit_change(&window_, "sdp.az_window", -1,
                     static_cast<std::int64_t>(config_.max_outstanding));
  }
  // Memory-protect the user buffer and return control immediately.  (The
  // paper's design keeps a registration cache, so steady-state sends pay
  // mprotect, not registration.)
  co_await fab.node(src_).execute(p.mprotect_cost);
  ++az_in_flight_;
  fab.engine().spawn(az_transfer(std::move(payload)));
}

sim::Task<void> SdpStream::az_transfer(std::vector<std::byte> payload) {
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  co_await net_.hca(src_).raw_write(dst_, fabric::FabricParams::kControlBytes);
  sim::Event done(fab.engine());
  Delivery d{std::move(payload), &done};
  d.ctx = trace::current_request();
  deliveries_.push(std::move(d));
  co_await done.wait();
  // Transfer finished: unprotect the buffer.
  co_await fab.node(src_).execute(p.mprotect_cost);
  if (auto* a = audit::Auditor::current()) {
    a->credit_change(&window_, "sdp.az_window", +1,
                     static_cast<std::int64_t>(config_.max_outstanding));
  }
  window_.release();
  if (--az_in_flight_ == 0) az_drained_.set();
}

sim::Task<void> SdpStream::flush() {
  while (az_in_flight_ > 0) {
    az_drained_.reset();
    co_await az_drained_.wait();
  }
}

// --- receive ---

sim::Task<std::vector<std::byte>> SdpStream::recv() {
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  DCS_TRACE_SPAN("sockets", "sdp.recv", dst_, 0, to_string(mode_));
  metrics().recvs.add();
  for (;;) {
    Delivery d = co_await deliveries_.recv();
    // Receiver-side work (rendezvous pull, staging copies) belongs to the
    // sender's request.
    trace::AdoptContext adopted(d.ctx);
    if (d.completion != nullptr) {
      // Zero-copy rendezvous: RDMA-read the advertised buffer straight into
      // user memory, then release the sender.
      co_await net_.hca(dst_).raw_read(src_, d.payload.size());
      d.completion->set();
      co_return std::move(d.payload);
    }
    // Buffered path: copy this chunk out of staging, return its credit.
    co_await fab.node(dst_).execute(p.copy_time(d.chunk_bytes));
    fab.engine().spawn(return_credit_after_wire());
    if (d.last_chunk) co_return std::move(d.payload);
  }
}

}  // namespace dcs::sockets
