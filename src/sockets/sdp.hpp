// Sockets Direct Protocol family over the RDMA fabric.
//
// Three variants from the paper's layer 1 (Section 3 / [3,5]):
//   - kBufferedCopy (BSDP): copy-based SDP.  Payload is copied into a
//     pre-registered staging buffer and RDMA-written into the receiver's
//     staging area under credit-based flow control; the receiver copies it
//     out.  Cheap for small messages; copy-bound for large ones.
//   - kZeroCopy (ZSDP): synchronous zero-copy.  The sender registers the
//     user buffer on the fly and advertises it (SrcAvail); the receiver
//     RDMA-reads the payload directly into the destination buffer.  send()
//     blocks until the data has been read (synchronous sockets semantics).
//   - kAsyncZeroCopy (AZ-SDP): the paper's asynchronous zero-copy design.
//     send() memory-protects the user buffer and returns immediately;
//     transfers proceed in the background with up to `max_outstanding`
//     in flight.  The synchronous *interface* is preserved: a send that
//     would exceed the window blocks, exactly like the paper's
//     protect-and-trick scheme when the application touches a busy buffer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/sync.hpp"
#include "verbs/verbs.hpp"

namespace dcs::sockets {

using fabric::NodeId;

enum class SdpMode { kBufferedCopy, kZeroCopy, kAsyncZeroCopy };

const char* to_string(SdpMode mode);

struct SdpConfig {
  std::size_t staging_buffer_bytes = 8192;  // BSDP staging chunk size
  std::size_t num_credits = 16;             // BSDP credits per direction
  std::size_t max_outstanding = 8;          // AZ-SDP window
};

/// One-directional SDP stream from `src` node to `dst` node.
///
/// The paper's SDP is duplex; experiments only exercise one direction at a
/// time, so the public type models a single direction for clarity (open two
/// for duplex traffic).
class SdpStream {
 public:
  SdpStream(verbs::Network& net, NodeId src, NodeId dst, SdpMode mode,
            SdpConfig config = {});
  SdpStream(const SdpStream&) = delete;
  SdpStream& operator=(const SdpStream&) = delete;

  SdpMode mode() const { return mode_; }

  /// Sends `payload` with synchronous sockets semantics: when this returns,
  /// the application may reuse the buffer (BSDP: copied out; ZSDP: remote
  /// read done; AZ-SDP: protected + in flight, window permitting).
  sim::Task<void> send(std::vector<std::byte> payload);

  /// Receives the next in-order payload at the destination.
  sim::Task<std::vector<std::byte>> recv();

  /// Blocks until every outstanding asynchronous transfer has completed
  /// (no-op for the synchronous modes).
  sim::Task<void> flush();

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t sends_completed() const { return sends_completed_; }

 private:
  sim::Task<void> send_buffered(std::vector<std::byte> payload);
  sim::Task<void> send_zero_copy(std::vector<std::byte> payload);
  sim::Task<void> send_async_zero_copy(std::vector<std::byte> payload);
  /// Background half of an AZ-SDP send.
  sim::Task<void> az_transfer(std::vector<std::byte> payload);
  sim::Task<void> return_credit_after_wire();

  verbs::Network& net_;
  NodeId src_, dst_;
  SdpMode mode_;
  SdpConfig config_;

  struct Delivery {
    std::vector<std::byte> payload;     // full message (on last chunk)
    sim::Event* completion = nullptr;   // ZSDP rendezvous: signals the sender
    std::size_t chunk_bytes = 0;        // BSDP: bytes in this staging chunk
    bool last_chunk = true;             // BSDP: message complete
    std::uint64_t ctx = 0;              // sender's trace request context
  };
  sim::Channel<Delivery> deliveries_;
  sim::Semaphore credits_;        // BSDP staging credits
  sim::Semaphore window_;         // AZ-SDP outstanding-send window
  std::size_t az_in_flight_ = 0;
  sim::Event az_drained_;

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t sends_completed_ = 0;
};

}  // namespace dcs::sockets
