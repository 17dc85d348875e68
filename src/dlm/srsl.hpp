// SRSL — traditional Send/Receive-based Server Locking.
//
// A lock-server process on the home node keeps per-lock state (mode, holder
// count, FIFO wait queue) and grants locks by replying to request messages.
// Every operation costs two-sided messaging plus server CPU, and every
// grant in a cascade is serialized through the server — the baseline the
// paper's one-sided designs beat.
#pragma once

#include <deque>
#include <unordered_map>

#include "dlm/lock_manager.hpp"

namespace dcs::dlm {

class SrslLockManager final : public LockManager {
 public:
  /// The server process runs on `server`; call start() once.
  SrslLockManager(verbs::Network& net, NodeId server);

  void start();

  const char* name() const override { return "SRSL"; }

  std::uint64_t requests_served() const { return requests_served_; }

 private:
  struct Waiter {
    NodeId node;
    LockMode mode;
  };
  struct LockState {
    std::uint32_t shared_holders = 0;
    bool exclusive_held = false;
    NodeId exclusive_holder = 0;
    std::deque<Waiter> queue;
  };

  sim::Task<void> acquire(NodeId self, LockId id, LockMode mode) override;
  sim::Task<void> release(NodeId self, LockId id, LockMode mode) override;
  sim::Task<void> server_loop();
  /// Grants as many queued waiters as the state admits (FIFO, shared batch).
  sim::Task<void> grant_from_queue(LockId id, LockState& st);
  sim::Task<void> send_grant(NodeId to, LockId id);

  NodeId server_;
  bool started_ = false;
  std::unordered_map<LockId, LockState> locks_;
  std::unordered_map<std::uint64_t, LockMode> held_;  // (node,id) -> mode
  std::uint64_t requests_served_ = 0;
};

}  // namespace dcs::dlm
