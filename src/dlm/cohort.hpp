// dlm::Cohort, the node-local lock cohort: the one gate every RDMA lock in
// this tree puts in front of its remote lock word (dlm::LockManager's three
// schemes and DDSS's per-allocation lock), as ALock puts a local cohort in
// front of one remote queue.
//
// The strands of one node that hold or want one lock form that node's group
// for the lock.  A tenure of the node's hold serves one writer or a set of
// readers.  A reader joins the current read tenure while the node holds the
// lock and no strand waits; otherwise strands wait in FIFO order, so a
// writer is never overtaken by later readers.  Only a tenure's first strand
// takes the remote lock, and only its last one releases it, so a node is in
// a lock's remote queue at most once: the lock protocols address their
// mailboxes by (node, lock) and rely on exactly that.
//
// A tenure, as its strands drive it:
//   co_await enter(id, node, mode)  true: this strand leads and must take
//                                   the remote lock, then call acquired()
//   leave(id, node)                 the last strand out gets the tenure's
//                                   mode: it releases the remote lock, then
//                                   calls finish(), which wakes the next
//                                   waiter to lead the next tenure
// An uncontended tenure schedules no event.  Each group reports release/
// acquire edges on itself to the audit hook, as a semaphore does, so the
// auditor sees one node's strands ordered by their tenures.  A group's
// waiters are a sim::detail::WaitList of the parked Enter awaiters, each
// in its strand's frame and carrying the strand's mode, so a group costs
// its map node and nothing more.
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "fabric/node.hpp"
#include "sim/sync.hpp"

namespace dcs::dlm {

enum class LockMode : std::uint8_t { kShared = 1, kExclusive = 2 };

class Cohort {
  /// One node's strands that hold or want one lock.
  struct Group {
    sim::detail::WaitList waiters;  // Enter awaiters waiting for a tenure
    std::size_t active = 0;         // strands in the current tenure
    bool reading = false;        // the current tenure is a read tenure
    // The node holds the lock and its release has not begun (ownership
    // record); no reader joins a tenure that is letting go.
    bool held = false;
  };

 public:
  explicit Cohort(sim::Engine& eng) : eng_(eng) {}

  /// Awaiter of enter(): parks a strand at the tail of the waiters, as a
  /// semaphore does, unless it leads a new tenure or joins the current
  /// read tenure at once.  Parked, it is the group's wait-list entry and
  /// carries the strand's request mode in its frame.
  struct [[nodiscard]] Enter : sim::detail::ParkAwaiter {
    Group& group;
    bool read;  // a shared request, which may share a read tenure
    bool lead = false;

    bool await_ready() noexcept;
    void await_suspend(std::coroutine_handle<> h) { park(h); }
    // Woken, a strand leads the next tenure, unless it was admitted to a
    // read tenure whose leader already holds the lock.
    bool await_resume() const noexcept {
      unpark();
      return suspended() ? !group.held : lead;
    }
  };

  /// Enters a tenure of `node`'s hold on lock `id`.  Resumes with true
  /// when this strand leads the tenure: it must take the remote lock in
  /// `mode`, then call acquired().  Resumes with false when it joined a
  /// read tenure whose leader already holds the lock.  Bind the result to
  /// a variable: GCC 12 can miscompile a coroutine that awaits this in an
  /// `if` condition, so that its body never runs.
  Enter enter(std::uint64_t id, fabric::NodeId node, LockMode mode) {
    Group& group = groups_[{id, node}];
    return {{group.waiters, &group}, group, mode == LockMode::kShared};
  }
  /// The tenure's leader holds the remote lock.  A read tenure admits the
  /// readers queued behind the leader's acquire.
  void acquired(std::uint64_t id, fabric::NodeId node);
  /// True when `node`'s current tenure of `id` has no other strand.
  bool alone(std::uint64_t id, fabric::NodeId node) const {
    return groups_.at({id, node}).active == 1;
  }
  /// Leaves `node`'s tenure of `id`; aborts unless the node holds the lock.
  /// A strand that leaves others in a read tenure gets nullopt.  The last
  /// strand out gets the tenure's mode and ends the node's hold: it must
  /// release the remote lock, then call finish().
  std::optional<LockMode> leave(std::uint64_t id, fabric::NodeId node);
  /// After the remote release completed: forgets an idle group, or lets
  /// the first waiter lead the node's next tenure.
  void finish(std::uint64_t id, fabric::NodeId node);
  /// Forgets every node's group of `id`, whose lock word is freed.
  /// Returns false if a strand waited for the lock or read under it.
  bool forget(std::uint64_t id);

  /// (lock, node) pairs whose lock a strand holds or waits for.
  std::size_t size() const { return groups_.size(); }

 private:
  sim::Engine& eng_;
  // Keyed by (lock id, node); an entry lives while a strand holds or waits.
  std::map<std::pair<std::uint64_t, fabric::NodeId>, Group> groups_;
};

}  // namespace dcs::dlm
