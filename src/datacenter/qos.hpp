// Soft QoS and prioritization for shared data-centers ([4], and named in
// the paper's conclusions among the framework's services).
//
// Each application node runs a QosScheduler: requests are tagged with a
// service class, queued per class, and drained by worker loops under
// weighted deficit round-robin.  A premium class with weight w gets ~w/(Σw)
// of the CPU under overload — a soft guarantee: idle capacity still flows
// to whoever has work.
#pragma once

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "fabric/fabric.hpp"
#include "sim/sync.hpp"

namespace dcs::datacenter {

using fabric::NodeId;

struct QosClassConfig {
  std::string name;
  double weight = 1.0;
};

struct QosClassStats {
  std::uint64_t completed = 0;
  SimNanos cpu_consumed = 0;
  LatencySamples latency_us;
};

class QosScheduler {
 public:
  /// `workers` concurrent request processors on `node`.
  QosScheduler(fabric::Fabric& fab, NodeId node,
               std::vector<QosClassConfig> classes, std::size_t workers = 1);
  QosScheduler(const QosScheduler&) = delete;
  QosScheduler& operator=(const QosScheduler&) = delete;

  /// Spawns the worker loops.  Call once.
  void start();

  /// Enqueues a request of `cls` needing `cpu` work; completes when the
  /// request has been fully processed.
  sim::Task<void> submit(std::size_t cls, SimNanos cpu);

  const QosClassStats& stats(std::size_t cls) const {
    return stats_.at(cls);
  }
  std::size_t queued(std::size_t cls) const {
    return queues_.at(cls)->size();
  }

 private:
  struct Job {
    SimNanos cpu;
    SimNanos enqueued_at;
    sim::Event* done;
  };

  sim::Task<void> worker_loop();
  /// Picks the next class to serve under weighted deficit round-robin.
  std::size_t pick_class();

  fabric::Fabric& fab_;
  NodeId node_;
  std::vector<QosClassConfig> classes_;
  std::size_t workers_;
  std::vector<std::unique_ptr<sim::Channel<Job>>> queues_;
  std::unique_ptr<sim::Semaphore> pending_;  // counts queued jobs
  std::vector<double> deficit_;
  std::size_t rr_cursor_ = 0;
  std::vector<QosClassStats> stats_;
  bool started_ = false;

  static constexpr SimNanos kQuantum = microseconds(500);
};

}  // namespace dcs::datacenter
