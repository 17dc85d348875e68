// Tests for admission control: headroom admission, overload shedding,
// bounded latency for admitted requests, and monitoring-accuracy coupling.
#include <gtest/gtest.h>

#include "datacenter/admission.hpp"

namespace dcs::datacenter {
namespace {

struct AdmWorld {
  sim::Engine eng;
  fabric::Fabric fab;
  verbs::Network net;
  sockets::TcpNetwork tcp;
  monitor::ResourceMonitor mon;
  AdmissionController adm;

  explicit AdmWorld(monitor::MonScheme scheme = monitor::MonScheme::kRdmaSync,
                    AdmissionConfig config = {})
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = 4, .cores_per_node = 1}),
        net(fab),
        tcp(fab),
        mon(net, tcp, 0, {1, 2, 3}, scheme),
        adm(net, mon, config) {
    mon.start();
  }
};

TEST(AdmissionTest, LightLoadFullyAdmitted) {
  AdmWorld w;
  int served = 0;
  w.eng.spawn([](AdmWorld& world, int& ok) -> sim::Task<void> {
    for (int i = 0; i < 30; ++i) {
      const bool admitted = co_await world.adm.offer(microseconds(200), 1024);
      if (admitted) ++ok;
      co_await world.eng.delay(milliseconds(1));
    }
  }(w, served));
  w.eng.run();
  EXPECT_EQ(served, 30);
  EXPECT_EQ(w.adm.stats().dropped, 0u);
}

TEST(AdmissionTest, OverloadShedsInsteadOfQueueing) {
  AdmWorld w(monitor::MonScheme::kRdmaSync,
             {.max_load_per_node = 1.5, .retry_backoff = microseconds(200),
              .max_retries = 1});
  // Offered load far beyond capacity: 3 nodes x 1 core vs 8 closed-loop
  // sessions issuing 2 ms requests back to back.
  int served = 0, refused = 0;
  for (int c = 0; c < 8; ++c) {
    w.eng.spawn([](AdmWorld& world, int& ok, int& no) -> sim::Task<void> {
      for (int i = 0; i < 30; ++i) {
        const bool admitted = co_await world.adm.offer(milliseconds(2), 1024);
        if (admitted) {
          ++ok;
        } else {
          ++no;
        }
        co_await world.eng.delay(microseconds(50));
      }
    }(w, served, refused));
  }
  w.eng.run_until(seconds(2));
  EXPECT_GT(refused, 0) << "overload must shed";
  EXPECT_GT(served, 0) << "but not shed everything";
  EXPECT_EQ(served + refused, 240);
}

TEST(AdmissionTest, AdmittedLatencyBoundedUnderOverload) {
  // The point of admission control: requests that get in stay fast.
  AdmWorld w(monitor::MonScheme::kRdmaSync, {.max_load_per_node = 3.0});
  for (int c = 0; c < 10; ++c) {
    w.eng.spawn([](AdmWorld& world) -> sim::Task<void> {
      for (int i = 0; i < 40; ++i) {
        (void)co_await world.adm.offer(milliseconds(1), 1024);
        co_await world.eng.delay(microseconds(100));
      }
    }(w));
  }
  w.eng.run_until(seconds(2));
  const auto& stats = w.adm.stats();
  ASSERT_GT(stats.admitted, 0u);
  // Each admitted request runs ~1 ms with at most ~3 queued ahead per node
  // (plus round-robin slices): p95 must stay within a small multiple.
  EXPECT_LT(stats.admitted_latency_us.percentile(95), 10000.0);
}

TEST(AdmissionTest, DropsCountedAfterRetriesExhausted) {
  AdmWorld w(monitor::MonScheme::kRdmaSync,
             {.max_load_per_node = 0.5,  // any running job blocks admission
              .retry_backoff = microseconds(100),
              .max_retries = 2});
  // First wave occupies every node with long jobs; a second wave arrives
  // while they run and must exhaust its retries.
  int served = 0;
  w.eng.spawn([](AdmWorld& world, int& ok) -> sim::Task<void> {
    // Wave 1 starts immediately (spawned, not lazily queued).
    for (int i = 0; i < 3; ++i) {
      world.eng.spawn([](AdmWorld& ww, int& k) -> sim::Task<void> {
        const bool admitted = co_await ww.adm.offer(milliseconds(5), 256);
        if (admitted) ++k;
      }(world, ok));
    }
    co_await world.eng.delay(milliseconds(1));  // wave 2 mid-occupancy
    std::vector<sim::Task<void>> offers;
    for (int i = 0; i < 6; ++i) {
      offers.push_back([](AdmWorld& ww, int& k) -> sim::Task<void> {
        const bool admitted = co_await ww.adm.offer(milliseconds(5), 256);
        if (admitted) ++k;
      }(world, ok));
    }
    co_await world.eng.when_all(std::move(offers));
  }(w, served));
  w.eng.run_until(seconds(1));
  EXPECT_GT(w.adm.stats().dropped, 0u);
  EXPECT_GT(w.adm.stats().rejected, w.adm.stats().dropped)
      << "each drop implies at least max_retries rejections";
}

TEST(AdmissionTest, AccurateMonitorDropsLessThanStaleAtSameLoad) {
  auto run_with = [](monitor::MonScheme scheme) {
    AdmWorld w(scheme, {.max_load_per_node = 2.0,
                        .retry_backoff = microseconds(300),
                        .max_retries = 2});
    for (int c = 0; c < 6; ++c) {
      w.eng.spawn([](AdmWorld& world) -> sim::Task<void> {
        for (int i = 0; i < 50; ++i) {
          (void)co_await world.adm.offer(microseconds(900), 512);
          co_await world.eng.delay(microseconds(600));
        }
      }(w));
    }
    w.eng.run_until(seconds(2));
    return w.adm.stats().drop_rate();
  };
  const double accurate = run_with(monitor::MonScheme::kRdmaSync);
  const double stale = run_with(monitor::MonScheme::kSocketAsync);
  EXPECT_LE(accurate, stale)
      << "stale views mis-admit bursts and then over-reject";
}

}  // namespace
}  // namespace dcs::datacenter
