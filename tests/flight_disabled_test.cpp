// Compiled with DCS_TRACE_DISABLED (see tests/CMakeLists.txt): every
// instrumentation macro must vanish entirely — even with a tracer and a
// flight recorder installed, no record is ever produced, and the macro
// arguments must not be evaluated.
#ifndef DCS_TRACE_DISABLED
#error "this test must be built with DCS_TRACE_DISABLED"
#endif

#include <gtest/gtest.h>

#include <optional>

#include "trace/flight.hpp"
#include "trace/hot.hpp"
#include "trace/trace.hpp"

namespace dcs::trace {
namespace {

[[maybe_unused]] std::uint64_t poison() {
  ADD_FAILURE() << "disabled macro evaluated its arguments";
  return 0;
}

TEST(FlightDisabledTest, MacrosCompileToNothingEvenWhenArmed) {
  sim::Engine eng;
  Tracer tracer(eng);
  tracer.install();
  FlightRecorder fr(eng, {.ring_capacity = 8});
  fr.install();

  DCS_LOG("test", "op", 1, poison(), poison());
  DCS_TRACE_INSTANT("test", "mark", 1, poison());
  DCS_HOT("test.object", poison(), poison());
  std::optional<Span> slot;
  {
    DCS_TRACE_SPAN("test", "span", 1, poison());
    DCS_TRACE_COST_SPAN(Cost::kNic, "test", "cost", 1, poison());
    DCS_TRACE_SPAN_INTO(slot, "test", "into", 1, poison());
  }
  EXPECT_FALSE(slot.has_value());

  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_TRUE(fr.nodes().empty());
  EXPECT_EQ(fr.total_records(1), 0u);

  fr.uninstall();
  tracer.uninstall();
}

TEST(FlightDisabledTest, RecorderApiStillWorksDirectly) {
  // The macros are gone but the recorder itself stays usable: a layer that
  // wants unconditional black-box recording can call it explicitly.
  sim::Engine eng;
  FlightRecorder fr(eng, {.ring_capacity = 2});
  fr.install();
  fr.log("test", "direct", 4, 1, 2);
  EXPECT_EQ(fr.total_records(4), 1u);
  fr.uninstall();
}

}  // namespace
}  // namespace dcs::trace
