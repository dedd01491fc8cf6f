// Compiled with METASCRITIC_TELEMETRY_ENABLED=0 (see tests/CMakeLists.txt):
// proves the MAC_* telemetry macros compile out completely -- no argument
// evaluation, no registry traffic -- so the zero-overhead claim is checkable.
#include <gtest/gtest.h>

#include "util/telemetry.hpp"
#include "util/trace.hpp"

#if METASCRITIC_TELEMETRY_ENABLED
#error "telemetry_disabled_test must be compiled with telemetry off"
#endif

namespace metas {
namespace {

namespace tel = util::telemetry;

TEST(TelemetryDisabled, CompiledReportsFalse) {
  EXPECT_FALSE(tel::compiled());
}

TEST(TelemetryDisabled, MacrosDoNotEvaluateArguments) {
  int evaluations = 0;
  auto probe = [&evaluations] {
    ++evaluations;
    return 1;
  };
  MAC_COUNT("disabled.count");
  MAC_COUNT_N("disabled.count_n", probe());
  MAC_GAUGE_SET("disabled.gauge", probe());
  MAC_HISTOGRAM("disabled.histo", probe());
  MAC_SPAN("disabled.span");
  MAC_TRACE_INSTANT("disabled.instant");
  MAC_TRACE_COUNTER("disabled.trace_counter", probe());
  EXPECT_EQ(evaluations, 0);
}

TEST(TelemetryDisabled, TraceMacrosRecordNothing) {
  // The flight-recorder macros share the kill switch: even with the
  // recorder armed, compiled-out sites must leave no events behind.
  util::trace::Recorder& rec = util::trace::Recorder::instance();
  rec.reset_for_tests();
  rec.start(64);
  MAC_TRACE_INSTANT("disabled.trace_instant");
  MAC_TRACE_COUNTER("disabled.trace_counter", 1.0);
  rec.stop();
  EXPECT_EQ(rec.event_count(), 0u);
  rec.reset_for_tests();
}

TEST(TelemetryDisabled, MacrosRegisterNothing) {
  tel::Registry& reg = tel::Registry::instance();
  std::size_t before = reg.metric_count();
  MAC_COUNT("disabled.never_registered");
  MAC_GAUGE_SET("disabled.never_registered_g", 1.0);
  MAC_HISTOGRAM("disabled.never_registered_h", 1.0);
  { MAC_SPAN("disabled.never_registered_span"); }
  EXPECT_EQ(reg.metric_count(), before);
  for (const auto& s : reg.spans())
    EXPECT_NE(s.name, "disabled.never_registered_span");
}

TEST(TelemetryDisabled, RegistryCoreStillWorks) {
  // Only the macros compile out: a registry a caller drives directly still
  // counts.
  tel::Registry reg;
  tel::Counter& c = reg.counter("disabled.core");
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.metric_count(), 1u);
}

}  // namespace
}  // namespace metas
