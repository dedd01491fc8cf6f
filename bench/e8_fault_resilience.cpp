// E8: measurement-plane fault resilience. Sweeps fault intensity
// (none / flaky / storm) with the resilience layer on and off. Every
// configuration runs the same fixed-target measurement campaign at the first
// focus metro, so the achieved row fill is directly comparable; link quality
// is scored with a post-hoc completion like the Table-2 baselines.
//
// Expected shape: with resilience on, the flaky profile retains >= 90% of
// the fault-free row fill; with resilience off, fill degrades with fault
// intensity and probes are wasted on sidelined VPs.
#include "bench/common.hpp"

using namespace metas;

namespace {

struct ResilienceRow {
  std::string profile;
  bool resilient = false;
  double fill_fraction = 0.0;
  double precision = 0.0, recall = 0.0, f = 0.0;
  std::size_t traces = 0;
  std::size_t faulted = 0;
  std::size_t retries = 0;
  std::size_t requeues = 0;
  std::size_t quarantined = 0;
  std::size_t dead = 0;
};

ResilienceRow run_config(const std::string& label,
                         const traceroute::FaultProfile& faults,
                         bool resilient, int fill_target, std::size_t budget,
                         std::uint64_t seed) {
  eval::WorldConfig wc = bench::bench_world_config(seed);
  wc.faults = faults;
  wc.resilience = resilient;
  eval::World w = eval::build_world(wc);

  topology::MetroId metro = w.focus_metros.front();
  core::MetroContext ctx(w.net, metro);
  core::ProbabilityMatrix pm(ctx, *w.ms, nullptr);
  core::SchedulerConfig sc;
  sc.seed = seed + 11;
  core::MeasurementScheduler sched(ctx, *w.ms, pm, sc);
  std::size_t before = w.ms->traceroutes_issued();
  sched.fill_rows_to(fill_target, budget);

  ResilienceRow row;
  row.profile = label;
  row.resilient = resilient;
  row.traces = w.ms->traceroutes_issued() - before;
  const core::DegradationReport& d = sched.degradation();
  row.fill_fraction = d.fill_fraction;
  row.faulted = d.probes_faulted;
  row.retries = d.retries;
  row.requeues = d.requeues;
  row.quarantined = d.quarantined_vps;
  row.dead = d.dead_vps;

  // Post-hoc completion at a statically estimated rank (the Table-2 baseline
  // treatment), scored against the hidden truth.
  const bench::PostHocCompletion c =
      bench::post_hoc_completion(ctx, w.ms->build_matrix(ctx), seed + 12);
  if (!c.ratings) return row;
  auto m = eval::truth_metrics(eval::score_pairs(ctx, *c.ratings),
                               c.threshold);
  row.precision = m.precision;
  row.recall = m.recall;
  row.f = m.f_score;
  return row;
}

}  // namespace

int main() {
  bench::print_header("E8", "fault injection and measurement-plane resilience");
  const std::uint64_t seed = 2024;
  const int fill_target = 6;
  const std::size_t budget = 6000;

  struct Config {
    std::string label;
    traceroute::FaultProfile faults;
    bool resilient;
  };
  std::vector<Config> configs = {
      {"none", traceroute::FaultProfile::none(), true},
      {"flaky", traceroute::FaultProfile::flaky(), true},
      {"flaky", traceroute::FaultProfile::flaky(), false},
      {"storm", traceroute::FaultProfile::storm(), true},
      {"storm", traceroute::FaultProfile::storm(), false},
  };

  std::vector<ResilienceRow> rows;
  for (const Config& c : configs)
    rows.push_back(
        run_config(c.label, c.faults, c.resilient, fill_target, budget, seed));

  double baseline_fill = rows.front().fill_fraction;
  util::Table t({"profile", "resilience", "row fill", "vs fault-free",
                 "precision", "recall", "F", "traces", "faulted", "retries",
                 "requeues", "quarantined", "dead VPs"});
  for (const ResilienceRow& r : rows) {
    double vs = baseline_fill > 0.0 ? r.fill_fraction / baseline_fill : 0.0;
    t.add_row({r.profile, r.resilient ? "on" : "off",
               util::Table::fmt(r.fill_fraction, 3), util::Table::fmt(vs, 3),
               util::Table::fmt(r.precision), util::Table::fmt(r.recall),
               util::Table::fmt(r.f), util::Table::fmt(r.traces),
               util::Table::fmt(r.faulted), util::Table::fmt(r.retries),
               util::Table::fmt(r.requeues), util::Table::fmt(r.quarantined),
               util::Table::fmt(r.dead)});
  }
  t.print(std::cout);
  std::cout << "Expected shape: flaky+resilience retains >=0.90 of the "
               "fault-free row fill; resilience off degrades with intensity.\n";
  return 0;
}
