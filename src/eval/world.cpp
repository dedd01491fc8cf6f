#include "eval/world.hpp"

#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"

namespace metas::eval {

std::vector<topology::MetroId> focus_metro_ids(
    const topology::GeneratorConfig& g) {
  const int M = g.total_metros();
  MAC_REQUIRE(g.num_focus_metros > 0 && g.num_focus_metros <= M,
              "num_focus_metros=", g.num_focus_metros, " total_metros=", M);
  std::vector<topology::MetroId> ids;
  for (int f = 0; f < g.num_focus_metros; ++f)
    ids.push_back(mac::checked_cast<topology::MetroId>(f * M / g.num_focus_metros));
#if METASCRITIC_CONTRACTS
  // Focus metros are distinct and strictly increasing by construction.
  for (std::size_t k = 1; k < ids.size(); ++k)
    MAC_ENSURE(ids[k] > ids[k - 1], "ids[", k - 1, "]=", ids[k - 1], " ids[",
               k, "]=", ids[k]);
#endif
  return ids;
}

World build_world(const WorldConfig& cfg) {
  World w;
  {
    MAC_SPAN("topology.generate");
    w.net = topology::generate_internet(cfg.gen);
  }
  w.focus_metros = focus_metro_ids(cfg.gen);

  util::Rng rng(cfg.seed);
  w.vps = traceroute::place_vantage_points(w.net, rng, cfg.vps);
  w.targets = traceroute::enumerate_targets(w.net, rng);
  w.engine = std::make_unique<traceroute::TracerouteEngine>(w.net, cfg.trace);
  if (cfg.faults.enabled()) {
    w.faults = std::make_unique<traceroute::FaultInjector>(cfg.faults);
    w.engine->set_fault_injector(w.faults.get());
  }
  w.ms = std::make_unique<core::MeasurementSystem>(w.net, *w.engine, w.vps,
                                                   w.targets, cfg.seed + 1);
  w.ms->set_resilience(cfg.resilience);
  w.ms->run_public_archives(cfg.public_archive_traces);

  w.collectors = bgp::place_collectors(w.net, rng);
  if (cfg.compute_public_view) {
    // The traceroute engine routes over the same Internet, and the archives
    // above have already cached nearly every table the view reads.
    MAC_SPAN("bgp.public_view");
    w.public_view = bgp::compute_public_view(w.engine->routing(), w.collectors);
  }
  return w;
}

WorldConfig small_world_config(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.seed = seed;
  cfg.gen.seed = seed;
  cfg.gen.num_continents = 4;
  cfg.gen.countries_per_continent = 2;
  cfg.gen.metros_per_country = 2;
  cfg.gen.num_focus_metros = 4;
  cfg.gen.num_tier1 = 6;
  cfg.gen.num_tier2 = 12;
  cfg.gen.num_hypergiant = 6;
  cfg.gen.num_transit = 24;
  cfg.gen.num_large_isp = 30;
  cfg.gen.num_content = 70;
  cfg.gen.num_enterprise = 60;
  cfg.gen.num_stub = 190;
  cfg.public_archive_traces = 12000;
  return cfg;
}

WorldConfig paper_world_config(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.seed = seed;
  cfg.gen.seed = seed;
  cfg.public_archive_traces = 30000;
  return cfg;
}

}  // namespace metas::eval
