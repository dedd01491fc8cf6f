// World construction shared by tests, examples, and every benchmark: one
// synthetic Internet plus its measurement infrastructure (vantage points,
// targets, traceroute engine, public archives, BGP collectors, public view).
#pragma once

#include <memory>
#include <vector>

#include "bgp/public_view.hpp"
#include "core/measurement_system.hpp"
#include "core/pipeline.hpp"
#include "topology/generator.hpp"
#include "traceroute/engine.hpp"
#include "util/numeric.hpp"

namespace metas::eval {

struct WorldConfig {
  topology::GeneratorConfig gen;
  traceroute::TracerouteConfig trace;
  traceroute::VpPlacementConfig vps;
  /// Infrastructure faults of the measurement substrate.  Default is the
  /// inert profile: a perfectly reliable plane, bit-identical to builds
  /// without fault injection.
  traceroute::FaultProfile faults;
  /// Failover, backoff and quarantine in the measurement plane.
  bool resilience = true;
  std::size_t public_archive_traces = 25000;
  bool compute_public_view = true;
  std::uint64_t seed = 99;
};

/// A fully built simulation world. Move-only (owns engines and caches).
struct World {
  topology::Internet net;
  std::vector<traceroute::VantagePoint> vps;
  std::vector<traceroute::ProbeTarget> targets;
  std::unique_ptr<traceroute::TracerouteEngine> engine;
  /// Fault state machine; null when the profile is inert.
  std::unique_ptr<traceroute::FaultInjector> faults;
  std::unique_ptr<core::MeasurementSystem> ms;
  std::vector<topology::AsId> collectors;
  bgp::LinkSet public_view;
  std::vector<topology::MetroId> focus_metros;

  const topology::MetroTruth& truth_at(topology::MetroId m) const {
    return net.truth.at(mac::checked_cast<std::size_t>(m));
  }
};

/// Builds the world: generates the Internet, places probes and collectors,
/// runs the public traceroute archives, and computes the public BGP view.
World build_world(const WorldConfig& cfg);

/// Metro ids the generator designated as focus metros.
std::vector<topology::MetroId> focus_metro_ids(const topology::GeneratorConfig& g);

/// A small default world configuration used by tests and quick examples
/// (about 400 ASes over 16 metros); benches scale it up.
WorldConfig small_world_config(std::uint64_t seed = 99);
/// The default bench-scale configuration (about 800 ASes over 24 metros).
WorldConfig paper_world_config(std::uint64_t seed = 99);

}  // namespace metas::eval
