// Traceroute simulation over the ground-truth Internet.
//
// A traceroute's AS path is the Gao-Rexford best path on the complete hidden
// graph.  Each inter-AS hop picks an interconnection metro from the link's
// true metro set: consistently-routing ASes pick hot-potato (the link metro
// geographically nearest the packet's current metro, deterministically),
// while inconsistent ASes (CDNs/clouds/large transits, §3.4) sometimes
// divert through a different metro.  Hops may be unresponsive and
// interconnection geolocation carries error -- the observational noise the
// paper's pipeline has to survive.
#pragma once

#include <vector>

#include "bgp/routing.hpp"
#include "topology/internet.hpp"
#include "traceroute/faults.hpp"
#include "traceroute/vantage_point.hpp"

namespace metas::util::checkpoint {
class Encoder;
class Decoder;
}  // namespace metas::util::checkpoint

namespace metas::traceroute {

/// One AS-level hop of a traceroute.
struct Hop {
  topology::AsId as = topology::kInvalidAs;
  /// True metro of the interconnection entering this AS (-1 for the first hop).
  topology::MetroId true_ingress = -1;
  /// Metro reported by geolocation (-1 when unresponsive or ungeolocatable).
  topology::MetroId observed_ingress = -1;
  bool responsive = true;
};

/// A completed traceroute.
struct TraceResult {
  int vp_id = -1;
  topology::AsId src_as = topology::kInvalidAs;
  topology::MetroId src_metro = -1;
  topology::AsId dst_as = topology::kInvalidAs;
  std::vector<Hop> hops;  // hops[0] is the source AS
  bool reached = false;   // final hop responded
  /// Infrastructure verdict: anything but kOk means the probe produced no
  /// hops (VP offline, platform throttled, or the probe was lost in flight).
  ProbeStatus status = ProbeStatus::kOk;
};

struct TracerouteConfig {
  double geoloc_accuracy = 0.92;        // P(observed ingress == true ingress)
  double inconsistent_divert_prob = 0.45;  // P(inconsistent AS picks random metro)
};

/// Runs simulated traceroutes; owns the ground-truth routing engine.
class TracerouteEngine {
 public:
  TracerouteEngine(const topology::Internet& net, TracerouteConfig cfg = {});
  // routing_ points at the sibling graph_, so a copied or moved engine would
  // route over the source engine's graph.
  TracerouteEngine(const TracerouteEngine&) = delete;
  TracerouteEngine& operator=(const TracerouteEngine&) = delete;
  TracerouteEngine(TracerouteEngine&&) = delete;
  TracerouteEngine& operator=(TracerouteEngine&&) = delete;

  /// Traceroute from a vantage point to a target.
  TraceResult trace(const VantagePoint& vp, const ProbeTarget& tgt,
                    util::Rng& rng);

  /// Number of traceroutes issued so far (the paper's measurement budget).
  /// Probes blocked before launch (VP down / rate-limited) do not count;
  /// probes lost in flight do.
  std::size_t issued() const { return issued_; }

  /// Attaches a fault injector (not owned; may be null).  An inert injector
  /// (profile kNone) leaves trace() bit-identical to the detached engine.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* fault_injector() const { return faults_; }

  bgp::RoutingEngine& routing() { return routing_; }
  const topology::Internet& internet() const { return *net_; }

  /// Checkpoint serialization of the engine's issued count.  The graph
  /// and routing caches are deterministic functions of the Internet and are
  /// rebuilt lazily, so they are not part of the snapshot.
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  topology::MetroId choose_link_metro(const topology::LinkInfo& link,
                                      topology::AsId from,
                                      topology::MetroId current,
                                      util::Rng& rng) const;

  const topology::Internet* net_;  // lint: allow(view-member) -- the World owns the Internet and every engine scoped inside a run of it
  TracerouteConfig cfg_;
  bgp::AsGraph graph_;
  bgp::RoutingEngine routing_;
  FaultInjector* faults_ = nullptr;  // lint: allow(view-member) -- optional collaborator owned by the harness; installed/cleared by set_fault_injector
  std::size_t issued_ = 0;
};

}  // namespace metas::traceroute
