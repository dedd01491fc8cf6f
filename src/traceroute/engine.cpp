#include "traceroute/engine.hpp"

#include <stdexcept>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"

namespace metas::traceroute {

using topology::AsId;
using topology::GeoScope;
using topology::MetroId;

TracerouteEngine::TracerouteEngine(const topology::Internet& net,
                                   TracerouteConfig cfg)
    : net_(&net),
      cfg_(cfg),
      graph_(bgp::AsGraph::from_internet(net)),
      routing_(graph_) {}

MetroId TracerouteEngine::choose_link_metro(const topology::LinkInfo& link,
                                            AsId from, MetroId current,
                                            util::Rng& rng) const {
  const auto& metros = link.metros;
  if (metros.empty())
    throw std::logic_error("choose_link_metro: link without metros");
  const topology::AsNode& from_node = net_->ases[mac::checked_cast<std::size_t>(from)];
  if (!from_node.consistent_routing &&
      rng.bernoulli(cfg_.inconsistent_divert_prob)) {
    // Inconsistent AS: intradomain policy steers through an arbitrary
    // interconnection (load balancing / cost, §3.4).
    return rng.pick(metros);
  }
  // Hot-potato: nearest link metro to the packet's current location,
  // deterministic tie-break on metro id.
  MetroId best = metros.front();
  int best_rank = 1 << 20;
  for (MetroId m : metros) {
    int rank = mac::enum_cast<int>(net_->metro_scope(current, m)) * 1024 + m;
    if (rank < best_rank) {
      best_rank = rank;
      best = m;
    }
  }
  MAC_ENSURE(link.present_at(best), "chosen metro ", best,
             " not on the link");
  return best;
}

TraceResult TracerouteEngine::trace(const VantagePoint& vp,
                                    const ProbeTarget& tgt, util::Rng& rng) {
  // VP and target validity: both ends must name real ASes and the VP a real
  // metro, or the simulated probe would index out of the topology.
  MAC_REQUIRE(vp.as >= 0 && mac::checked_cast<std::size_t>(vp.as) < net_->num_ases(),
              "vp.as=", vp.as);
  MAC_REQUIRE(vp.metro >= 0 &&
                  mac::checked_cast<std::size_t>(vp.metro) < net_->metros.size(),
              "vp.metro=", vp.metro);
  MAC_REQUIRE(tgt.as >= 0 && mac::checked_cast<std::size_t>(tgt.as) < net_->num_ases(),
              "tgt.as=", tgt.as);
  MAC_REQUIRE(tgt.responsiveness >= 0.0 && tgt.responsiveness <= 1.0,
              "tgt.responsiveness=", tgt.responsiveness);
  TraceResult res;
  res.vp_id = vp.id;
  res.src_as = vp.as;
  res.src_metro = vp.metro;
  res.dst_as = tgt.as;
  MAC_COUNT("traceroute.probes_attempted");

  // Infrastructure layer first: an offline or throttled VP never launches
  // (no budget spent); a lost probe launches and times out (budget spent).
  // Draws come from the injector's own RNGs, so with no injector -- or an
  // inert one -- the caller's rng stream is untouched.
  if (faults_ != nullptr && faults_->enabled()) {
    ProbeStatus st = faults_->pre_probe(vp.id, vp.metro);
    if (st != ProbeStatus::kOk) {
      MAC_COUNT("traceroute.probes_faulted");
      if (st == ProbeStatus::kLost) {
        ++issued_;
        MAC_COUNT("traceroute.probes_lost");
      } else {
        // kVpDown / kRateLimited: blocked before launch.
        MAC_COUNT("traceroute.probes_blocked");
      }
      res.status = st;
      return res;
    }
  }
  ++issued_;
  MAC_COUNT("traceroute.probes_issued");

  auto path = routing_.path(vp.as, tgt.as);
  if (path.empty()) {
    MAC_COUNT("traceroute.paths_unreachable");
    return res;  // unreachable: no hops at all
  }

  MetroId current = vp.metro;
  Hop first;
  first.as = vp.as;
  first.true_ingress = -1;
  first.observed_ingress = vp.metro;  // the probe knows where it is
  first.responsive = true;
  res.hops.push_back(first);

  const int num_metros = mac::checked_cast<int>(net_->metros.size());
  for (std::size_t k = 1; k < path.size(); ++k) {
    AsId u = path[k - 1];
    AsId v = path[k];
    const topology::LinkInfo* link = net_->find_link(u, v);
    if (link == nullptr)
      throw std::logic_error("TracerouteEngine: path edge without link");
    MetroId ingress = choose_link_metro(*link, u, current, rng);
    current = ingress;

    Hop hop;
    hop.as = v;
    hop.true_ingress = ingress;
    const topology::AsNode& vn = net_->ases[mac::checked_cast<std::size_t>(v)];
    double responsive_p = vn.responsiveness;
    if (k + 1 == path.size()) responsive_p *= tgt.responsiveness;
    hop.responsive = rng.bernoulli(responsive_p);
    if (hop.responsive) {
      if (rng.bernoulli(cfg_.geoloc_accuracy)) {
        hop.observed_ingress = ingress;
      } else if (rng.bernoulli(0.6)) {
        // Typical geolocation error: a *different* nearby metro in the same
        // country (falls through to ungeolocatable when there is none).
        const auto& metro = net_->metros[mac::checked_cast<std::size_t>(ingress)];
        std::vector<MetroId> same_country;
        for (int m = 0; m < num_metros; ++m)
          if (m != ingress &&
              net_->metros[mac::checked_cast<std::size_t>(m)].country == metro.country)
            same_country.push_back(mac::checked_cast<MetroId>(m));
        hop.observed_ingress =
            same_country.empty() ? -1 : rng.pick(same_country);
      } else {
        hop.observed_ingress = -1;  // ungeolocatable interface
      }
    }
    res.hops.push_back(hop);
  }
  res.reached = res.hops.back().responsive;
  MAC_HISTOGRAM("traceroute.path_length", res.hops.size());
  if constexpr (util::telemetry::compiled()) {
    std::size_t unresponsive = 0;
    for (const Hop& h : res.hops)
      if (!h.responsive) ++unresponsive;
    MAC_COUNT_N("traceroute.hops_unresponsive", unresponsive);
  }
#if METASCRITIC_CONTRACTS
  // Hop monotonicity: hops mirror the BGP path one-to-one, starting at the
  // VP and ending at the target, with no repeated AS (paths are loop-free).
  MAC_ENSURE(res.hops.size() == path.size(), "hops=", res.hops.size(),
             " path=", path.size());
  MAC_ENSURE(res.hops.front().as == vp.as && res.hops.back().as == tgt.as);
  for (std::size_t k = 0; k < res.hops.size(); ++k) {
    MAC_ENSURE(res.hops[k].as == path[k], "hop ", k, " diverges from path");
    for (std::size_t l = k + 1; l < res.hops.size(); ++l)
      MAC_ENSURE(res.hops[k].as != res.hops[l].as, "AS ", res.hops[k].as,
                 " repeats at hops ", k, " and ", l);
  }
#endif
  return res;
}

template <class Self, class Ar>
void TracerouteEngine::io(Self& s, Ar& ar) {
  ar(s.issued_);
}

void TracerouteEngine::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void TracerouteEngine::load(util::checkpoint::Decoder& dec) { io(*this, dec); }

}  // namespace metas::traceroute
