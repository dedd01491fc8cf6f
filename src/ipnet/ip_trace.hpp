// IP-level traceroute views and the inference steps the real pipeline runs
// on them: bdrmap-style IP-to-AS mapping (with cross-trace border-interface
// correction) and interface geolocation from IXP prefixes and rDNS hints.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ipnet/address_plan.hpp"
#include "traceroute/engine.hpp"

namespace metas::ipnet {

/// One IP-level hop as the prober sees it.
struct IpHop {
  Ip ip = 0;
  bool responsive = false;
  std::string rdns;
};

/// An IP-level traceroute. The first hop is the probe itself.
struct IpTraceResult {
  topology::AsId src_as = topology::kInvalidAs;
  topology::MetroId src_metro = -1;
  topology::AsId dst_as = topology::kInvalidAs;  // known to the prober
  std::vector<IpHop> hops;
};

/// Renders an AS-level simulated trace into its IP-level form using the
/// address plan (each hop shows its ingress interface address).
IpTraceResult to_ip_trace(const traceroute::TraceResult& trace,
                          const AddressPlan& plan);

/// IP-to-AS mapping with bdrmapit-style correction.
///
/// Naive longest-prefix matching mis-attributes border interfaces that are
/// numbered from the neighbor's address space. The mapper aggregates
/// cross-trace evidence: when an interface's naive owner equals the previous
/// hop's owner (the far-side-numbering signature), the following hop's owner
/// and -- for final hops -- the trace's known destination AS vote for the
/// interface's true owner; the majority vote wins.
class BorderMapper {
 public:
  explicit BorderMapper(const PrefixTable& announced) : announced_(&announced) {}

  /// Registers a publicly known interface owner (IXP participant
  /// directories); takes precedence over prefix matching and votes.
  void add_known_interface(Ip ip, topology::AsId owner) {
    known_[ip] = owner;
  }

  /// Accumulates votes from one trace.
  void ingest(const IpTraceResult& trace);

  /// Naive longest-prefix-match owner (kInvalidAs when unknown).
  topology::AsId naive_map(Ip ip) const;
  /// Corrected owner.
  topology::AsId map(Ip ip) const;

  /// Maps a whole trace to an AS path (consecutive duplicates collapsed,
  /// unresponsive hops yield kInvalidAs placeholders).
  std::vector<topology::AsId> as_path(const IpTraceResult& trace) const;

 private:
  const PrefixTable* announced_;  // lint: allow(view-member) -- caller-owned table bound at construction; mappers are scoped inside one pipeline run
  std::unordered_map<Ip, topology::AsId> known_;
  // interface -> (candidate AS -> votes); only for suspicious interfaces.
  std::unordered_map<Ip, std::unordered_map<topology::AsId, int>> votes_;
};

/// Interface geolocation: IXP-prefix membership pins the IXP's metro; rDNS
/// hints of the form "...m<metro>..." are parsed; otherwise unknown.
class InterfaceGeolocator {
 public:
  InterfaceGeolocator(const PrefixTable& ixp_prefixes,
                      const std::vector<topology::Ixp>& ixps)
      : ixp_prefixes_(&ixp_prefixes), ixps_(&ixps) {}

  /// Returns the metro, or -1 when the interface cannot be geolocated.
  topology::MetroId locate(Ip ip, const std::string& rdns) const;

 private:
  const PrefixTable* ixp_prefixes_;  // lint: allow(view-member) -- caller-owned table bound at construction; geolocators are scoped inside one pipeline run
  const std::vector<topology::Ixp>* ixps_;  // lint: allow(view-member) -- views the Internet's IXP list, which outlives every measurement phase
};

}  // namespace metas::ipnet
