// The simulated Internet: ASes, geography, business relationships, and the
// hidden per-metro ground-truth connectivity matrices T_m.
//
// This is the substrate that stands in for the real Internet the paper
// measures.  Everything downstream (BGP propagation, traceroute simulation,
// the public view, validation sets) reads from this structure; the inference
// pipeline only ever sees it through the measurement interfaces.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "topology/as_node.hpp"
#include "topology/metro.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace metas::topology {

/// Business relationship between two ASes on a link.
enum class Relationship : std::uint8_t {
  kCustomerToProvider,  // a is customer of b
  kPeerToPeer,
};

/// One interdomain link with the metros where it is physically present.
struct LinkInfo {
  Relationship rel = Relationship::kPeerToPeer;
  std::vector<MetroId> metros;  // sorted
  bool present_at(MetroId m) const;
};

/// Key for an unordered AS pair.
inline std::uint64_t pair_key(AsId a, AsId b) {
  auto lo = mac::checked_cast<std::uint32_t>(a < b ? a : b);
  auto hi = mac::checked_cast<std::uint32_t>(a < b ? b : a);
  return (mac::checked_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Dense symmetric 0/1 ground-truth connectivity matrix for one metro,
/// indexed by the metro's local AS ordering.
class MetroTruth {
 public:
  MetroTruth() = default;
  MetroTruth(MetroId metro, std::vector<AsId> ases);

  MetroId metro() const { return metro_; }
  const std::vector<AsId>& ases() const { return ases_; }
  std::size_t size() const { return ases_.size(); }

  /// Local index of an AS, or -1 if not present at the metro.
  int local_index(AsId as) const;

  bool link(std::size_t i, std::size_t j) const {
    MAC_ASSERT(i < ases_.size() && j < ases_.size(), "i=", i, " j=", j,
               " n=", ases_.size());
    return cells_[i * ases_.size() + j] != 0;
  }
  void set_link(std::size_t i, std::size_t j, bool v);

  /// Number of links (upper triangle).
  std::size_t link_count() const;

 private:
  MetroId metro_ = -1;
  std::vector<AsId> ases_;
  std::unordered_map<AsId, int> index_;
  std::vector<std::uint8_t> cells_;
};

/// The full simulated Internet.
struct Internet {
  std::vector<AsNode> ases;      // indexed by AsId
  std::vector<Metro> metros;     // indexed by MetroId
  std::vector<Ixp> ixps;
  int num_countries = 0;
  int num_continents = 0;

  // Business relationships (global).
  std::vector<std::vector<AsId>> providers;  // providers[i] = providers of i
  std::vector<std::vector<AsId>> customers;  // customers[i] = customers of i
  std::vector<std::vector<AsId>> peers;      // peers[i], union over metros

  // All links keyed by unordered pair.
  std::unordered_map<std::uint64_t, LinkInfo> link_map;

  // Customer cones (sorted AS id lists, including the AS itself).
  std::vector<std::vector<AsId>> cones;

  // Hidden ground truth per metro, parallel to `metros`.
  std::vector<MetroTruth> truth;

  std::size_t num_ases() const { return ases.size(); }

  const LinkInfo* find_link(AsId a, AsId b) const;
  bool linked(AsId a, AsId b) const { return find_link(a, b) != nullptr; }
  bool linked_at(AsId a, AsId b, MetroId m) const;

  /// Link-map keys in ascending order: the sanctioned way to traverse
  /// `link_map`, so no consumer depends on unordered iteration order
  /// (tools/lint.py R10).  O(E log E); cache the result when looping.
  std::vector<std::uint64_t> sorted_link_keys() const;

  /// True if `member` is in the customer cone of `owner` (cones include self).
  bool in_cone(AsId owner, AsId member) const;

  /// Geographic scope between two metros.
  GeoScope metro_scope(MetroId a, MetroId b) const;

  /// Recomputes cones and feature fields derived from the graph
  /// (customer_cone size, footprint_size). Called by the generator.
  void finalize_derived_state();
};

/// Computes customer cones over the provider->customer DAG.
std::vector<std::vector<AsId>> compute_customer_cones(
    const std::vector<std::vector<AsId>>& customers);

}  // namespace metas::topology
