#include "eval/topologies.hpp"

#include "util/numeric.hpp"

namespace metas::eval {

using topology::AsId;

bgp::AsGraph build_public_graph(const World& w) {
  bgp::AsGraph g(w.net.num_ases());
  for (std::size_t i = 0; i < w.net.num_ases(); ++i)
    for (AsId p : w.net.providers[i]) g.add_c2p(mac::checked_cast<AsId>(i), p);
  // Sorted-key traversal (R10): adjacency-list order feeds routing
  // tie-breaks downstream; unordered traversal would leak hash-map layout.
  for (std::uint64_t key : w.net.sorted_link_keys()) {
    if (w.net.link_map.at(key).rel != topology::Relationship::kPeerToPeer)
      continue;
    AsId a = mac::checked_cast<AsId>(key & 0xffffffffULL);
    AsId b = mac::checked_cast<AsId>(key >> 32);
    if (w.public_view.contains(a, b)) g.add_peer(a, b);
  }
  return g;
}

std::size_t add_measured_links(bgp::AsGraph& g, const World& w,
                               const core::MetroContext& ctx) {
  std::size_t added = 0;
  for (const auto& [key, ev] : w.ms->evidence().sorted_pairs(ctx)) {
    if (!core::has_direct(*ev)) continue;
    AsId a = mac::checked_cast<AsId>(key & 0xffffffffULL);
    AsId b = mac::checked_cast<AsId>(key >> 32);
    if (g.has_edge(a, b)) continue;
    g.add_peer(a, b);
    ++added;
  }
  return added;
}

std::size_t add_inferred_links(bgp::AsGraph& g, const core::MetroContext& ctx,
                               const linalg::Matrix& ratings, double threshold,
                               const core::EstimatedMatrix* reliable,
                               std::size_t min_row_fill) {
  std::size_t added = 0;
  const int n = mac::checked_cast<int>(ctx.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (ratings(mac::checked_cast<std::size_t>(i), mac::checked_cast<std::size_t>(j)) <
          threshold)
        continue;
      if (reliable != nullptr &&
          (reliable->row_filled(mac::checked_cast<std::size_t>(i)) < min_row_fill ||
           reliable->row_filled(mac::checked_cast<std::size_t>(j)) < min_row_fill))
        continue;
      AsId a = ctx.as_at(mac::checked_cast<std::size_t>(i));
      AsId b = ctx.as_at(mac::checked_cast<std::size_t>(j));
      if (g.has_edge(a, b)) continue;
      g.add_peer(a, b);
      ++added;
    }
  }
  return added;
}

}  // namespace metas::eval
