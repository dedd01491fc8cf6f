// Synthetic Internet generator.
//
// Instantiates the generative model the paper's hypothesis posits (§2,
// Appx. B): every AS carries a hidden low-dimensional peering-strategy vector;
// ground-truth peering between two colocated ASes is a thresholded bilinear
// score of their vectors plus policy-dependent offsets and noise; IXP
// route-server users form dense multilateral meshes (rank-1 blocks); and
// customer-provider relationships follow the classic tiered hierarchy.
//
// Publicly observable features (peering policy, traffic profile, eyeballs,
// cone, country, footprint) are *noisy reflections* of the latent state, so
// the hybrid recommender has exactly the kind of partial side information the
// real metAScritic exploits.
#pragma once

#include <cstdint>

#include "topology/internet.hpp"
#include "util/rng.hpp"

namespace metas::topology {

/// Knobs of the synthetic Internet. Defaults produce a medium-scale world
/// (about 800 ASes over 24 metros) suitable for tests; benches scale up.
struct GeneratorConfig {
  std::uint64_t seed = 42;

  // Geography. Total metros must stay <= 64 (footprints are bitmasks).
  int num_continents = 4;
  int countries_per_continent = 3;
  int metros_per_country = 2;
  /// The first `num_focus_metros` metros (spread across continents) receive
  /// boosted AS membership and one IXP each -- these play the role of the
  /// paper's six evaluation metros.
  int num_focus_metros = 6;

  // Population per class.
  int num_tier1 = 10;
  int num_tier2 = 24;
  int num_hypergiant = 12;
  int num_transit = 48;
  int num_large_isp = 56;
  int num_content = 140;
  int num_enterprise = 110;
  int num_stub = 400;

  // Latent model.
  int latent_dim = 10;          // >= 4 + num_continents
  double link_noise = 0.08;     // stddev of the per-pair score noise
  double global_peer_threshold = 1.55;
  double feature_noise = 0.30;  // noise when deriving features from latents
  double policy_known_prob = 0.88;

  // IXP model.
  double ixp_rs_mesh_prob = 0.95;  // link prob between route-server users

  int total_ases() const {
    return num_tier1 + num_tier2 + num_hypergiant + num_transit +
           num_large_isp + num_content + num_enterprise + num_stub;
  }
  int total_metros() const {
    return num_continents * countries_per_continent * metros_per_country;
  }
};

/// Builds a full Internet from the config. Throws std::invalid_argument on
/// inconsistent configs (e.g., > 64 metros or latent_dim too small).
Internet generate_internet(const GeneratorConfig& cfg);

/// The bilinear score underlying ground truth; exposed for controlled
/// experiments and tests. Does not include noise.
double pair_score(const AsNode& a, const AsNode& b, int num_continents);

}  // namespace metas::topology
