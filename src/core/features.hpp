// Feature encoding for the hybrid recommender (§3.1, Appx. D.4).
//
// Categorical features (peering policy, traffic profile, AS class, country)
// are one-hot encoded; numeric features (eyeballs, customer cone, address
// space, footprint size) are log-scaled, z-scored over the metro's AS
// universe and squashed into the rating range.  The encoded matrix is
// appended to the connectivity matrix as extra rows/columns whose entries
// are treated as observed ratings with a tunable feature weight.
#pragma once

#include <string>
#include <vector>

#include "core/metro_context.hpp"

namespace metas::core {

/// Dense feature matrix: one row per feature, one column per AS; values are
/// ratings in [-1, 1].
struct FeatureMatrix {
  std::vector<std::string> names;        // per feature row
  std::vector<std::vector<double>> rows; // names.size() x n
  std::size_t count() const { return rows.size(); }
};

struct FeatureEncoderConfig {
  bool include_country = true;
  bool include_class = true;
};

/// Encodes the features of every AS in the metro context.
FeatureMatrix encode_features(const MetroContext& ctx,
                              const FeatureEncoderConfig& cfg = {});

}  // namespace metas::core
