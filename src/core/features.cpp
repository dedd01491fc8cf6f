#include "core/features.hpp"

#include <cmath>

#include "util/numeric.hpp"
#include "util/stats.hpp"

namespace metas::core {

namespace {

// Rating value for the absent entries of a one-hot group.  A weak negative
// keeps "not that category" informative without dominating.
constexpr double kOneHotAbsent = -0.2;

// log1p -> z-score -> tanh, mapping a heavy-tailed positive quantity into
// the rating range while preserving ordering.
std::vector<double> squash_numeric(std::vector<double> raw) {
  for (double& v : raw) v = std::log1p(std::max(0.0, v));
  double m = util::mean(raw);
  double s = util::stddev(raw);
  if (s <= 1e-12) s = 1.0;
  for (double& v : raw) v = std::tanh((v - m) / s);
  return raw;
}

}  // namespace

FeatureMatrix encode_features(const MetroContext& ctx,
                              const FeatureEncoderConfig& cfg) {
  const auto& net = ctx.net();
  const std::size_t n = ctx.size();
  FeatureMatrix fm;

  auto add_one_hot_group = [&](const std::string& prefix, int cardinality,
                               auto&& category_of) {
    for (int c = 0; c < cardinality; ++c) {
      std::vector<double> row(n, kOneHotAbsent);
      for (std::size_t i = 0; i < n; ++i)
        if (category_of(net.ases[mac::checked_cast<std::size_t>(ctx.as_at(i))]) == c)
          row[i] = 1.0;
      fm.names.push_back(prefix + std::to_string(c));
      fm.rows.push_back(std::move(row));
    }
  };

  add_one_hot_group("policy_", topology::kNumPeeringPolicies,
                    [](const topology::AsNode& a) {
                      // Unknown PeeringDB records fall into the kNone bucket.
                      return mac::enum_cast<int>(a.features.policy);
                    });
  add_one_hot_group("traffic_", topology::kNumTrafficProfiles,
                    [](const topology::AsNode& a) {
                      return mac::enum_cast<int>(a.features.traffic);
                    });
  if (cfg.include_class)
    add_one_hot_group("class_", topology::kNumAsClasses,
                      [](const topology::AsNode& a) {
                        return mac::enum_cast<int>(a.cls);
                      });
  if (cfg.include_country)
    add_one_hot_group("country_", net.num_countries,
                      [](const topology::AsNode& a) {
                        return a.features.country;
                      });

  auto add_numeric = [&](const std::string& name, auto&& value_of) {
    std::vector<double> raw(n);
    for (std::size_t i = 0; i < n; ++i)
      raw[i] = value_of(net.ases[mac::checked_cast<std::size_t>(ctx.as_at(i))]);
    fm.names.push_back(name);
    fm.rows.push_back(squash_numeric(std::move(raw)));
  };
  add_numeric("eyeballs", [](const topology::AsNode& a) {
    return a.features.eyeballs;
  });
  add_numeric("customer_cone", [](const topology::AsNode& a) {
    return a.features.customer_cone;
  });
  add_numeric("ip_space", [](const topology::AsNode& a) {
    return a.features.ip_space;
  });
  add_numeric("footprint", [](const topology::AsNode& a) {
    return static_cast<double>(a.features.footprint_size);
  });
  return fm;
}

}  // namespace metas::core
