// Figure 4: CDF of the estimated probability of a targeted traceroute being
// informative, for four trace populations (found-existing, found-non-
// existing, informative, uninformative). The paper's informative set tracks
// the perfect-prediction diagonal with KS distance 0.04.
#include "bench/common.hpp"
#include "util/stats.hpp"

using namespace metas;

namespace {

std::vector<std::pair<double, double>> cdf_points(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::vector<std::pair<double, double>> pts;
  if (xs.empty()) return pts;
  std::size_t step = std::max<std::size_t>(1, xs.size() / 10);
  for (std::size_t i = 0; i < xs.size(); i += step)
    pts.emplace_back(xs[i], static_cast<double>(i + 1) / xs.size());
  pts.emplace_back(xs.back(), 1.0);
  return pts;
}

}  // namespace

int main() {
  bench::print_header("Fig. 4", "calibration of informative-measurement probabilities");
  eval::World w = eval::build_world(bench::bench_world_config());
  auto runs = bench::run_all_focus_metros(w);

  std::vector<double> informative, uninformative, existing, nonexisting;
  for (const auto& run : runs) {
    for (const auto& rec : run.result.measurement_log) {
      if (!rec.ran()) continue;
      if (rec.informative()) informative.push_back(rec.estimated_prob);
      else uninformative.push_back(rec.estimated_prob);
      if (rec.found_existence) existing.push_back(rec.estimated_prob);
      if (rec.found_nonexistence) nonexisting.push_back(rec.estimated_prob);
    }
  }

  std::cout << "Targeted traceroutes: " << informative.size() << " informative, "
            << uninformative.size() << " uninformative ("
            << existing.size() << " found links, " << nonexisting.size()
            << " ruled out links)\n";
  if (!informative.empty())
    bench::print_series("CDF of estimated probability (INFORMATIVE)",
                        cdf_points(informative), "est. prob", "cum. frac");
  if (!existing.empty())
    bench::print_series("CDF (EXISTING)", cdf_points(existing), "est. prob",
                        "cum. frac");
  if (!nonexisting.empty())
    bench::print_series("CDF (NON-EXISTING)", cdf_points(nonexisting),
                        "est. prob", "cum. frac");

  // Calibration statistic: probability-integral-transform-style KS distance
  // of informative traceroutes' estimated probabilities against the
  // diagonal, as the paper reports (KS ~ 0.04 = well calibrated selector).
  if (informative.size() > 10) {
    // Normalize to [0,1] over the observed range before the KS test so the
    // comparison to the diagonal matches the figure's axes.
    double lo = *std::min_element(informative.begin(), informative.end());
    double hi = *std::max_element(informative.begin(), informative.end());
    std::vector<double> scaled;
    for (double p : informative)
      scaled.push_back(hi > lo ? (p - lo) / (hi - lo) : 0.5);
    std::cout << "KS distance of informative set vs perfect-prediction line: "
              << util::Table::fmt(util::ks_distance_uniform(scaled))
              << "  (paper: 0.04)\n";
  }
  // True calibration table: realized informative rate per estimated-
  // probability bucket (a stricter check than the CDF comparison).
  {
    std::map<int, std::pair<std::size_t, std::size_t>> buckets;  // hits,total
    for (const auto& run : runs) {
      for (const auto& rec : run.result.measurement_log) {
        if (!rec.ran()) continue;
        int b = std::min(9, static_cast<int>(rec.estimated_prob * 10.0));
        auto& bb = buckets[b];
        if (rec.informative()) ++bb.first;
        ++bb.second;
      }
    }
    util::Table ct({"est. prob bucket", "traceroutes", "realized informative rate"});
    for (const auto& [b, stat] : buckets)
      ct.add_row({util::Table::fmt(b / 10.0, 1) + "-" + util::Table::fmt((b + 1) / 10.0, 1),
                  util::Table::fmt(stat.second),
                  util::Table::fmt(static_cast<double>(stat.first) / stat.second)});
    std::cout << "\nCalibration: realized informative rate per estimated-prob bucket\n";
    ct.print(std::cout);
  }

  // Selector usefulness: informative traceroutes should carry higher
  // estimated probabilities than uninformative ones.
  if (!informative.empty() && !uninformative.empty()) {
    std::cout << "mean est. prob: informative "
              << util::Table::fmt(util::mean(informative)) << " vs uninformative "
              << util::Table::fmt(util::mean(uninformative)) << "\n";
  }
  return 0;
}
