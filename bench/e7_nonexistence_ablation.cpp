// Appendix E.7: ablation of the non-existence inference rules. Compares
// metAScritic's negative-evidence policy (consistency + well-positioned VP)
// against (1) never inferring non-existence, (2) ignoring routing
// consistency, and (3) also dropping the well-positioned requirement.
//
// Paper shape: the 0-negative approach fills ~64% fewer entries; the
// inconsistency-oblivious and full-negative variants wrongly mark 19% / 27%
// of existing links as non-existent; metAScritic's rules are best on both
// precision and recall.
#include "bench/common.hpp"
#include "util/stats.hpp"

using namespace metas;

namespace {

enum class NegPolicy { kMetascritic, kZeroNegative, kOblivious, kFullNegative };

// Rebuilds E_m from the evidence store under an ablated negative-fill rule.
core::EstimatedMatrix build_with_policy(const core::MetroContext& ctx,
                                        const eval::World& w,
                                        NegPolicy policy) {
  if (policy == NegPolicy::kMetascritic) return w.ms->build_matrix(ctx);
  const auto& net = ctx.net();
  core::EstimatedMatrix e(ctx.size());
  for (const auto& [key, ev] : w.ms->evidence().all()) {
    auto a = static_cast<topology::AsId>(key & 0xffffffffULL);
    auto b = static_cast<topology::AsId>(key >> 32);
    int ia = ctx.local(a), ib = ctx.local(b);
    if (ia < 0 || ib < 0 || ia == ib) continue;
    // kOblivious keeps the well-positioned filter but ignores consistency;
    // kFullNegative also drops the well-positioned filter and takes every
    // transit crossing as negative evidence.
    bool direct = false, crossed = false;
    topology::GeoScope best_direct = topology::GeoScope::kElsewhere;
    topology::GeoScope best_crossed = topology::GeoScope::kElsewhere;
    for (const core::MetroEvidence& r : ev) {
      const topology::GeoScope scope = net.metro_scope(ctx.metro(), r.metro);
      if (r.direct) {
        direct = true;
        best_direct = std::min(best_direct, scope);
      }
      if (policy == NegPolicy::kFullNegative ? r.crossing : r.transit) {
        crossed = true;
        best_crossed = std::min(best_crossed, scope);
      }
    }
    if (direct)
      e.set(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib),
            core::positive_rating(best_direct));
    if (policy == NegPolicy::kZeroNegative) continue;
    if (crossed)
      e.set(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib),
            core::negative_rating(best_crossed));
  }
  return e;
}

}  // namespace

int main() {
  bench::print_header("Appx. E.7", "non-existence inference ablation");
  eval::World w = eval::build_world(bench::bench_world_config());
  auto runs = bench::run_all_focus_metros(w);

  util::Table t({"variant", "E entries", "negatives", "wrong negatives (%)",
                 "precision", "recall"});
  struct Named { const char* name; NegPolicy p; };
  const Named variants[] = {
      {"metAScritic rules", NegPolicy::kMetascritic},
      {"0-negative", NegPolicy::kZeroNegative},
      {"inconsistency-oblivious", NegPolicy::kOblivious},
      {"full negative", NegPolicy::kFullNegative},
  };
  for (const auto& v : variants) {
    std::size_t entries = 0, negatives = 0, wrong_neg = 0;
    std::vector<double> precisions, recalls;
    for (auto& run : runs) {
      const auto& ctx = *run.ctx;
      const auto& truth = w.truth_at(ctx.metro());
      core::EstimatedMatrix e = build_with_policy(ctx, w, v.p);
      entries += e.total_filled();
      for (auto [i, j] : e.filled_entries()) {
        if (e.value(i, j) >= 0.0) continue;
        ++negatives;
        if (truth.link(i, j)) ++wrong_neg;
      }
      // Completion quality with this E.
      auto obs = core::rating_entries(e);
      if (obs.empty()) continue;
      core::FeatureMatrix feats = core::encode_features(ctx);
      core::AlsConfig ac;
      ac.rank = run.result.estimated_rank;
      core::AlsCompleter c(ctx.size(), feats, ac);
      c.fit(obs);
      double lam = core::tune_threshold(c, obs);
      auto m = eval::truth_metrics(eval::score_pairs(ctx, c.completed()), lam);
      precisions.push_back(m.precision);
      recalls.push_back(m.recall);
    }
    t.add_row({v.name, util::Table::fmt(entries), util::Table::fmt(negatives),
               negatives == 0 ? "-" : util::Table::fmt(100.0 * wrong_neg / negatives, 1),
               util::Table::fmt(util::mean(precisions)),
               util::Table::fmt(util::mean(recalls))});
  }
  t.print(std::cout);
  std::cout << "Paper shape: 0-negative fills far fewer entries; relaxing "
               "consistency / positioning mislabels an increasing share of "
               "real links as non-existent; metAScritic's rules dominate.\n";
  return 0;
}
