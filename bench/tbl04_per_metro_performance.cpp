// Table 4: the detailed per-metro picture -- estimated rank, train/test
// splits, external validation recalls, and measurement efficiency.
//
// Paper shape: ranks ~4-8% of the metro dimension; stratified >= random >=
// completely-out; recall-only validation sets land 0.8-1.0 except
// multilateral IXP (0.53-0.81); orders of magnitude fewer traceroutes than
// exhaustive measurement.
#include "bench/common.hpp"

using namespace metas;

int main() {
  bench::print_header("Tbl. 4", "per-metro performance and validation detail");
  eval::World w = eval::build_world(bench::bench_world_config());
  auto runs = bench::run_all_focus_metros(w);

  // --- Header block: dimensions and estimated ranks. ---
  util::Table head({"metro", "ASes", "est. rank", "E entries", "targeted traces",
                    "exhaustive (pairs x5)"});
  for (auto& run : runs) {
    std::size_t n = run.ctx->size();
    head.add_row({run.name, util::Table::fmt(n),
                  util::Table::fmt(run.result.estimated_rank),
                  util::Table::fmt(run.result.estimated.total_filled()),
                  util::Table::fmt(run.result.targeted_traceroutes),
                  util::Table::fmt(5 * n * (n - 1) / 2)});
  }
  head.print(std::cout);

  // --- Split block: AUPRC per split kind. ---
  util::Table splits({"metro", "stratified", "random", "completely-out"});
  for (auto& run : runs) {
    core::FeatureMatrix feats = core::encode_features(*run.ctx);
    std::vector<std::string> row{run.name};
    for (auto kind : {eval::SplitKind::kStratified, eval::SplitKind::kRandom,
                      eval::SplitKind::kCompletelyOut}) {
      util::Rng rng(600 + static_cast<int>(kind));
      auto split = eval::make_split(run.result.estimated, kind, rng);
      if (split.train.empty() || split.test.empty()) {
        row.push_back("-");
        continue;
      }
      core::AlsConfig ac;
      ac.rank = run.result.estimated_rank;
      core::AlsCompleter c(run.ctx->size(), feats, ac);
      c.fit(split.train);
      std::vector<util::Scored> scored;
      for (const auto& e : split.test)
        scored.push_back({c.predict(e.i, e.j), e.value > 0.0});
      row.push_back(util::Table::fmt(util::auprc(scored)));
    }
    splits.add_row(row);
  }
  std::cout << "\nAUPRC per split kind\n";
  splits.print(std::cout);

  // --- Validation block: per-source recall (precision too where labeled). ---
  std::vector<std::string> source_names;
  {
    util::Rng rng(700);
    auto sets = eval::make_validation_sets(*runs.front().ctx, rng);
    for (const auto& s : sets) source_names.push_back(s.name);
  }
  std::vector<std::string> headers{"metro"};
  headers.insert(headers.end(), source_names.begin(), source_names.end());
  util::Table val(headers);
  for (auto& run : runs) {
    util::Rng rng(700);
    auto sets = eval::make_validation_sets(*run.ctx, rng);
    std::vector<std::string> row{run.name};
    for (const auto& s : sets) {
      if (s.pairs.empty()) {
        row.push_back("-");
        continue;
      }
      std::size_t tp = 0, fp = 0, fn = 0;
      for (std::size_t k = 0; k < s.pairs.size(); ++k) {
        auto [i, j] = s.pairs[k];
        bool pred = run.result.ratings(static_cast<std::size_t>(i),
                                       static_cast<std::size_t>(j)) >=
                    run.result.threshold;
        if (s.labels[k] && pred) ++tp;
        else if (s.labels[k]) ++fn;
        else if (pred) ++fp;
      }
      double recall = tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
      if (s.recall_only) {
        row.push_back(util::Table::fmt(recall));
      } else {
        double precision =
            tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
        // Appended into one string: g++ 12 flags "P" + std::string + ...
        // with a false -Wrestrict inside libstdc++'s operator+.
        std::string cell = "P";
        cell += util::Table::fmt(precision);
        cell += "/R";
        cell += util::Table::fmt(recall);
        row.push_back(std::move(cell));
      }
    }
    val.add_row(row);
  }
  std::cout << "\nExternal validation (recall; P/R where negatives labeled)\n";
  val.print(std::cout);
  std::cout << "Paper shape: recalls ~0.8-1.0, multilateral IXP lowest "
               "(0.53-0.81); ground-truth source P~0.8-0.95 / R~0.84-0.97; "
               "traceroute budget orders of magnitude below exhaustive.\n";
  return 0;
}
