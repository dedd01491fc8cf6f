#include "core/rank_estimator.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace metas::core {

namespace {

constexpr int kHoldoutPerRow = 3;   // entries removed per row for validation
constexpr int kHoldoutRepeats = 2;  // splits averaged per rank (damps noise)

// Splits filled entries into (train, holdout): up to `per_row` entries are
// removed per row; removing (i, j) counts toward both rows' quotas.
void holdout_split(const EstimatedMatrix& e, int per_row, util::Rng& rng,
                   std::vector<RatingEntry>& train,
                   std::vector<RatingEntry>& holdout) {
  const std::size_t n = e.size();
  std::vector<int> removed(n, 0);
  auto entries = e.filled_entries();
  std::vector<std::size_t> order = rng.sample_indices(entries.size(),
                                                      entries.size());
  std::vector<char> held(entries.size(), 0);
  for (std::size_t k : order) {
    auto [i, j] = entries[k];
    if (removed[i] >= per_row || removed[j] >= per_row) continue;
    // Keep at least one entry per touched row in the training set.
    if (e.row_filled(i) - mac::checked_cast<std::size_t>(removed[i]) <= 1) continue;
    if (e.row_filled(j) - mac::checked_cast<std::size_t>(removed[j]) <= 1) continue;
    held[k] = 1;
    ++removed[i];
    ++removed[j];
  }
  for (std::size_t k = 0; k < entries.size(); ++k) {
    auto [i, j] = entries[k];
    RatingEntry r{i, j, e.value(i, j)};
    (held[k] ? holdout : train).push_back(r);
  }
}

}  // namespace

double RankEstimator::holdout_mse_once(const EstimatedMatrix& e, int rank,
                                       util::Rng& rng) const {
  std::vector<RatingEntry> train, holdout;
  holdout_split(e, kHoldoutPerRow, rng, train, holdout);
  if (holdout.empty() || train.empty()) return 1.0;

  AlsConfig als = cfg_.als;
  als.rank = rank;
  AlsCompleter completer(ctx_->size(), *features_, als);
  completer.fit(train);

  // Only rows with more entries than the candidate rank are scored (§3.2);
  // sparser rows are set aside for this iteration.
  std::vector<RatingEntry> scored;
  for (const RatingEntry& h : holdout) {
    if (e.row_filled(h.i) > mac::checked_cast<std::size_t>(rank) &&
        e.row_filled(h.j) > mac::checked_cast<std::size_t>(rank))
      scored.push_back(h);
  }
  if (scored.empty()) scored = holdout;
  return completer.mse(scored);
}

double RankEstimator::holdout_mse(const EstimatedMatrix& e, int rank,
                                  util::Rng& rng) const {
  double s = 0.0;
  for (int k = 0; k < kHoldoutRepeats; ++k) s += holdout_mse_once(e, rank, rng);
  return s / kHoldoutRepeats;
}

void RankSearch::accept(double mse, const RankEstimatorConfig& cfg) {
  const int rank = next_rank++;
  result.history.emplace_back(rank, mse);
  const double needed = best > 1e29 ? 0.0  // first candidate always accepted
                                    : std::max(cfg.min_improvement,
                                               cfg.rel_improvement * best);
  if (mse < best - needed) {
    best = mse;
    result.best_rank = rank;
    result.best_mse = mse;
    no_improve = 0;
  } else if (++no_improve >= cfg.patience) {
    finished = true;
  }
  if (rank >= cfg.max_rank) finished = true;
}

double RankEstimator::step(RankSearch& s, const EstimatedMatrix& e) const {
  MAC_REQUIRE(!s.finished && s.next_rank >= 1 && s.next_rank <= cfg_.max_rank,
              "next_rank=", s.next_rank, " max_rank=", cfg_.max_rank);
  const double mse = holdout_mse(e, s.next_rank, s.rng);
  s.accept(mse, cfg_);
  return mse;
}

RankEstimateResult RankEstimator::run_static(const EstimatedMatrix& e) const {
  RankSearch search(cfg_.seed);
  while (!search.finished) step(search, e);
  return search.result;
}

}  // namespace metas::core
