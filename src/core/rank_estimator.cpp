#include "core/rank_estimator.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"

namespace metas::core {

namespace {

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
  holdout_split(e, cfg_.holdout_per_row, rng, train, holdout);
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
  int reps = std::max(1, cfg_.holdout_repeats);
  for (int k = 0; k < reps; ++k) s += holdout_mse_once(e, rank, rng);
  return s / reps;
}

bool RankEstimator::record_candidate(int rank, double mse, double& best,
                                     int& no_improve,
                                     RankEstimateResult& res) const {
  res.history.emplace_back(rank, mse);
  const double needed = best > 1e29 ? 0.0  // first candidate always accepted
                                     : std::max(cfg_.min_improvement,
                                                cfg_.rel_improvement * best);
  if (mse < best - needed) {
    best = mse;
    res.best_rank = rank;
    res.best_mse = mse;
    no_improve = 0;
    return false;
  }
  return ++no_improve >= cfg_.patience;
}

template <class Self, class Ar>
void RankLoopState::io(Self& s, Ar& ar) {
  auto& p = s.partial;
  ar(s.next_rank, s.best, s.no_improve, s.finished, s.rng, p.best_rank,
     p.best_mse, p.history, p.traceroutes_used, p.truncated);
}

void RankLoopState::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void RankLoopState::load(util::checkpoint::Decoder& dec) { io(*this, dec); }

RankEstimateResult RankEstimator::run(MeasurementScheduler* scheduler,
                                      MeasurementSystem& ms,
                                      const RankRunOptions& opts) {
  MAC_REQUIRE(cfg_.max_rank >= 1, "max_rank=", cfg_.max_rank);
  MAC_REQUIRE(cfg_.holdout_per_row >= 1,
              "holdout_per_row=", cfg_.holdout_per_row);
  util::Rng rng(cfg_.seed);
  RankEstimateResult res;
  double best = 1e30;
  int no_improve = 0;
  int start_rank = 1;
  if (opts.resume != nullptr) {
    // Continue a checkpointed loop: every local that influences control
    // flow or randomness is overwritten with the snapshot.
    if (opts.resume->finished) return opts.resume->partial;
    start_rank = opts.resume->next_rank;
    best = opts.resume->best;
    no_improve = opts.resume->no_improve;
    res = opts.resume->partial;
    rng = opts.resume->rng;
  }
  if (scheduler != nullptr) scheduler->set_run_control(opts.control);
  for (int r = start_rank; r <= cfg_.max_rank; ++r) {
    // Cooperative stop between iterations: a rank candidate is the work
    // unit, checkpointed only when it ran in full.
    if (opts.control != nullptr && opts.control->stop_requested()) {
      res.truncated = true;
      break;
    }
    MAC_SPAN("pipeline.rank_iteration");
    MAC_COUNT("pipeline.rank_candidates_evaluated");
    if (scheduler != nullptr)
      res.traceroutes_used +=
          scheduler->fill_rows_to(r, cfg_.budget_per_iteration);
    // A stop may have cut the campaign short of its target: scoring or
    // checkpointing this candidate would record a state that an
    // uninterrupted run never reaches, so a resume continues from the
    // previous boundary instead.
    if (opts.control != nullptr && opts.control->stop_requested()) {
      res.truncated = true;
      break;
    }
    const EstimatedMatrix& e = ms.matrix(*ctx_);
    double mse = holdout_mse(e, r, rng);
    MAC_HISTOGRAM("pipeline.rank_holdout_mse", mse);
    const bool stop = record_candidate(r, mse, best, no_improve, res);
    if (opts.on_iteration) {
      // Rank boundary: hand the caller everything a resume at this exact
      // point needs, including whether the loop already decided to stop
      // (so a resumed run does not iterate past the patience break).
      RankLoopState st;
      st.next_rank = r + 1;
      st.best = best;
      st.no_improve = no_improve;
      st.finished = stop || r == cfg_.max_rank;
      st.rng = rng;
      st.partial = res;
      opts.on_iteration(st);
    }
    if (stop) break;
  }
  MAC_ENSURE(res.best_rank >= 1 && res.best_rank <= cfg_.max_rank,
             "best_rank=", res.best_rank, " max_rank=", cfg_.max_rank);
  return res;
}

RankEstimateResult RankEstimator::run_static(const EstimatedMatrix& e) {
  MAC_REQUIRE(cfg_.max_rank >= 1, "max_rank=", cfg_.max_rank);
  util::Rng rng(cfg_.seed);
  RankEstimateResult res;
  double best = 1e30;
  int no_improve = 0;
  for (int r = 1; r <= cfg_.max_rank; ++r)
    if (record_candidate(r, holdout_mse(e, r, rng), best, no_improve, res))
      break;
  return res;
}

}  // namespace metas::core
