#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/checkpoint.hpp"
#include "util/curves.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace metas::core {

double tune_threshold(const AlsCompleter& completer,
                      const std::vector<RatingEntry>& labelled) {
  if (labelled.empty()) return 0.0;
  // E_m over-represents existing links (direct observation only ever sees
  // links that exist), so an unweighted F-score would push lambda to -1 and
  // declare everything a link. Balance the classes: each negative example
  // carries weight pos/neg so both classes contribute equal total mass.
  double pos = 0.0, neg = 0.0;
  for (const RatingEntry& e : labelled) (e.value > 0.0 ? pos : neg) += 1.0;
  double neg_w = (neg > 0.0 && pos > 0.0) ? pos / neg : 1.0;

  struct Scored { double score; bool positive; };
  std::vector<Scored> scored;
  scored.reserve(labelled.size());
  for (const RatingEntry& e : labelled)
    scored.push_back({completer.predict(e.i, e.j), e.value > 0.0});

  double best_t = 0.0, best_f = -1.0;
  for (int k = 0; k <= 200; ++k) {
    double t = -1.0 + 2.0 * k / 200.0;
    double tp = 0.0, fp = 0.0, fn = 0.0;
    for (const Scored& s : scored) {
      bool pred = s.score >= t;
      if (pred && s.positive) tp += 1.0;
      else if (pred && !s.positive) fp += neg_w;
      else if (!pred && s.positive) fn += 1.0;
    }
    double precision = tp + fp > 0.0 ? tp / (tp + fp) : 0.0;
    double recall = tp + fn > 0.0 ? tp / (tp + fn) : 0.0;
    double f = precision + recall > 0.0
                   ? 2.0 * precision * recall / (precision + recall)
                   : 0.0;
    if (f > best_f) {
      best_f = f;
      best_t = t;
    }
  }
  return best_t;
}

void decode_phase(const std::string& blob, const RankEstimatorConfig& cfg,
                  RankSearch& search, MeasurementScheduler& scheduler) {
  util::checkpoint::Decoder dec(blob);
  dec(search, scheduler);
  if (!dec.done())
    throw util::checkpoint::CheckpointError("phase blob has trailing bytes");
  // Replay the search's history through the acceptance rule step() ran.
  // The scheduler fills rows to `next_rank` and the final completion fits
  // at `best_rank`, so a rank out of order or past max_rank would reach
  // them as an invalid ALS rank or an allocation of any size.
  std::vector<std::pair<int, double>> history;
  history.swap(search.result.history);
  for (const auto& [rank, mse] : history) {
    if (search.finished || rank != search.next_rank || rank > cfg.max_rank ||
        !(std::isfinite(mse) && mse >= 0.0))
      throw util::checkpoint::CheckpointError(
          "rank search history no search writes, at rank " +
          std::to_string(rank));
    search.accept(mse, cfg);
  }
}

void MetascriticPipeline::check_resume(const std::string& blob) const {
  ProbabilityMatrix pm(*ctx_, *ms_, priors_);
  MeasurementScheduler scheduler(*ctx_, *ms_, pm, cfg_.scheduler);
  RankSearch search(cfg_.rank.seed);
  decode_phase(blob, cfg_.rank, search, scheduler);
}

PipelineResult MetascriticPipeline::run(const PipelineRunOptions& opts) {
  MAC_SPAN("pipeline.run");
  MAC_COUNT("pipeline.runs_started");
  util::Rng rng(cfg_.seed);

  PipelineResult res;

  // Feature side-information for the hybrid completer.
  FeatureMatrix features = [&] {
    MAC_SPAN("pipeline.encode_features");
    return encode_features(*ctx_);
  }();

  // Probability matrix seeded from the hierarchical pool; scheduler drives
  // targeted measurement batches inside the rank search.
  ProbabilityMatrix pm(*ctx_, *ms_, priors_);
  MeasurementScheduler scheduler(*ctx_, *ms_, pm, cfg_.scheduler);
  RankEstimator estimator(*ctx_, features, cfg_.rank);
  RankSearch search(cfg_.rank.seed);

  // Resume: the phase blob overwrites the rank search and the scheduler,
  // which replays its records into the fresh probability matrix; the
  // caller already restored the shared measurement plane.
  if (opts.resume_blob != nullptr) {
    decode_phase(*opts.resume_blob, cfg_.rank, search, scheduler);
    MAC_COUNT("pipeline.resumes");
  }

  // §3.2: bring every row up to the candidate rank, then score it.  A
  // candidate is the work unit: a stop ends the search between candidates,
  // and a candidate whose measurement campaign a stop may have cut short
  // is neither scored nor checkpointed, since an uninterrupted run never
  // reaches that state.  A resume continues from the previous boundary.
  const util::RunControl* control = opts.control;
  auto stopped = [control] {
    return control != nullptr && control->stop_requested();
  };
  {
    MAC_SPAN("pipeline.rank_estimation");
    while (!search.finished && !stopped()) {
      MAC_SPAN("pipeline.rank_iteration");
      MAC_COUNT("pipeline.rank_candidates_evaluated");
      scheduler.fill_rows_to(search.next_rank, cfg_.rank.budget_per_iteration,
                             control);
      if (stopped()) break;
      const double mse = estimator.step(search, ms_->matrix(*ctx_));
      MAC_HISTOGRAM("pipeline.rank_holdout_mse", mse);
      if (opts.checkpoint) {
        // Rank boundary: everything the next process needs to continue
        // this pipeline mid-search.
        MAC_SPAN("pipeline.checkpoint");
        util::checkpoint::Encoder enc;
        enc(search, scheduler);
        opts.checkpoint(enc.take());
        MAC_COUNT("pipeline.checkpoints_written");
        // Timeline mark: where each rank-boundary checkpoint landed relative
        // to the surrounding ALS / scheduler spans.
        MAC_TRACE_INSTANT("pipeline.checkpoint_written");
      }
    }
    search.result.truncated = !search.finished;
  }
  res.rank_detail = std::move(search.result);
  res.estimated_rank = res.rank_detail.best_rank;
  res.measurement_log = scheduler.history();
  for (const IssuedRecord& r : res.measurement_log)
    res.targeted_traceroutes += mac::checked_cast<std::size_t>(r.spent);
  res.degradation = scheduler.degradation();
  if (res.rank_detail.truncated) ++res.degradation.phases_truncated;
  MAC_GAUGE_SET("pipeline.estimated_rank", res.estimated_rank);

  // Final completion over the full E_m at the estimated rank.
  res.estimated = ms_->take_matrix(*ctx_);
  auto entries = rating_entries(res.estimated);

  // Hold out a slice for threshold tuning.
  constexpr double kTuneFraction = 0.1;
  std::vector<RatingEntry> train, tune;
  for (const RatingEntry& e : entries) {
    if (rng.uniform() < kTuneFraction) tune.push_back(e);
    else train.push_back(e);
  }
  if (train.empty()) train = entries;

  AlsConfig als = cfg_.rank.als;
  als.rank = res.estimated_rank;
  AlsCompleter completer(ctx_->size(), features, als);
  // The final completion phases always run -- even under cancellation the
  // pipeline returns best-so-far ratings -- but their ALS sweeps yield to
  // the stop control between iterations.
  {
    MAC_SPAN("pipeline.final_completion");
    completer.fit(train, control);
    if (completer.iterations_run() < als.iterations)
      ++res.degradation.phases_truncated;
  }
  {
    MAC_SPAN("pipeline.tune_threshold");
    res.threshold = tune.empty() ? 0.0 : tune_threshold(completer, tune);
  }

  {
    // Refit on everything for the published ratings.
    MAC_SPAN("pipeline.publish_ratings");
    completer.fit(entries, control);
    if (completer.iterations_run() < als.iterations)
      ++res.degradation.phases_truncated;
    res.ratings = completer.completed();
  }

  if (priors_ != nullptr) pm.export_priors(*priors_);

  MAC_COUNT("pipeline.runs_completed");
  MAC_GAUGE_SET("pipeline.threshold", res.threshold);
  return res;
}

}  // namespace metas::core
