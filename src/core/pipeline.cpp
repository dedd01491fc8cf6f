#include "core/pipeline.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/curves.hpp"
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

PipelineResult MetascriticPipeline::run(const PipelineRunOptions& opts) {
  MAC_SPAN("pipeline.run");
  MAC_COUNT("pipeline.runs_started");
  util::Rng rng(cfg_.seed);

  PipelineResult res;
  res.estimated = EstimatedMatrix(ctx_->size());

  // Feature side-information for the hybrid completer.
  FeatureMatrix features = [&] {
    MAC_SPAN("pipeline.encode_features");
    return encode_features(*ctx_);
  }();

  // Probability matrix seeded from the hierarchical pool; scheduler drives
  // targeted measurement batches inside the rank-estimation loop.
  ProbabilityMatrix pm(*ctx_, *ms_, priors_);
  MeasurementScheduler scheduler(*ctx_, *ms_, pm, cfg_.scheduler);

  // Resume: the phase blob overwrites the rank-loop locals, the scheduler
  // and the probability matrix; the caller already restored the shared
  // measurement plane.
  RankLoopState resume_state;
  RankRunOptions rank_opts;
  rank_opts.control = opts.control;
  if (opts.resume_blob != nullptr) {
    util::checkpoint::Decoder dec(*opts.resume_blob);
    resume_state.load(dec);
    scheduler.load(dec);
    pm.load(dec);
    rank_opts.resume = &resume_state;
    MAC_COUNT("pipeline.resumes");
  }
  if (opts.checkpoint) {
    rank_opts.on_iteration = [&](const RankLoopState& st) {
      // Rank boundary: serialize everything the next process needs to
      // continue this pipeline mid-loop.
      MAC_SPAN("pipeline.checkpoint");
      util::checkpoint::Encoder enc;
      st.save(enc);
      scheduler.save(enc);
      pm.save(enc);
      opts.checkpoint(enc.take());
      MAC_COUNT("pipeline.checkpoints_written");
      // Timeline mark: where each rank-boundary checkpoint landed relative
      // to the surrounding ALS / scheduler spans.
      MAC_TRACE_INSTANT("pipeline.checkpoint_written");
    };
  }

  RankEstimator estimator(*ctx_, features, cfg_.rank);
  {
    MAC_SPAN("pipeline.rank_estimation");
    res.rank_detail = estimator.run(&scheduler, *ms_, rank_opts);
  }
  res.estimated_rank = res.rank_detail.best_rank;
  res.targeted_traceroutes = res.rank_detail.traceroutes_used;
  res.measurement_log = scheduler.history();
  res.degradation = scheduler.degradation();
  if (res.rank_detail.truncated) ++res.degradation.phases_truncated;
  MAC_GAUGE_SET("pipeline.estimated_rank", res.estimated_rank);

  // Final completion over the full E_m at the estimated rank.
  res.estimated = ms_->take_matrix(*ctx_);
  auto entries = rating_entries(res.estimated);

  // Hold out a slice for threshold tuning.
  std::vector<RatingEntry> train, tune;
  for (const RatingEntry& e : entries) {
    if (rng.uniform() < cfg_.holdout_fraction) tune.push_back(e);
    else train.push_back(e);
  }
  if (train.empty()) train = entries;

  AlsConfig als = cfg_.final_als;
  als.rank = res.estimated_rank;
  AlsCompleter completer(ctx_->size(), features, als);
  // The final completion phases always run -- even under cancellation the
  // pipeline returns best-so-far ratings -- but their ALS sweeps yield to
  // the stop control between iterations.
  completer.set_run_control(opts.control);
  {
    MAC_SPAN("pipeline.final_completion");
    completer.fit(train);
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
    completer.fit(entries);
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
