#include "eval/campaign.hpp"

#include <filesystem>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "eval/export.hpp"
#include "util/checkpoint.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"

namespace metas::eval {

namespace {

/// Everything that pins the deterministic trajectory of a run.  A resume
/// with a different fingerprint would silently diverge, so it is refused.
auto fingerprint(const CampaignConfig& cfg) {
  const traceroute::FaultProfile& f = cfg.faults;
  return std::tuple(cfg.seed, cfg.scale, cfg.all_metros, cfg.metro,
                    cfg.resilience, f.outage_start, f.outage_end, f.death,
                    f.loss, f.bucket_capacity, f.bucket_refill,
                    f.incident_start, f.incident_end, f.seed);
}

/// The checkpoint payload: the run's fingerprint, the campaign state and
/// the shared measurement plane of `world`.  Loading throws CheckpointError
/// on a malformed payload, and returns false with `*error` set when the
/// checkpoint belongs to a different run.
template <class State, class W, class Ar>
bool payload_io(State& s, W& world, Ar& ar, const CampaignConfig& cfg,
                std::string* error) {
  auto fp = fingerprint(cfg);
  ar(fp);
  if constexpr (Ar::kLoading) {
    if (fp != fingerprint(cfg)) {
      *error = "checkpoint was produced by a run with different "
               "seed/scale/metro/fault/resilience flags";
      return false;
    }
  }
  ar(s.completed, s.priors, s.next_metro, *world.ms, *world.engine);
  bool has_faults = world.faults != nullptr;
  ar(has_faults);
  if (has_faults != (world.faults != nullptr)) {
    *error = "checkpoint fault-injector presence does not match the profile";
    return false;
  }
  if (has_faults) ar(*world.faults);
  bool has_phase = !s.phase_blob.empty();
  ar(has_phase);
  if (has_phase) ar(s.phase_blob);
  return true;
}

WorldConfig world_config(const CampaignConfig& cfg) {
  WorldConfig wc = cfg.scale == "paper" ? paper_world_config(cfg.seed)
                                        : small_world_config(cfg.seed);
  wc.faults = cfg.faults;
  wc.resilience = cfg.resilience;
  return wc;
}

/// The pipeline config of `metro` in a campaign seeded with `seed`.
core::PipelineConfig pipeline_config(std::uint64_t seed,
                                     topology::MetroId metro) {
  const auto m = mac::checked_cast<std::size_t>(metro);
  core::PipelineConfig pc;
  pc.scheduler.seed = seed + m * 3 + 1;
  pc.rank.seed = seed + m * 3 + 2;
  return pc;
}

}  // namespace

Campaign::Campaign(CampaignConfig cfg)
    : cfg_(std::move(cfg)), world_([this] {
        MAC_SPAN("campaign.build_world");
        return build_world(world_config(cfg_));
      }()) {
  if (cfg_.all_metros) {
    metros_ = world_.focus_metros;
  } else if (!cfg_.metro.empty()) {
    for (const auto& m : world_.net.metros)
      if (m.name == cfg_.metro) metros_.push_back(m.id);
    if (metros_.empty()) {
      std::string msg = "unknown metro '" + cfg_.metro + "'. Focus metros:";
      for (topology::MetroId m : world_.focus_metros)
        msg += ' ' + world_.net.metros[mac::checked_cast<std::size_t>(m)].name;
      throw CampaignError(msg);
    }
  } else {
    metros_.push_back(world_.focus_metros.front());
  }
}

ResumePoint Campaign::resume() {
  const std::string& path = cfg_.resume_path;
  std::string diag;
  const auto payload = util::checkpoint::load_file(path, &diag);
  if (!payload)
    throw CampaignError("no usable checkpoint at '" + path + "' (" + diag +
                        ")");
  State loaded;
  std::string why;
  try {
    util::checkpoint::Decoder dec(*payload);
    if (!payload_io(loaded, world_, dec, cfg_, &why))
      throw CampaignError("cannot resume from '" + path + "': " + why);
    if (!dec.done())
      throw util::checkpoint::CheckpointError("payload has trailing bytes");
    // run() writes a generation at a rank boundary of metro `next_metro`,
    // with its phase blob, or once `next_metro` metros are complete.
    const std::size_t next = loaded.next_metro;
    const bool in_metro = !loaded.phase_blob.empty();
    if (next != loaded.completed.size() ||
        next + (in_metro ? 1 : 0) > metros_.size())
      throw util::checkpoint::CheckpointError(
          "next metro " + std::to_string(next) + " with " +
          std::to_string(loaded.completed.size()) + " of " +
          std::to_string(metros_.size()) + " metros complete");
    if (in_metro) {
      const core::MetroContext ctx(world_.net, metros_[next]);
      core::MetascriticPipeline(ctx, *world_.ms, &loaded.priors,
                                pipeline_config(cfg_.seed, metros_[next]))
          .check_resume(loaded.phase_blob);
    }
  } catch (const util::checkpoint::CheckpointError& e) {
    throw CampaignError("corrupt checkpoint payload in '" + path +
                        "': " + e.what());
  }
  state_ = std::move(loaded);
  resumed_ = true;
  return {state_.completed.size(), !state_.phase_blob.empty()};
}

void Campaign::write_checkpoint(const CampaignHooks& hooks,
                                CampaignOutcome& out) {
  util::checkpoint::Encoder enc;
  payload_io(state_, world_, enc, cfg_, nullptr);
  util::checkpoint::WriteOptions wo;
  wo.keep_last = cfg_.keep_checkpoints;
  if (!util::checkpoint::write_file(cfg_.checkpoint_path, enc.data(), wo)) {
    ++out.checkpoint_failures;
    return;
  }
  ++out.checkpoints_written;
  out.resumable = true;
  if (hooks.on_checkpoint) hooks.on_checkpoint(out.checkpoints_written);
}

MetroSummary Campaign::publish(const core::MetroContext& ctx,
                               const std::string& name,
                               const core::PipelineResult& result) const {
  const double lambda = cfg_.threshold.value_or(result.threshold);
  // Render into memory, then publish atomically: a crash mid-export never
  // leaves a truncated CSV behind for a resume to skip.
  auto publish_csv = [&](const char* kind, auto&& render) {
    const std::string path = cfg_.out_dir + "/" + name + "_" + kind + ".csv";
    std::ostringstream os;
    render(os);
    if (!util::checkpoint::atomic_write_file(path, os.str()))
      throw CampaignError("cannot write " + path);
  };
  publish_csv("links", [&](std::ostream& os) {
    export_links_csv(os, ctx, result, lambda);
  });
  publish_csv("ratings", [&](std::ostream& os) {
    export_ratings_csv(os, ctx, result);
  });
  publish_csv("measurements", [&](std::ostream& os) {
    export_measurement_log_csv(os, ctx, result);
  });

  MetroSummary row;
  row.name = name;
  row.ases = ctx.size();
  for (std::size_t i = 0; i < ctx.size(); ++i)
    for (std::size_t j = i + 1; j < ctx.size(); ++j)
      if (result.ratings(i, j) >= lambda) ++row.links;
  row.rank = result.estimated_rank;
  row.traces = result.targeted_traceroutes;
  row.lambda = lambda;
  const core::DegradationReport& d = result.degradation;
  row.fill_fraction = d.fill_fraction;
  row.probes_faulted = d.probes_faulted;
  row.retries = d.retries;
  row.requeues = d.requeues;
  row.quarantined = d.quarantined_vps;
  row.dead = d.dead_vps;
  return row;
}

CampaignOutcome Campaign::run(const util::RunControl* control,
                              const CampaignHooks& hooks) {
  // The directories appear only once the campaign runs, so a refused
  // resume leaves none behind.
  std::error_code ec;
  std::filesystem::create_directories(cfg_.out_dir, ec);
  if (ec)
    throw CampaignError("cannot create output directory '" + cfg_.out_dir +
                        "': " + ec.message());
  if (!cfg_.checkpoint_path.empty()) {
    const auto parent =
        std::filesystem::path(cfg_.checkpoint_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  }
  CampaignOutcome out;
  out.resumable = resumed_ && cfg_.resume_path == cfg_.checkpoint_path;
  const bool checkpointing = !cfg_.checkpoint_path.empty();
  auto stop = [control] {
    return control != nullptr && control->stop_requested();
  };
  std::optional<MetroSummary> cut;  // a metro the stop cut short
  for (std::size_t mi = state_.next_metro; mi < metros_.size(); ++mi) {
    if (stop()) {
      out.stopped_early = true;
      break;
    }
    const core::MetroContext ctx(world_.net, metros_[mi]);
    const std::string& name =
        world_.net.metros[mac::checked_cast<std::size_t>(metros_[mi])].name;
    if (hooks.on_metro) hooks.on_metro(name);
    core::MetascriticPipeline pipeline(ctx, *world_.ms, &state_.priors,
                                       pipeline_config(cfg_.seed, metros_[mi]));

    core::PipelineRunOptions po;
    po.control = control;
    // The pipeline reads the resumed blob once, on entry, before the
    // rank-boundary hook below first overwrites it.
    if (!state_.phase_blob.empty()) po.resume_blob = &state_.phase_blob;
    if (checkpointing) {
      // Rank boundary: the phase blob wrapped together with the shared
      // measurement plane and the completed metros, so a kill at any
      // boundary resumes without losing a probe.
      po.checkpoint = [this, &hooks, &out, mi](const std::string& blob) {
        state_.next_metro = mi;
        state_.phase_blob = blob;
        write_checkpoint(hooks, out);
      };
    }
    const core::PipelineResult result = pipeline.run(po);
    state_.phase_blob.clear();
    MetroSummary row = publish(ctx, name, result);
    out.phases_truncated = result.degradation.phases_truncated;
    if (out.phases_truncated > 0) {
      // A stop cut this metro short.  Its best-so-far exports stand, but
      // it is not complete: the newest checkpoint stays its last rank
      // boundary, and a resume re-runs it from there.
      cut = std::move(row);
      out.stopped_early = true;
      break;
    }
    // Metro-completion boundary: persist the finished metro before moving
    // on, with no in-progress phase state.
    state_.completed.push_back(std::move(row));
    state_.next_metro = mi + 1;
    if (checkpointing) write_checkpoint(hooks, out);
    if (stop()) {
      out.stopped_early = true;
      break;
    }
  }
  out.metros = state_.completed;
  out.metros_done = out.metros.size();
  if (cut) out.metros.push_back(std::move(*cut));
  return out;
}

}  // namespace metas::eval
