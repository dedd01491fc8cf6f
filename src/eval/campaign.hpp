// Campaign runner (§3.5, Appx. D.6): metAScritic over a world's metros, one
// after another, with the strategy priors and the measurement plane carried
// from each metro to the next.  The runner owns every decision that shapes
// a campaign's results and files: metro selection, the per-metro seeds, the
// shared priors, the checkpoint payload and when a boundary is written,
// resume, and the per-metro CSV exports and summary rows.  A caller keeps
// its flags, signals and printing, and sees the run through CampaignHooks.
//
// Checkpoints (DESIGN.md §12).  With a checkpoint path the runner writes a
// generation at every rank boundary and at every metro completion.  The
// payload (format 2) is the run fingerprint, the completed-metro summaries,
// the priors, the next metro index, the measurement plane, the traceroute
// engine, the fault injector and the in-progress phase blob, the last two
// behind presence flags.  A metro that a stop cut short is never recorded
// as complete: its completion boundary is not written, so a resume re-runs
// it from its last rank boundary, byte-identically to an uninterrupted run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/world.hpp"
#include "util/cancel.hpp"

namespace metas::eval {

/// Everything that shapes a campaign's results and files.  The seed, scale,
/// metro selection, fault profile and resilience flag form the checkpoint
/// fingerprint: a resume under different values is refused.
struct CampaignConfig {
  std::uint64_t seed = 42;
  std::string scale = "small";  // "small" or "paper" world
  std::string metro;            // metro by name; empty = first focus metro
  bool all_metros = false;      // every focus metro, in order
  std::optional<double> threshold;  // link threshold; empty = tuned lambda
  std::string out_dir = "metascritic_out";
  traceroute::FaultProfile faults;  // default: none (inert)
  bool resilience = true;
  std::string checkpoint_path;  // empty = no checkpoints
  std::string resume_path;      // empty = fresh run
  int keep_checkpoints = 3;     // generations kept at checkpoint_path
};

/// One metro's summary numbers, kept as raw values (not table rows) so a
/// checkpoint carries them across a resume.
struct MetroSummary {
  std::string name;
  std::size_t ases = 0;
  int rank = 0;
  std::size_t traces = 0;
  double lambda = 0.0;
  std::size_t links = 0;
  double fill_fraction = 0.0;
  std::size_t probes_faulted = 0;
  std::size_t retries = 0;
  std::size_t requeues = 0;
  std::size_t quarantined = 0;
  std::size_t dead = 0;

  template <class Self, class Ar>
  static void io(Self& m, Ar& ar) {
    ar(m.name, m.ases, m.rank, m.traces, m.lambda, m.links, m.fill_fraction,
       m.probes_faulted, m.retries, m.requeues, m.quarantined, m.dead);
  }
};

/// A campaign that cannot start or go on: an unknown metro, an output
/// directory or export that cannot be written, or a checkpoint that cannot
/// be resumed.  what() is a one-line message.
class CampaignError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Where a resumed campaign picks up.
struct ResumePoint {
  std::size_t metros_done = 0;  // metros the checkpoint records as complete
  bool mid_metro = false;       // it stopped inside the next metro's pipeline
};

/// The caller's view of a running campaign.  Every hook is optional.
struct CampaignHooks {
  /// Before each metro's pipeline starts, with the metro's name.
  std::function<void(const std::string& metro)> on_metro;
  /// After each checkpoint generation lands on disk, with the number this
  /// run has written.
  std::function<void(int written)> on_checkpoint;
};

/// How a campaign's run ended.
struct CampaignOutcome {
  /// Summary rows in metro order, resumed metros first.  After a stop the
  /// last row may be a metro the stop cut short; its exports then hold
  /// best-so-far results.
  std::vector<MetroSummary> metros;
  std::size_t metros_done = 0;       // complete metros, as checkpointed
  bool stopped_early = false;        // the run control ended the run
  std::size_t phases_truncated = 0;  // phases the stop cut in the last metro
  int checkpoints_written = 0;
  int checkpoint_failures = 0;       // generations that could not be written
  /// A generation at the checkpoint path continues this run: one was
  /// written, or the run resumed from that path.
  bool resumable = false;
};

class Campaign {
 public:
  /// Builds the world of `cfg` and selects its metros.  Creates no file or
  /// directory.  Throws CampaignError on an unknown metro.
  explicit Campaign(CampaignConfig cfg);

  /// Restores the newest good generation at `resume_path`.  Throws
  /// CampaignError when no generation loads, when it belongs to a run with
  /// another fingerprint, or when its payload is corrupt, down to trailing
  /// bytes, a next metro no run writes or a phase blob the metro's pipeline
  /// would refuse.  The campaign must not run after a failed resume.
  ResumePoint resume();

  /// Creates the output and checkpoint directories, then runs every metro
  /// not yet complete, once per campaign.  `control` (may be null) stops
  /// the run at the next work-unit boundary; the metro in flight still
  /// exports best-so-far results.  Throws CampaignError when the output
  /// directory cannot be made or an export cannot be written.
  CampaignOutcome run(const util::RunControl* control = nullptr,
                      const CampaignHooks& hooks = {});

 private:
  struct State {
    std::vector<MetroSummary> completed;
    core::StrategyPriors priors;
    std::size_t next_metro = 0;
    std::string phase_blob;  // in-progress pipeline state; empty = none
  };

  void write_checkpoint(const CampaignHooks& hooks, CampaignOutcome& out);
  MetroSummary publish(const core::MetroContext& ctx, const std::string& name,
                       const core::PipelineResult& result) const;

  CampaignConfig cfg_;
  World world_;
  std::vector<topology::MetroId> metros_;
  State state_;
  bool resumed_ = false;
};

}  // namespace metas::eval
