#include "core/measurement_system.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"

namespace metas::core {

using traceroute::categorize_target;
using traceroute::categorize_vp;
using traceroute::ProbeTarget;
using traceroute::VantagePoint;

// VP health while resilience is on, in targeted-measurement ticks (one per
// run_targeted call): that clock advances even while probes are blocked,
// so every backoff expires.  No wall-clock time is read.
constexpr int kQuarantineThreshold = 3;  // consecutive faulted attempts
constexpr std::uint64_t kBackoffBase = 32;
constexpr std::uint64_t kBackoffCap = 8192;

MeasurementSystem::MeasurementSystem(const topology::Internet& net,
                                     traceroute::TracerouteEngine& engine,
                                     std::vector<VantagePoint> vps,
                                     std::vector<ProbeTarget> targets,
                                     std::uint64_t seed)
    : net_(&net),
      engine_(&engine),
      vps_(std::move(vps)),
      targets_(std::move(targets)),
      rng_(seed) {
  rels_.providers_of = &net.providers;
  targets_by_as_.assign(net.num_ases(), {});
  for (std::size_t t = 0; t < targets_.size(); ++t)
    targets_by_as_[mac::checked_cast<std::size_t>(targets_[t].as)].push_back(t);
}

traceroute::TraceObservations MeasurementSystem::process_trace(
    const traceroute::TraceResult& trace) {
  auto obs = traceroute::extract_observations(trace, rels_, rng_);
  evidence_.ingest(trace, obs, wp_);
  if (view_) {
    for (const auto& l : obs.links)
      observed_.push_back(topology::pair_key(l.a, l.b));
    for (const auto& t : obs.transits)
      observed_.push_back(topology::pair_key(t.a, t.b));
  }
  return obs;
}

void MeasurementSystem::run_public_archives(std::size_t count) {
  if (vps_.empty() || targets_.empty()) return;
  MAC_SPAN("measurement.public_archives");
  // Public archives are heavily skewed toward popular destinations (content
  // and eyeball networks): most traceroutes in RIPE Atlas / Ark target a
  // small set of well-known services, leaving edge-AS rows unmeasured --
  // the bias the targeted-measurement scheduler exists to correct (§3.3).
  std::vector<double> weights(targets_.size());
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    const auto& node = net_->ases[mac::checked_cast<std::size_t>(targets_[t].as)];
    double popularity = std::log1p(node.features.eyeballs) +
                        3.0 * std::log1p(node.features.customer_cone) +
                        (node.cls == topology::AsClass::kHypergiant ||
                                 node.cls == topology::AsClass::kContent
                             ? 12.0
                             : 0.0);
    weights[t] = 0.2 + popularity * popularity;
  }
  const util::CumulativeWeights target_weights(weights);
  for (std::size_t k = 0; k < count; ++k) {
    const VantagePoint& vp = rng_.pick(vps_);
    const ProbeTarget& tgt = targets_[rng_.weighted_index(target_weights)];
    if (tgt.as == vp.as) continue;
    auto trace = engine_->trace(vp, tgt, rng_);
    // Archives degrade gracefully: a faulted probe simply contributes no
    // observation (the real archives only contain completed traceroutes).
    if (trace.status != traceroute::ProbeStatus::kOk) continue;
    MAC_COUNT("measurement.public_traces_processed");
    // Well-positioned checks must see the tracker state *before* this trace.
    process_trace(trace);
    wp_.ingest(trace);
  }
}

bool MeasurementSystem::vp_usable(int vp_id) const {
  const traceroute::FaultInjector* inj = engine_->fault_injector();
  if (inj == nullptr || !inj->enabled()) return true;
  if (inj->dead(vp_id)) return false;
  if (!resilience_) return true;
  auto it = vp_health_.find(vp_id);
  return it == vp_health_.end() || it->second.blocked_until <= health_clock_;
}

void MeasurementSystem::note_vp_ok(int vp_id) {
  if (vp_health_.empty()) return;
  auto it = vp_health_.find(vp_id);
  if (it != vp_health_.end()) it->second.strikes = 0;
}

void MeasurementSystem::note_vp_fault(int vp_id,
                                      traceroute::ProbeStatus status) {
  if (!resilience_) return;
  VpHealth& h = vp_health_[vp_id];
  ++h.strikes;
  auto backoff = [&](int doublings, std::uint64_t base) {
    std::uint64_t d = base << std::min(doublings, 16);
    return health_clock_ + std::min(d, kBackoffCap);
  };
  if (status == traceroute::ProbeStatus::kRateLimited) {
    // Exponential backoff: the platform is telling us to slow down.
    h.blocked_until = backoff(h.strikes - 1, kBackoffBase);
    MAC_COUNT("measurement.backoffs_applied");
  } else if (h.strikes >= kQuarantineThreshold) {
    // Repeatedly failing VP: quarantine, doubling with every extra strike.
    h.blocked_until = backoff(h.strikes - kQuarantineThreshold,
                              kBackoffBase * 4);
    // Cumulative quarantine *events*; the DegradationReport's
    // quarantined_vps is the distinct-VP state at campaign end.
    MAC_COUNT("measurement.vps_quarantined");
  }
}

std::size_t MeasurementSystem::quarantined_vps() const {
  const traceroute::FaultInjector* inj = engine_->fault_injector();
  if (inj == nullptr || vp_health_.empty()) return 0;
  std::size_t n = 0;
  for (const auto& [id, h] : vp_health_)  // lint: allow(unordered-iter) -- integer count over disjoint entries; order cannot leak
    if (h.blocked_until > health_clock_ && !inj->dead(id)) ++n;
  return n;
}

std::size_t MeasurementSystem::dead_vps() const {
  const traceroute::FaultInjector* inj = engine_->fault_injector();
  return inj == nullptr ? 0 : inj->dead_vps();
}

CandidateIndex::CandidateIndex(const MetroContext& ctx,
                               const MeasurementSystem& ms)
    : metro_(ctx.metro()) {
  const topology::Internet& net = *ms.net_;
  std::vector<std::pair<std::uint32_t, int>> scanned;  // (index, category)
  auto group = [&scanned](int categories, Groups& to) {
    for (int c = 0; c < categories; ++c) {
      for (const auto& [index, category] : scanned)
        if (category == c) to.items.push_back(index);
      to.begin.push_back(mac::checked_cast<std::uint32_t>(to.items.size()));
    }
    scanned.clear();
  };
  vps_.items.reserve(ctx.size() * ms.vps_.size());  // one category per VP
  for (AsId as : ctx.ases()) {
    for (std::size_t v = 0; v < ms.vps_.size(); ++v)
      scanned.emplace_back(mac::checked_cast<std::uint32_t>(v),
                           categorize_vp(net, ms.vps_[v], as, metro_));
    group(traceroute::kVpCategories, vps_);
    for (AsId member : net.cones[mac::checked_cast<std::size_t>(as)]) {
      const auto m = mac::checked_cast<std::size_t>(member);
      for (std::size_t t : ms.targets_by_as_[m])
        scanned.emplace_back(
            mac::checked_cast<std::uint32_t>(t),
            categorize_target(net, ms.targets_[t], as, metro_));
    }
    group(traceroute::kTargetCategories, targets_);
  }
}

const CandidateIndex& MeasurementSystem::candidates(const MetroContext& ctx) {
  if (!candidates_ || candidates_->metro() != ctx.metro()) {
    candidates_.reset();  // one metro's lists at a time
    candidates_.emplace(ctx, *this);
  }
  return *candidates_;
}

MeasurementOutcome MeasurementSystem::run_targeted(const MetroContext& ctx,
                                                   int i, int j, int vp_cat,
                                                   int tgt_cat, bool swapped) {
  const CandidateIndex& index = candidates(ctx);
  const auto near_at = mac::checked_cast<std::size_t>(swapped ? j : i);
  const auto far_at = mac::checked_cast<std::size_t>(swapped ? i : j);
  const AsId as_i = ctx.as_at(mac::checked_cast<std::size_t>(i));
  const AsId as_j = ctx.as_at(mac::checked_cast<std::size_t>(j));
  const AsId near = ctx.as_at(near_at);
  MeasurementOutcome out;
  ++health_clock_;
  MAC_COUNT("measurement.targeted_runs");

  // Candidate vantage points in the requested category, weighted by their
  // historical score for detecting links of the near-side AS.  Dead,
  // quarantined, and backing-off VPs are excluded up front (a no-op without
  // fault injection).
  std::vector<std::uint32_t> cand_vps;
  std::vector<double> weights;
  bool any_sidelined = false;
  for (std::uint32_t v : index.vps(near_at, vp_cat)) {
    if (!vp_usable(vps_[v].id)) {
      any_sidelined = true;
      continue;
    }
    cand_vps.push_back(v);
    weights.push_back(vp_score(vps_[v].id, near));
  }
  if (cand_vps.empty()) {
    // A category emptied by dead/quarantined VPs is an infrastructure
    // failure (the strategy may work once they recover), not a missing
    // strategy.
    out.infra_failure = any_sidelined;
    return out;
  }

  // Candidate targets: far AS itself plus its customer cone.
  const auto cand_tgts = index.targets(far_at, tgt_cat);
  if (cand_tgts.empty()) return out;

  std::size_t pick_idx = rng_.weighted_index(weights);
  const ProbeTarget& tgt = targets_[cand_tgts[rng_.index(cand_tgts.size())]];
  if (vps_[cand_vps[pick_idx]].as == tgt.as) return out;

  // Attempt loop with failover: a faulted attempt retries from the
  // next-best usable candidate by vp_score (deterministic tie-break on
  // candidate order).  Without fault injection every probe completes and
  // the loop body runs exactly once, with the exact legacy rng draws.
  const traceroute::FaultInjector* inj = engine_->fault_injector();
  const bool faults_active = inj != nullptr && inj->enabled();
  const int max_attempts = faults_active && resilience_ ? kMaxProbeAttempts : 1;
  std::vector<char> tried(cand_vps.size(), 0);
  traceroute::TraceResult trace;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const VantagePoint& vp = vps_[cand_vps[pick_idx]];
    tried[pick_idx] = 1;
    ++out.attempts;
    trace = engine_->trace(vp, tgt, rng_);
    out.status = trace.status;
    if (trace.status == traceroute::ProbeStatus::kOk ||
        trace.status == traceroute::ProbeStatus::kLost)
      ++out.launched;
    if (trace.status == traceroute::ProbeStatus::kOk) {
      note_vp_ok(vp.id);
      break;
    }
    ++out.faulted;
    note_vp_fault(vp.id, trace.status);
    // Fail over to the highest-scoring untried candidate still usable.
    std::size_t next = cand_vps.size();
    double best_w = -1.0;
    for (std::size_t c = 0; c < cand_vps.size(); ++c) {
      if (tried[c] != 0 || !vp_usable(vps_[cand_vps[c]].id)) continue;
      if (weights[c] > best_w) {
        best_w = weights[c];
        next = c;
      }
    }
    if (next == cand_vps.size()) break;  // nobody left to fail over to
    pick_idx = next;
    MAC_COUNT("measurement.failovers");
  }
  // Spent vs blocked: launched attempts cost budget; attempts the platform
  // swallowed before launch (VP down, rate-limited at the gate) do not.
  MAC_COUNT_N("measurement.budget_spent", out.launched);
  MAC_COUNT_N("measurement.budget_blocked", out.attempts - out.launched);
  if (out.status != traceroute::ProbeStatus::kOk) {
    // Every attempt was eaten by the infrastructure: nothing observed, and
    // nothing learned about the link or the strategy.
    out.infra_failure = true;
    return out;
  }

  // Informativeness checks (like evidence ingestion) must see the
  // well-positioned tracker state *before* this trace, so wp_.ingest runs
  // last.
  const auto obs = process_trace(trace);

  for (const auto& l : obs.links) {
    if ((l.a == as_i && l.b == as_j) || (l.a == as_j && l.b == as_i)) {
      out.revealed_direct = true;
      break;
    }
  }
  for (const auto& t : obs.transits) {
    if (!((t.a == as_i && t.b == as_j) || (t.a == as_j && t.b == as_i)))
      continue;
    MetroId tm = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
    if (tm < 0) continue;
    if (wp_.well_positioned(trace.vp_id, t.a, tm)) {
      out.revealed_transit = true;
      break;
    }
  }
  wp_.ingest(trace);
  if (out.informative()) MAC_COUNT("measurement.informative_results");

  auto key = (mac::checked_cast<std::uint64_t>(
                  mac::checked_cast<std::uint32_t>(trace.vp_id)) << 32) |
             mac::checked_cast<std::uint32_t>(near);
  auto& st = vp_stats_[key];
  ++st.first;
  if (out.informative()) ++st.second;
  return out;
}

EstimatedMatrix MeasurementSystem::build_matrix(const MetroContext& ctx) const {
  return build_estimated_matrix(ctx, evidence_,
                                evidence_.consistent_sets(ctx));
}

const EstimatedMatrix& MeasurementSystem::matrix(const MetroContext& ctx) {
  const bool same_metro = view_ && view_->metro == ctx.metro();
  if (same_metro && observed_.empty()) return view_->e;
  ConsistentSets consistent = evidence_.consistent_sets(ctx);
  if (same_metro && consistent == view_->consistent) {
    // Evidence only grows, and only for observed pairs; under unchanged
    // consistent sets no other entry can move.
    std::sort(observed_.begin(), observed_.end());
    observed_.erase(std::unique(observed_.begin(), observed_.end()),
                    observed_.end());
    refresh_estimated_pairs(view_->e, ctx, evidence_, consistent, observed_);
    MAC_COUNT("measurement.matrices_refreshed");
  } else {
    view_.reset();  // free the stale view first: one n x n E_m at a time
    EstimatedMatrix e = build_estimated_matrix(ctx, evidence_, consistent);
    view_ = MatrixView{ctx.metro(), std::move(consistent), std::move(e)};
    MAC_COUNT("measurement.matrices_rebuilt");
  }
  observed_.clear();
  return view_->e;
}

EstimatedMatrix MeasurementSystem::take_matrix(const MetroContext& ctx) {
  matrix(ctx);
  EstimatedMatrix e = std::move(view_->e);
  view_.reset();
  return e;
}

template <class Self, class Ar>
void MeasurementSystem::io(Self& s, Ar& ar) {
  ar(s.evidence_, s.wp_, s.rng_, s.health_clock_,
     s.vp_stats_, s.vp_health_);
}

void MeasurementSystem::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void MeasurementSystem::load(util::checkpoint::Decoder& dec) {
  view_.reset();
  observed_.clear();
  io(*this, dec);
  if (!evidence_.metros_valid(net_->metros.size()))
    throw util::checkpoint::CheckpointError(
        "MeasurementSystem: evidence metros out of order or outside the world");
  // vp_score turns a VP's counts into a sampling weight, and a strike
  // count sizes a backoff shift.
  for (const auto& [key, st] : vp_stats_)  // lint: allow(unordered-iter) -- an all-of test; its answer does not depend on the order
    if (st.second < 0 || st.second > st.first)
      throw util::checkpoint::CheckpointError(
          "MeasurementSystem: VP statistics outside 0 <= confirmed <= "
          "attempts");
  for (const auto& [id, h] : vp_health_)  // lint: allow(unordered-iter) -- an all-of test; its answer does not depend on the order
    if (h.strikes < 0)
      throw util::checkpoint::CheckpointError(
          "MeasurementSystem: negative VP health strikes");
}

double MeasurementSystem::vp_score(int vp_id, AsId i) const {
  auto key = (mac::checked_cast<std::uint64_t>(mac::checked_cast<std::uint32_t>(vp_id)) << 32) |
             mac::checked_cast<std::uint32_t>(i);
  auto it = vp_stats_.find(key);
  if (it == vp_stats_.end()) return 0.5;  // unseen VPs get a neutral score
  return (it->second.second + 1.0) / (it->second.first + 2.0);
}

}  // namespace metas::core
