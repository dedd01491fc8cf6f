#include "traceroute/faults.hpp"

#include <algorithm>
#include <cmath>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace metas::traceroute {

namespace {

// Beyond this many ticks the two-state chains have mixed; catching up
// further would only burn cycles without changing the distribution of the
// state we sample, so lazy advancement replays at most this many steps.
constexpr std::uint64_t kMaxCatchup = 512;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

const char* to_string(ProbeStatus s) {
  switch (s) {
    case ProbeStatus::kOk: return "ok";
    case ProbeStatus::kLost: return "lost";
    case ProbeStatus::kVpDown: return "vp_down";
    case ProbeStatus::kRateLimited: return "rate_limited";
  }
  return "unknown";
}

bool FaultProfile::enabled() const {
  return outage_start > 0.0 || death > 0.0 || loss > 0.0 ||
         bucket_capacity > 0.0 || incident_start > 0.0;
}

FaultProfile FaultProfile::none() { return FaultProfile{}; }

FaultProfile FaultProfile::flaky() {
  FaultProfile p;
  // Stationary downtime outage_start / (outage_start + outage_end) ~= 10%,
  // the moderate churn regime of the acceptance criterion.
  p.outage_start = 0.028;
  p.outage_end = 0.25;
  p.death = 2e-5;
  p.loss = 0.05;
  p.bucket_capacity = 40.0;
  p.bucket_refill = 0.5;
  p.incident_start = 8e-4;
  p.incident_end = 0.1;
  return p;
}

FaultProfile FaultProfile::storm() {
  FaultProfile p;
  // ~40% stationary downtime, heavy loss, tight throttling, frequent
  // correlated metro incidents.
  p.outage_start = 0.10;
  p.outage_end = 0.15;
  p.death = 1e-4;
  p.loss = 0.15;
  p.bucket_capacity = 20.0;
  p.bucket_refill = 0.25;
  p.incident_start = 4e-3;
  p.incident_end = 0.08;
  return p;
}

bool parse_fault_profile(const std::string& name, FaultProfile& out) {
  if (name == "none") out = FaultProfile::none();
  else if (name == "flaky") out = FaultProfile::flaky();
  else if (name == "storm") out = FaultProfile::storm();
  else return false;
  return true;
}

FaultInjector::FaultInjector(FaultProfile profile)
    : profile_(profile),
      enabled_(profile.enabled()),
      loss_rng_(mix(profile.seed, 0x10551ULL)) {
  MAC_REQUIRE(profile.outage_start >= 0.0 && profile.outage_start <= 1.0,
              "outage_start=", profile.outage_start);
  MAC_REQUIRE(profile.outage_end > 0.0 && profile.outage_end <= 1.0,
              "outage_end=", profile.outage_end);
  MAC_REQUIRE(profile.death >= 0.0 && profile.death <= 1.0,
              "death=", profile.death);
  MAC_REQUIRE(profile.loss >= 0.0 && profile.loss <= 1.0,
              "loss=", profile.loss);
  MAC_REQUIRE(profile.bucket_capacity >= 0.0 && profile.bucket_refill >= 0.0,
              "bucket_capacity=", profile.bucket_capacity,
              " bucket_refill=", profile.bucket_refill);
  MAC_REQUIRE(profile.incident_start >= 0.0 && profile.incident_start <= 1.0,
              "incident_start=", profile.incident_start);
  MAC_REQUIRE(profile.incident_end > 0.0 && profile.incident_end <= 1.0,
              "incident_end=", profile.incident_end);
}

FaultInjector::VpState& FaultInjector::vp_state(int vp_id) {
  auto it = vps_.find(vp_id);
  if (it == vps_.end()) {
    VpState s(mix(profile_.seed, 2ULL * mac::checked_cast<std::uint64_t>(
                                            mac::checked_cast<std::uint32_t>(vp_id)) + 1));
    s.last_tick = tick_;
    s.tokens = profile_.bucket_capacity;  // buckets start full
    it = vps_.emplace(vp_id, std::move(s)).first;
  }
  return it->second;
}

FaultInjector::MetroState& FaultInjector::metro_state(topology::MetroId m) {
  auto it = metros_.find(m);
  if (it == metros_.end()) {
    MetroState s(mix(profile_.seed ^ 0xC0FFEEULL,
                     2ULL * mac::checked_cast<std::uint64_t>(
                                mac::checked_cast<std::uint32_t>(m))));
    s.last_tick = tick_;
    it = metros_.emplace(m, std::move(s)).first;
  }
  return it->second;
}

void FaultInjector::advance_vp(VpState& s) {
  if (s.dead) return;
  MAC_ASSERT(tick_ >= s.last_tick, "tick=", tick_, " last=", s.last_tick);
  std::uint64_t gap = tick_ - s.last_tick;
  if (gap == 0) return;
  s.last_tick = tick_;
  // Token refill has a closed form over the whole gap.
  if (profile_.bucket_capacity > 0.0)
    s.tokens = std::min(profile_.bucket_capacity,
                        s.tokens + profile_.bucket_refill *
                                       static_cast<double>(gap));
  // Permanent churn over the whole gap: one geometric draw.
  if (profile_.death > 0.0) {
    double survive = std::pow(1.0 - profile_.death, static_cast<double>(gap));
    if (s.rng.bernoulli(1.0 - survive)) {
      s.dead = true;
      return;
    }
  }
  // Markov up/down chain, replayed step by step (capped: see kMaxCatchup).
  std::uint64_t steps = std::min(gap, kMaxCatchup);
  for (std::uint64_t k = 0; k < steps; ++k) {
    if (s.down) {
      if (s.rng.bernoulli(profile_.outage_end)) s.down = false;
    } else {
      if (s.rng.bernoulli(profile_.outage_start)) s.down = true;
    }
  }
}

void FaultInjector::advance_metro(MetroState& s) {
  MAC_ASSERT(tick_ >= s.last_tick, "tick=", tick_, " last=", s.last_tick);
  std::uint64_t gap = tick_ - s.last_tick;
  if (gap == 0) return;
  s.last_tick = tick_;
  std::uint64_t steps = std::min(gap, kMaxCatchup);
  for (std::uint64_t k = 0; k < steps; ++k) {
    if (s.incident) {
      if (s.rng.bernoulli(profile_.incident_end)) s.incident = false;
    } else {
      if (s.rng.bernoulli(profile_.incident_start)) s.incident = true;
    }
  }
}

ProbeStatus FaultInjector::pre_probe(int vp_id, topology::MetroId vp_metro) {
  if (!enabled_) return ProbeStatus::kOk;
  ++tick_;
  // Correlated metro incident takes the whole hosting metro down.
  if (profile_.incident_start > 0.0 && vp_metro >= 0) {
    MetroState& ms = metro_state(vp_metro);
    advance_metro(ms);
    if (ms.incident) return ProbeStatus::kVpDown;
  }
  VpState& vs = vp_state(vp_id);
  advance_vp(vs);
  if (vs.dead || vs.down) return ProbeStatus::kVpDown;
  if (profile_.bucket_capacity > 0.0) {
    if (vs.tokens < 1.0) return ProbeStatus::kRateLimited;
    vs.tokens -= 1.0;
  }
  if (profile_.loss > 0.0 && loss_rng_.bernoulli(profile_.loss))
    return ProbeStatus::kLost;
  return ProbeStatus::kOk;
}

bool FaultInjector::dead(int vp_id) const {
  auto it = vps_.find(vp_id);
  return it != vps_.end() && it->second.dead;
}

std::size_t FaultInjector::dead_vps() const {
  std::size_t n = 0;
  for (const auto& [id, s] : vps_)  // lint: allow(unordered-iter) -- integer count over disjoint entries; order cannot leak
    if (s.dead) ++n;
  return n;
}

template <class Self, class Ar>
void FaultInjector::io(Self& s, Ar& ar) {
  ar(s.tick_, s.loss_rng_, s.vps_, s.metros_);
  // A chain advances to the clock and no further, so advance_vp and
  // advance_metro may assume tick_ >= last_tick; a bucket starts full and
  // spends a token only while it holds one.
  if constexpr (Ar::kLoading) {
    for (const auto& [id, vp] : s.vps_)  // lint: allow(unordered-iter) -- an all-of test; its answer does not depend on the order
      if (vp.last_tick > s.tick_ ||
          !(vp.tokens >= 0.0 && vp.tokens <= s.profile_.bucket_capacity))
        throw util::checkpoint::CheckpointError(
            "fault checkpoint has a VP chain no run reaches");
    for (const auto& [id, metro] : s.metros_)  // lint: allow(unordered-iter) -- an all-of test; its answer does not depend on the order
      if (metro.last_tick > s.tick_)
        throw util::checkpoint::CheckpointError(
            "fault checkpoint has a metro chain past the clock");
  }
}

void FaultInjector::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void FaultInjector::load(util::checkpoint::Decoder& dec) { io(*this, dec); }

}  // namespace metas::traceroute
