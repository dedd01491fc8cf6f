// Fault-injector unit tests: inert-profile bit-compatibility, seeded
// determinism, and the individual fault mechanisms (Markov outages, token
// buckets, permanent churn).
#include "traceroute/faults.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "test_world.hpp"

namespace metas::traceroute {
namespace {

TEST(FaultProfileTest, NoneProfileIsInert) {
  FaultProfile p = FaultProfile::none();
  EXPECT_FALSE(p.enabled());
  FaultInjector inj(p);
  EXPECT_FALSE(inj.enabled());
  for (int k = 0; k < 10; ++k)
    EXPECT_EQ(inj.pre_probe(k % 3, 0), ProbeStatus::kOk);
  // Inert injectors never advance the clock or roll dice.
  EXPECT_EQ(inj.clock(), 0u);
  EXPECT_EQ(inj.dead_vps(), 0u);
}

TEST(FaultProfileTest, NamedProfilesParse) {
  FaultProfile p;
  EXPECT_TRUE(parse_fault_profile("none", p));
  EXPECT_FALSE(p.enabled());
  EXPECT_TRUE(parse_fault_profile("flaky", p));
  EXPECT_TRUE(p.enabled());
  EXPECT_TRUE(parse_fault_profile("storm", p));
  EXPECT_TRUE(p.enabled());
  FaultProfile q = p;
  EXPECT_FALSE(parse_fault_profile("hurricane", q));
  // Unknown names leave the output untouched.
  EXPECT_EQ(q.loss, p.loss);
  EXPECT_EQ(q.seed, p.seed);
}

TEST(FaultInjectorTest, EngineWithNoneInjectorBitIdentical) {
  // Two engines over the same net, one with an inert injector attached:
  // every trace must come out bit-identical (the injector must not consume
  // randomness or perturb control flow).
  eval::World& w = metas::testing::shared_world();
  TracerouteEngine plain(w.net);
  TracerouteEngine faulty(w.net);
  FaultInjector inert(FaultProfile::none());
  faulty.set_fault_injector(&inert);

  util::Rng rng_a(99), rng_b(99);
  const std::size_t n = std::min<std::size_t>(w.targets.size(), 50);
  ASSERT_FALSE(w.vps.empty());
  for (std::size_t t = 0; t < n; ++t) {
    const VantagePoint& vp = w.vps[t % w.vps.size()];
    TraceResult a = plain.trace(vp, w.targets[t], rng_a);
    TraceResult b = faulty.trace(vp, w.targets[t], rng_b);
    ASSERT_EQ(a.status, b.status);
    ASSERT_EQ(a.reached, b.reached);
    ASSERT_EQ(a.dst_as, b.dst_as);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      ASSERT_EQ(a.hops[h].as, b.hops[h].as);
      ASSERT_EQ(a.hops[h].true_ingress, b.hops[h].true_ingress);
      ASSERT_EQ(a.hops[h].observed_ingress, b.hops[h].observed_ingress);
      ASSERT_EQ(a.hops[h].responsive, b.hops[h].responsive);
    }
  }
  EXPECT_EQ(plain.issued(), faulty.issued());
  EXPECT_EQ(inert.clock(), 0u);
}

TEST(FaultInjectorTest, SameSeedSameFaults) {
  FaultInjector a(FaultProfile::storm());
  FaultInjector b(FaultProfile::storm());
  int faults = 0;
  for (int k = 0; k < 2000; ++k) {
    int vp = k % 7;
    topology::MetroId metro = static_cast<topology::MetroId>(vp % 3);
    const ProbeStatus s = a.pre_probe(vp, metro);
    ASSERT_EQ(s, b.pre_probe(vp, metro)) << "tick " << k;
    if (s != ProbeStatus::kOk) ++faults;
  }
  EXPECT_EQ(a.dead_vps(), b.dead_vps());
  EXPECT_GT(faults, 0);
}

TEST(FaultInjectorTest, MarkovOutageRecovers) {
  FaultProfile p;  // outages only
  p.outage_start = 0.3;
  p.outage_end = 0.5;
  FaultInjector inj(p);
  int ok = 0, down = 0;
  bool recovered_after_down = false;
  bool seen_down = false;
  for (int k = 0; k < 800; ++k) {
    ProbeStatus s = inj.pre_probe(0, 0);
    if (s == ProbeStatus::kOk) {
      ++ok;
      if (seen_down) recovered_after_down = true;
    } else {
      ASSERT_EQ(s, ProbeStatus::kVpDown);
      ++down;
      seen_down = true;
    }
  }
  // Stationary downtime is 0.3/0.8 = 37.5%: both states must show up, and
  // the chain must recover after going down (transient, not permanent).
  EXPECT_GT(ok, 100);
  EXPECT_GT(down, 100);
  EXPECT_TRUE(recovered_after_down);
  EXPECT_EQ(inj.dead_vps(), 0u);
}

TEST(FaultInjectorTest, TokenBucketRateLimits) {
  FaultProfile p;  // rate limiting only, no refill
  p.bucket_capacity = 2.0;
  p.bucket_refill = 0.0;
  FaultInjector inj(p);
  std::vector<ProbeStatus> got;
  for (int k = 0; k < 5; ++k) got.push_back(inj.pre_probe(0, 0));
  EXPECT_EQ(got[0], ProbeStatus::kOk);
  EXPECT_EQ(got[1], ProbeStatus::kOk);
  EXPECT_EQ(got[2], ProbeStatus::kRateLimited);
  EXPECT_EQ(got[3], ProbeStatus::kRateLimited);
  EXPECT_EQ(got[4], ProbeStatus::kRateLimited);
  // A second VP has its own bucket.
  EXPECT_EQ(inj.pre_probe(1, 0), ProbeStatus::kOk);
}

TEST(FaultInjectorTest, TokenBucketRefills) {
  FaultProfile p;
  p.bucket_capacity = 1.0;
  p.bucket_refill = 0.5;
  FaultInjector inj(p);
  int ok = 0, limited = 0;
  for (int k = 0; k < 100; ++k) {
    ProbeStatus s = inj.pre_probe(0, 0);
    (s == ProbeStatus::kOk ? ok : limited) += 1;
  }
  // Refill of 0.5/tick sustains roughly one probe every two ticks.
  EXPECT_GE(ok, 45);
  EXPECT_LE(ok, 55);
  EXPECT_EQ(ok + limited, 100);
}

TEST(FaultInjectorTest, DeathIsPermanent) {
  FaultProfile p;
  p.death = 1.0;
  FaultInjector inj(p);
  // The first attempt creates the VP state at the current tick (no gap to
  // advance over), so it launches; every later attempt finds the VP dead.
  EXPECT_EQ(inj.pre_probe(0, 0), ProbeStatus::kOk);
  EXPECT_FALSE(inj.dead(0));
  for (int k = 0; k < 10; ++k) EXPECT_EQ(inj.pre_probe(0, 0), ProbeStatus::kVpDown);
  EXPECT_TRUE(inj.dead(0));
  EXPECT_EQ(inj.dead_vps(), 1u);
  EXPECT_EQ(inj.pre_probe(1, 0), ProbeStatus::kOk);
  EXPECT_EQ(inj.pre_probe(1, 0), ProbeStatus::kVpDown);
  EXPECT_EQ(inj.dead_vps(), 2u);
}

TEST(FaultInjectorTest, ProbeStatusNames) {
  EXPECT_STREQ(to_string(ProbeStatus::kOk), "ok");
  EXPECT_STREQ(to_string(ProbeStatus::kLost), "lost");
  EXPECT_STREQ(to_string(ProbeStatus::kVpDown), "vp_down");
  EXPECT_STREQ(to_string(ProbeStatus::kRateLimited), "rate_limited");
}

}  // namespace
}  // namespace metas::traceroute
