// The format-4 checkpoint payload's library types, spelled as container
// shapes apart from the library's own field lists.  A real payload must
// decode into these shapes exactly, so tests read and patch its fields
// through them instead of at byte offsets.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "traceroute/strategy.hpp"
#include "util/checkpoint.hpp"

namespace metas::testing {

using u64 = std::uint64_t;

using PriorsShape =
    std::tuple<std::array<double, traceroute::kNumStrategies>,
               std::array<double, traceroute::kNumStrategies>, int>;
// One record per metro an AS pair was seen at: the metro, then its
// direct, crossing and well-positioned-crossing flags.
using MetroRecord = std::tuple<int, bool, bool, bool>;
using PlaneShape = std::tuple<
    std::unordered_map<u64, std::vector<MetroRecord>>,  // evidence
    std::unordered_map<int, std::unordered_set<u64>>,   // well-positioned
    std::string, u64,                                   // RNG, health clock
    std::unordered_map<u64, std::pair<int, int>>,       // VP statistics
    std::unordered_map<int, std::pair<int, u64>>>;      // VP health
using FaultShape = std::tuple<
    u64, std::string,
    std::unordered_map<int, std::tuple<std::string, u64, bool, bool, double>>,  // VPs
    std::unordered_map<int, std::tuple<std::string, u64, bool>>>;              // metros
// One issued record: i, j, estimated probability, strategy, swapped,
// found link, found non-link, exploration, infrastructure failure, then
// the attempted, launched, faulted and spent counts.
using RecordShape = std::tuple<int, int, double, int, bool, bool, bool, bool,
                               bool, int, int, int, int>;
using PhaseShape = std::tuple<
    // Rank search: the holdout RNG and the (rank, MSE) history.
    std::tuple<std::string, std::vector<std::pair<int, double>>>,
    // Scheduler: RNG, history, fail streaks, give-ups, greedy order and
    // cursor, clock, the requeue queue (element 7) and the last
    // campaign's fill statistics and VP states.
    std::tuple<std::string, std::vector<RecordShape>, std::vector<int>,
               std::vector<bool>, std::vector<std::pair<double, u64>>, u64,
               u64, std::unordered_map<u64, std::pair<u64, int>>,
               std::tuple<int, u64, u64, u64, double, u64, u64>>>;

template <class Shape>
Shape decode_shape(const std::string& bytes) {
  Shape shape;
  util::checkpoint::Decoder dec(bytes);
  dec(shape);
  EXPECT_TRUE(dec.done()) << dec.remaining() << " bytes left over";
  return shape;
}

}  // namespace metas::testing
