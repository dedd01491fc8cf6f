// Working context for running metAScritic at one metro: the AS universe and
// its dense matrix indexing.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/internet.hpp"
#include "util/numeric.hpp"

namespace metas::core {

using topology::AsId;
using topology::MetroId;

/// Binds a metro to the ordered AS universe its matrices are indexed by.
class MetroContext {
 public:
  MetroContext(const topology::Internet& net, MetroId metro)
      : net_(&net), metro_(metro), index_(net.num_ases(), -1) {
    const auto& m = net.metros.at(mac::checked_cast<std::size_t>(metro));
    ases_ = m.ases;
    for (std::size_t i = 0; i < ases_.size(); ++i)
      index_.at(mac::checked_cast<std::size_t>(ases_[i])) =
          mac::checked_cast<int>(i);
  }

  const topology::Internet& net() const { return *net_; }
  MetroId metro() const { return metro_; }
  const std::vector<AsId>& ases() const { return ases_; }
  std::size_t size() const { return ases_.size(); }

  /// Local matrix index of an AS, or -1 if not present at the metro
  /// (including ids outside the world).
  int local(AsId as) const {
    return as < 0 ? -1 : local_of(mac::checked_cast<std::uint64_t>(as));
  }
  /// True when both ends of a topology::pair_key() are present at the
  /// metro.  The key's halves are read unsigned, so a key naming an AS
  /// outside the world (e.g. from a corrupted checkpoint) is simply absent.
  bool has_pair(std::uint64_t key) const {
    return local_of(key & 0xffffffffULL) >= 0 && local_of(key >> 32) >= 0;
  }
  AsId as_at(std::size_t i) const { return ases_.at(i); }

 private:
  int local_of(std::uint64_t id) const {
    return id < index_.size() ? index_[mac::checked_cast<std::size_t>(id)] : -1;
  }

  const topology::Internet* net_;  // lint: allow(view-member) -- the World owns the Internet; contexts are per-metro views over it
  MetroId metro_;
  std::vector<AsId> ases_;
  std::vector<int> index_;  // AS id -> local index, -1 when absent
};

}  // namespace metas::core
