// Figure 16 (Appx. G): links measured and inferred per metro, with metros
// processed in decreasing size; links are classified as existing (already
// found at an earlier metro), new, and new-between-previously-probed ASes.
//
// Paper shape: measured links are a small patterned slice of each bar;
// most links at each new metro are new (probing new locations keeps paying).
#include <set>

#include "bench/common.hpp"

using namespace metas;

int main() {
  bench::print_header("Fig. 16", "measured and inferred links per metro");
  eval::World w = eval::build_world(bench::bench_world_config());
  auto runs = bench::run_all_focus_metros(w);

  // Order metros by AS count, descending (the paper's x-axis).
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.ctx->size() > b.ctx->size();
  });

  bgp::LinkSet seen;           // AS pairs found at earlier metros
  std::set<topology::AsId> probed;
  util::Table t({"metro", "ASes", "measured", "inferred", "existing",
                 "new", "new-in-probed-ASes"});
  for (auto& run : runs) {
    const auto& ctx = *run.ctx;
    std::size_t measured = 0, inferred = 0, existing = 0, fresh = 0,
                fresh_probed = 0;
    bgp::LinkSet here;
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      for (std::size_t j = i + 1; j < ctx.size(); ++j) {
        topology::AsId a = ctx.as_at(i), b = ctx.as_at(j);
        bool direct = false;
        if (const auto* ev = w.ms->evidence().find(a, b))
          direct = core::has_direct(*ev);
        bool inf = run.result.ratings(i, j) >= run.result.threshold;
        if (!direct && !inf) continue;
        (direct ? measured : inferred)++;
        here.add(a, b);
        if (seen.contains(a, b)) {
          ++existing;
        } else {
          ++fresh;
          if (probed.count(a) != 0 && probed.count(b) != 0) ++fresh_probed;
        }
      }
    }
    t.add_row({run.name, util::Table::fmt(ctx.size()),
               util::Table::fmt(measured), util::Table::fmt(inferred),
               util::Table::fmt(existing), util::Table::fmt(fresh),
               util::Table::fmt(fresh_probed)});
    for (auto key : here.raw())
      seen.add(static_cast<topology::AsId>(key & 0xffffffffULL),
               static_cast<topology::AsId>(key >> 32));
    for (auto as : ctx.ases()) probed.insert(as);
  }
  t.print(std::cout);
  std::cout << "Paper shape: measured << inferred; most links at each metro "
               "are new, including between already-probed ASes (route "
               "diversity across locations).\n";
  return 0;
}
