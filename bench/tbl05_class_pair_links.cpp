// Table 5: links in the public BGP view vs additional measured+inferred
// links per AS-class pair, combined over the six focus metros.
//
// Paper shape: hypergiants quadruple and content providers nearly double
// their links vs the public view; Tier-1/2 and stubs grow < 1.3x.
#include "bench/common.hpp"

using namespace metas;

int main() {
  bench::print_header("Tbl. 5", "links per AS-class pair: public view vs added");
  eval::World w = eval::build_world(bench::bench_world_config());
  auto runs = bench::run_all_focus_metros(w);

  constexpr int K = topology::kNumAsClasses;
  std::vector<std::vector<std::size_t>> pub(K, std::vector<std::size_t>(K, 0));
  std::vector<std::vector<std::size_t>> add(K, std::vector<std::size_t>(K, 0));
  std::vector<std::size_t> pub_per_class(K, 0), add_per_class(K, 0);

  // Union of AS-level links across focus metros: public-visible vs
  // (measured or inferred) additions.
  bgp::LinkSet counted_pub, counted_add;
  auto cls = [&](topology::AsId a) {
    return static_cast<int>(w.net.ases[static_cast<std::size_t>(a)].cls);
  };
  auto record = [&](topology::AsId a, topology::AsId b, bool is_public) {
    auto& mat = is_public ? pub : add;
    auto& per = is_public ? pub_per_class : add_per_class;
    int ca = cls(a), cb = cls(b);
    mat[static_cast<std::size_t>(ca)][static_cast<std::size_t>(cb)]++;
    if (ca != cb) mat[static_cast<std::size_t>(cb)][static_cast<std::size_t>(ca)]++;
    per[static_cast<std::size_t>(ca)]++;
    if (ca != cb) per[static_cast<std::size_t>(cb)]++;
  };

  for (auto& run : runs) {
    const auto& ctx = *run.ctx;
    const std::size_t n = ctx.size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        topology::AsId a = ctx.as_at(i), b = ctx.as_at(j);
        bool in_public = w.public_view.contains(a, b);
        bool measured = false;
        if (const auto* ev = w.ms->evidence().find(a, b))
          measured = core::has_direct(*ev);
        bool inferred = run.result.ratings(i, j) >= run.result.threshold;
        if (in_public) {
          if (!counted_pub.contains(a, b)) {
            counted_pub.add(a, b);
            record(a, b, true);
          }
        } else if ((measured || inferred) && !counted_add.contains(a, b)) {
          counted_add.add(a, b);
          record(a, b, false);
        }
      }
    }
  }

  std::vector<std::string> headers{"class"};
  for (int c = 0; c < K; ++c)
    headers.push_back(topology::to_string(static_cast<topology::AsClass>(c)));
  headers.push_back("total pub");
  headers.push_back("total +added");
  headers.push_back("x increase");
  util::Table t(headers);
  for (int a = 0; a < K; ++a) {
    std::vector<std::string> row{
        topology::to_string(static_cast<topology::AsClass>(a))};
    for (int b = 0; b < K; ++b)
      row.push_back(util::Table::fmt(pub[static_cast<std::size_t>(a)]
                                        [static_cast<std::size_t>(b)]) +
                    "+" +
                    util::Table::fmt(add[static_cast<std::size_t>(a)]
                                        [static_cast<std::size_t>(b)]));
    std::size_t p = pub_per_class[static_cast<std::size_t>(a)];
    std::size_t x = add_per_class[static_cast<std::size_t>(a)];
    row.push_back(util::Table::fmt(p));
    row.push_back(util::Table::fmt(x));
    row.push_back(p == 0 ? "-" : util::Table::fmt(
        static_cast<double>(p + x) / static_cast<double>(p), 2));
    t.add_row(row);
  }
  t.print(std::cout);
  std::cout << "Cells are publicVisible+added. Paper shape: hypergiant and "
               "content rows grow the most; tier-1/2 and stub rows least.\n";
  return 0;
}
