#include "eval/export.hpp"

#include <array>
#include <charconv>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/numeric.hpp"

namespace metas::eval {
namespace {

/// One CSV row at a time: fields are formatted with std::to_chars into a
/// reused buffer, and the finished row goes to the stream in one write.
class CsvRow {
 public:
  explicit CsvRow(std::ostream& os) : os_(os) {}

  /// Appends `v` as a default-state std::ostream writes it: %.6g for a
  /// double, decimal for an integer, 0/1 for a bool.
  template <typename T>
  CsvRow& field(T v) {
    if (!line_.empty()) line_ += ',';
    if constexpr (std::is_same_v<T, bool>) {
      line_ += v ? '1' : '0';
    } else {
      std::array<char, 32> buf{};
      char* const first = buf.data();
      char* const last = first + buf.size();
      const std::to_chars_result res = [&] {
        if constexpr (std::is_floating_point_v<T>)
          return std::to_chars(first, last, v, std::chars_format::general, 6);
        else
          return std::to_chars(first, last, v);
      }();
      line_.append(first, res.ptr);
    }
    return *this;
  }

  /// Appends a literal field.
  CsvRow& text(std::string_view s) {
    if (!line_.empty()) line_ += ',';
    line_ += s;
    return *this;
  }

  /// Ends the row and writes it.
  void end() {
    line_ += '\n';
    os_.write(line_.data(), mac::checked_cast<std::streamsize>(line_.size()));
    line_.clear();
  }

 private:
  std::ostream& os_;  // lint: allow(view-member) -- caller's stream; one export call
  std::string line_;
};

}  // namespace

void export_links_csv(std::ostream& os, const core::MetroContext& ctx,
                      const core::PipelineResult& result, double threshold) {
  os << "as_a,as_b,rating,measured,inferred\n";
  CsvRow row(os);
  const std::size_t n = ctx.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double rating = result.ratings(i, j);
      bool measured =
          result.estimated.filled(i, j) && result.estimated.value(i, j) > 0;
      bool inferred = rating >= threshold;
      if (!measured && !inferred) continue;
      row.field(ctx.as_at(i))
          .field(ctx.as_at(j))
          .field(rating)
          .field(measured)
          .field(inferred)
          .end();
    }
  }
}

void export_ratings_csv(std::ostream& os, const core::MetroContext& ctx,
                        const core::PipelineResult& result) {
  const std::size_t n = ctx.size();
  CsvRow row(os);
  row.text("as");
  for (std::size_t j = 0; j < n; ++j) row.field(ctx.as_at(j));
  row.end();
  for (std::size_t i = 0; i < n; ++i) {
    row.field(ctx.as_at(i));
    for (std::size_t j = 0; j < n; ++j)
      row.field(i == j ? 0.0 : result.ratings(i, j));
    row.end();
  }
}

void export_measurement_log_csv(std::ostream& os,
                                const core::MetroContext& ctx,
                                const core::PipelineResult& result) {
  os << "as_a,as_b,estimated_prob,ran,informative,found_link,found_nonlink,"
        "exploration,infra_failure,attempts\n";
  CsvRow row(os);
  for (const auto& rec : result.measurement_log) {
    if (rec.i < 0 || rec.j < 0) continue;
    row.field(ctx.as_at(mac::checked_cast<std::size_t>(rec.i)))
        .field(ctx.as_at(mac::checked_cast<std::size_t>(rec.j)))
        .field(rec.estimated_prob)
        .field(rec.ran())
        .field(rec.informative())
        .field(rec.found_existence)
        .field(rec.found_nonexistence)
        .field(rec.exploration)
        .field(rec.infra_failure)
        .field(rec.attempts)
        .end();
  }
}

}  // namespace metas::eval
