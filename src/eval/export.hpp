// CSV exporters for pipeline outputs: inferred link lists, full rating
// matrices, and measurement logs -- the artifacts a downstream user of the
// real system would consume.
//
// Numbers are written as a default-state std::ostream writes them, whatever
// the stream's state: doubles as %.6g, integers in decimal, flags as 0/1.
#pragma once

#include <iosfwd>
#include <string>

#include "core/metro_context.hpp"
#include "core/pipeline.hpp"

namespace metas::eval {

/// Writes "as_a,as_b,rating,measured,inferred" rows for every pair whose
/// rating clears `threshold` (or that has a measured entry).
void export_links_csv(std::ostream& os, const core::MetroContext& ctx,
                      const core::PipelineResult& result, double threshold);

/// Writes the dense rating matrix with AS-id headers.
void export_ratings_csv(std::ostream& os, const core::MetroContext& ctx,
                        const core::PipelineResult& result);

/// Writes the targeted-measurement log (one row per traceroute).
void export_measurement_log_csv(std::ostream& os,
                                const core::MetroContext& ctx,
                                const core::PipelineResult& result);

}  // namespace metas::eval
