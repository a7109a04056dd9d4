// Serial replays of a fixed document sample against one pinned
// matcher, for the per-layer metrics: an untraced pass timing
// Document::Parse and Matcher::FilterDocument, and a traced pass that
// times each layer's public entry point and keeps the spans in memory.
#ifndef XPRED_PERFBENCH_LAYER_TRACE_H_
#define XPRED_PERFBENCH_LAYER_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/matcher.h"

namespace xpred::perfbench {

/// Deterministic per-pass totals over the document sample.
struct LayerCounts {
  uint64_t docs = 0;
  uint64_t bytes = 0;
  uint64_t paths = 0;
  uint64_t distinct_paths = 0;  ///< Paths not skipped by the memo.
  uint64_t predicate_matches = 0;
  uint64_t occurrence_runs = 0;
  uint64_t matches = 0;
};

/// Per-document mean nanoseconds.
struct LayerTimes {
  double parse = 0;
  double extract = 0;
  double encode = 0;     ///< Publication::Assign on distinct paths.
  double predicate = 0;  ///< PredicateIndex::Match on distinct paths.
  double expression = 0; ///< ProcessStreamedPath minus the two above.
  double collect = 0;    ///< EndDocumentStream.
  double traced_filter = 0;  ///< Traced wall time minus parse.
};

struct SerialReplay {
  LayerCounts counts;  ///< From the first traced pass.
  LayerTimes traced;
  double untraced_parse_ns = 0;   ///< Per document.
  double untraced_filter_ns = 0;  ///< FilterDocument, per document.
  size_t spans_kept = 0;
  size_t spans_dropped = 0;
};

/// Alternates untraced and traced passes over \p documents until
/// \p seconds have passed (at least one of each). Spans of the traced
/// passes are written to \p span_path (tab-separated: id, parent,
/// name, document, start_ns, end_ns) when non-empty. Returns false
/// when a document fails to parse or filter.
bool RunSerialReplay(const core::Matcher& matcher,
                     const std::vector<std::string>& documents,
                     double seconds, const std::string& span_path,
                     SerialReplay* out);

/// Paths and memo-distinct paths of one document (cheap; used to
/// record the memo share of untraced runs).
void CountPaths(const std::string& document, uint64_t* paths,
                uint64_t* distinct);

}  // namespace xpred::perfbench

#endif  // XPRED_PERFBENCH_LAYER_TRACE_H_
