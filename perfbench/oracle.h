// Correctness oracles of the end-to-end benchmark: a serial single
// core::Matcher rebuilt from the subscription table the run filtered
// against, and a sampled cross-check against the brute-force XPath
// evaluator. Used only outside the timed region.
#ifndef XPRED_PERFBENCH_ORACLE_H_
#define XPRED_PERFBENCH_ORACLE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/epoch_manager.h"
#include "core/matcher.h"
#include "live_run.h"
#include "workload.h"
#include "xml/document.h"

namespace xpred::perfbench {

class Oracle {
 public:
  explicit Oracle(const core::Matcher::Options& options)
      : matcher_(options) {}

  /// Adds the subscription the live system issued as \p sid. Sids are
  /// dense, so replaying a table in sid order reproduces them; a
  /// mismatch means the replay diverged.
  Status Subscribe(core::ExprId sid, std::string_view xpath);
  Status Unsubscribe(core::ExprId sid);

  /// Sorted match set of \p document.
  Status Filter(const xml::Document& document,
                std::vector<core::ExprId>* matched);

  /// Checks \p pairs sampled (document, subscription) pairs against
  /// xpath::Evaluator: half drawn from \p matched, half from all live
  /// subscriptions. Returns the number of disagreements.
  size_t CheckEvaluator(const xml::Document& document,
                        const std::vector<core::ExprId>& matched,
                        size_t pairs, Random* rng) const;

 private:
  core::Matcher matcher_;
  std::vector<std::string> xpaths_;
  std::vector<core::ExprId> live_sids_;
  std::vector<size_t> live_slot_;  ///< sid -> index in live_sids_.
};

/// What the post-run checks covered and found.
struct CheckResult {
  size_t docs = 0;   ///< Delivered match sets compared with the oracle.
  size_t pairs = 0;  ///< Evaluator pairs checked.
  size_t wrong = 0;  ///< Wrong match sets, disagreeing pairs, oracle errors.
  std::vector<uint32_t> pool_indices;  ///< Documents checked.
};

/// Static subscriptions (\p table: sid, xpath): every delivery of one
/// document must carry the same match set, and up to \p docs distinct
/// documents drawn with \p rng are re-filtered by the oracle.
CheckResult CheckStatic(
    const LiveRunResult& live, const Inputs& in,
    const core::Matcher::Options& options,
    const std::vector<std::pair<core::ExprId, std::string>>& table,
    size_t docs, size_t pairs, Random* rng);

/// Live churn: up to \p batches batches drawn with \p rng are checked
/// against an oracle advanced to each batch's pinned epoch, starting
/// from the recovered table \p base and replaying the writer's log of
/// which ops each Publish carried.
CheckResult CheckChurn(const LiveRunResult& live, const Inputs& in,
                       const core::Matcher::Options& options,
                       const core::IndexEpochManager::SubscriptionExport& base,
                       const ChurnWriter& writer, size_t batches,
                       size_t pairs, Random* rng);

}  // namespace xpred::perfbench

#endif  // XPRED_PERFBENCH_ORACLE_H_
