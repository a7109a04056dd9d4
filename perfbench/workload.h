// Workload definitions of the end-to-end benchmark and the seeded
// generation of their inputs: XPath subscription strings and XML
// document bytes. The program under test only ever sees these.
#ifndef XPRED_PERFBENCH_WORKLOAD_H_
#define XPRED_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xml/generator.h"
#include "xpath/query_generator.h"

namespace xpred::perfbench {

struct WorkloadSpec {
  std::string name;
  /// One line: which layer this workload loads, and why.
  std::string why;
  bool psd = false;  ///< PSD-like DTD (else NITF-like).
  size_t subscriptions = 0;
  xpath::QueryGenerator::Options query;
  /// Keep only generated expressions that carry an attribute filter.
  bool require_filter = false;
  xml::DocumentGenerator::Options docs;
  /// Distinct documents generated; batches draw from them.
  size_t doc_pool = 0;
  /// Documents per FilterBatch call (closed loop: one batch in flight).
  size_t batch_docs = 0;
  /// Fixed document sample replayed serially by the traced run.
  size_t trace_docs = 0;
  /// Delivered documents re-filtered by the oracle matcher.
  size_t oracle_docs = 0;

  /// \name Live churn (durable store, open-loop writer, scraper)
  ///@{
  bool live_churn = false;
  double writer_ops_per_s = 0;
  size_t publish_every_ops = 0;
  double checkpoint_every_s = 0;
  /// Ops written after the snapshot and before timing starts, so the
  /// timed recovery replays a WAL tail.
  size_t wal_tail_ops = 0;
  /// Fresh expressions the writer subscribes from.
  size_t writer_pool = 0;
  double scrape_hz = 0;
  ///@}
};

const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

/// Generator parameters of \p spec as a JSON object.
std::string SpecJson(const WorkloadSpec& spec);

struct Inputs {
  std::vector<std::string> subscriptions;
  std::vector<std::string> writer_subscriptions;
  std::vector<std::string> documents;  ///< XML bytes.
  size_t document_bytes = 0;
};

/// Deterministic in (\p spec, \p seed).
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// SplitMix64 step: derives independent sub-seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

}  // namespace xpred::perfbench

#endif  // XPRED_PERFBENCH_WORKLOAD_H_
