// The timed production path of the end-to-end benchmark: one submitting
// thread parses fixed-size batches of document bytes and submits each
// to a live-mode exec::ParallelFilter (closed loop, one batch in
// flight), and a ResultSink records when each match set arrives. For
// the churn workload, an open-loop subscription writer on the durable
// store and a 10 Hz /metrics scraper run beside it.
#ifndef XPRED_PERFBENCH_LIVE_RUN_H_
#define XPRED_PERFBENCH_LIVE_RUN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/epoch_manager.h"
#include "exec/parallel_filter.h"
#include "storage/durable_store.h"
#include "workload.h"

namespace xpred::perfbench {

/// One document as the sink received it.
struct DeliveredDoc {
  uint32_t pool_index = 0;  ///< Which generated document.
  uint32_t count = 0;       ///< Match-set size.
  bool ok = false;          ///< Per-document status.
  uint64_t digest = 0;      ///< DigestIds of the match set.
  double latency_ms = 0;    ///< Batch parse start -> sink receipt.
};

struct BatchRecord {
  uint64_t epoch = 0;  ///< ParallelFilter::last_batch_epoch().
  size_t first_doc = 0;
  size_t docs = 0;
  uint64_t end_ns = 0;  ///< When the batch's last match set arrived.
};

struct LiveRunResult {
  std::vector<DeliveredDoc> docs;
  std::vector<BatchRecord> batches;
  uint64_t start_ns = 0;  ///< Start of the timed run.
  double elapsed_s = 0;
  size_t parse_failures = 0;
  /// \name Traced runs only
  ///@{
  std::vector<double> filter_batch_ms;  ///< FilterBatch call durations.
  std::vector<double> busy_frac;        ///< Pool busy gauge per batch.
  uint64_t steals = 0;
  /// IndexEpochManager::Pin + release, mean of a burst per batch.
  std::vector<double> pin_ns;
  ///@}
};

/// Runs batches of documents drawn uniformly (seeded by \p seed) from
/// \p documents for \p seconds, after two untimed warm-up batches,
/// calling \p after_batch on the submitting thread after each one.
LiveRunResult RunLive(exec::ParallelFilter& filter,
                      core::IndexEpochManager& manager,
                      const std::vector<std::string>& documents,
                      size_t batch_docs, double seconds, bool trace,
                      uint64_t seed,
                      const std::function<void()>& after_batch);

/// \name Open-loop subscription writer (psd-live-churn)
///@{
struct WriterOp {
  bool subscribe = false;
  bool ok = false;
  core::ExprId sid = 0;
  uint32_t xpath = 0;  ///< Index into the writer's expression pool.
  uint64_t due_ns = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t visible_ns = 0;  ///< Return of the Publish carrying it.
};

struct WriterPublish {
  uint64_t epoch = 0;
  /// Ops [first_op, end_op) became visible at this epoch.
  size_t first_op = 0;
  size_t end_op = 0;
  double ms = 0;
};

/// Subscribes and unsubscribes on a fixed schedule, publishing every
/// publish_every_ops ops and checkpointing every checkpoint_every_s.
/// Every call is timed from its due time. Stop() publishes whatever
/// is still queued so each logged op has a visibility time.
class ChurnWriter {
 public:
  ChurnWriter(storage::DurableSubscriptionStore* store,
              const WorkloadSpec& spec,
              const std::vector<std::string>* pool, size_t next_pool,
              std::vector<core::ExprId> live, std::string directory,
              uint64_t seed);
  ~ChurnWriter() { Stop(); }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  void Start();
  void Stop();

  const std::vector<WriterOp>& ops() const { return ops_; }
  const std::vector<WriterPublish>& publishes() const { return publishes_; }
  const std::vector<double>& checkpoint_ms() const { return checkpoint_ms_; }
  size_t failed_calls() const { return failed_calls_; }
  size_t attempted_calls() const { return attempted_calls_; }
  /// WAL bytes appended while running (growth between compactions).
  uint64_t wal_bytes() const { return wal_bytes_; }

 private:
  void Run();
  void PublishPending();

  storage::DurableSubscriptionStore* store_;
  const WorkloadSpec& spec_;
  const std::vector<std::string>* pool_;
  size_t next_pool_;
  std::vector<core::ExprId> live_;
  std::string directory_;
  uint64_t seed_;

  std::vector<WriterOp> ops_;
  std::vector<WriterPublish> publishes_;
  std::vector<double> checkpoint_ms_;
  size_t published_ops_ = 0;
  size_t failed_calls_ = 0;
  size_t attempted_calls_ = 0;
  uint64_t wal_bytes_ = 0;

  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: uses every member above.
};

/// Fetches /metrics from 127.0.0.1:\p port at \p hz (open loop), one
/// net::HttpGet per scrape.
class Scraper {
 public:
  Scraper(uint16_t port, double hz) : port_(port), hz_(hz) {}
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Start();
  void Stop();

  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<double>& body_bytes() const { return body_bytes_; }
  size_t failures() const { return failures_; }
  size_t attempts() const { return attempts_; }

 private:
  void Run();

  uint16_t port_;
  double hz_;
  std::vector<double> latency_ms_;
  std::vector<double> body_bytes_;
  size_t failures_ = 0;
  size_t attempts_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: uses every member above.
};
///@}

/// Total size of the store's WAL segments in \p directory.
uint64_t WalBytes(const std::string& directory);

}  // namespace xpred::perfbench

#endif  // XPRED_PERFBENCH_LIVE_RUN_H_
