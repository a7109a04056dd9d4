#include "live_run.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <span>
#include <system_error>
#include <utility>

#include "common.h"
#include "common/random.h"
#include "net/http_client.h"
#include "obs/metrics.h"
#include "xml/document.h"

namespace xpred::perfbench {
namespace {

/// Pin + release pairs timed together per batch: one pair is close to
/// the clock's resolution.
constexpr int kPinsPerSample = 64;

/// Records arrival time, status and a digest of every match set. The
/// comparison against the oracle happens after the timed region.
class RecordingSink : public exec::ResultSink {
 public:
  void Begin(std::vector<DeliveredDoc>* out, uint64_t start_ns,
             const std::vector<uint32_t>* pool_index) {
    out_ = out;
    start_ns_ = start_ns;
    pool_index_ = pool_index;
  }

  void OnDocument(size_t doc_index, const Status& status,
                  std::span<const core::ExprId> matched) override {
    DeliveredDoc doc;
    doc.latency_ms = static_cast<double>(NowNanos() - start_ns_) / 1e6;
    doc.pool_index = (*pool_index_)[doc_index];
    doc.count = static_cast<uint32_t>(matched.size());
    doc.ok = status.ok();
    doc.digest = DigestIds(matched);
    out_->push_back(doc);
  }

 private:
  std::vector<DeliveredDoc>* out_ = nullptr;
  uint64_t start_ns_ = 0;
  const std::vector<uint32_t>* pool_index_ = nullptr;
};

/// Sleeps until \p due_ns in short slices; false when \p stop was set
/// first.
bool WaitUntil(uint64_t due_ns, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    const uint64_t now = NowNanos();
    if (now >= due_ns) return true;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<uint64_t>(due_ns - now, 5000000)));
  }
  return false;
}

}  // namespace

LiveRunResult RunLive(exec::ParallelFilter& filter,
                      core::IndexEpochManager& manager,
                      const std::vector<std::string>& documents,
                      size_t batch_docs, double seconds, bool trace,
                      uint64_t seed,
                      const std::function<void()>& after_batch) {
  LiveRunResult result;
  result.docs.reserve(1 << 16);
  std::vector<DeliveredDoc> warmup_docs;
  std::vector<xml::Document> docs(batch_docs);
  std::vector<exec::DocRef> refs(batch_docs);
  std::vector<uint32_t> pool_index(batch_docs);
  RecordingSink sink;
  Random draw(seed);

  obs::MetricsRegistry* registry = filter.metrics_registry();
  const std::vector<obs::Label> labels = {{"engine", "parallel"}};

  auto run_batch = [&](bool timed) {
    const uint64_t start = NowNanos();
    size_t n = 0;
    for (size_t i = 0; i < batch_docs; ++i) {
      const size_t idx = draw.Uniform(documents.size());
      Result<xml::Document> doc = xml::Document::Parse(documents[idx]);
      if (!doc.ok()) {
        ++result.parse_failures;
        continue;
      }
      docs[n] = std::move(*doc);
      refs[n].doc = &docs[n];
      pool_index[n] = static_cast<uint32_t>(idx);
      ++n;
    }
    if (timed && trace) {
      const uint64_t p0 = NowNanos();
      for (int i = 0; i < kPinsPerSample; ++i) {
        core::IndexEpochManager::PinnedSnapshot pin = manager.Pin();
      }
      result.pin_ns.push_back(static_cast<double>(NowNanos() - p0) /
                              kPinsPerSample);
    }
    BatchRecord batch;
    batch.first_doc = result.docs.size();
    batch.docs = n;
    sink.Begin(timed ? &result.docs : &warmup_docs, start, &pool_index);
    const uint64_t f0 = NowNanos();
    (void)filter.FilterBatch(std::span<const exec::DocRef>(refs.data(), n),
                             sink);
    const uint64_t f1 = NowNanos();
    batch.epoch = filter.last_batch_epoch();
    batch.end_ns = f1;
    if (timed) {
      result.batches.push_back(batch);
      if (trace) {
        result.filter_batch_ms.push_back(static_cast<double>(f1 - f0) / 1e6);
        result.busy_frac.push_back(
            registry
                ->AddGauge("xpred_pool_worker_busy_fraction",
                           "Fraction of pool wall time spent executing "
                           "tasks",
                           labels)
                ->value());
      }
    }
    after_batch();
  };

  run_batch(false);
  run_batch(false);
  const uint64_t steals_before =
      registry
          ->AddCounter("xpred_pool_steal_count",
                       "Successful work-steal operations", labels)
          ->value();
  result.start_ns = NowNanos();
  const uint64_t limit = static_cast<uint64_t>(seconds * 1e9);
  while (NowNanos() - result.start_ns < limit) run_batch(true);
  result.elapsed_s = static_cast<double>(NowNanos() - result.start_ns) / 1e9;
  result.steals = registry
                      ->AddCounter("xpred_pool_steal_count",
                                   "Successful work-steal operations",
                                   labels)
                      ->value() -
                  steals_before;
  return result;
}

uint64_t WalBytes(const std::string& directory) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0) continue;
    std::error_code size_ec;
    const uintmax_t size = entry.file_size(size_ec);
    if (!size_ec) total += size;
  }
  return total;
}

ChurnWriter::ChurnWriter(storage::DurableSubscriptionStore* store,
                         const WorkloadSpec& spec,
                         const std::vector<std::string>* pool,
                         size_t next_pool, std::vector<core::ExprId> live,
                         std::string directory, uint64_t seed)
    : store_(store),
      spec_(spec),
      pool_(pool),
      next_pool_(next_pool),
      live_(std::move(live)),
      directory_(std::move(directory)),
      seed_(seed) {}

void ChurnWriter::Start() {
  const double run_guess = 600;  // Upper bound on seconds, for reserve.
  ops_.reserve(static_cast<size_t>(spec_.writer_ops_per_s * run_guess));
  thread_ = std::thread([this] { Run(); });
}

void ChurnWriter::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void ChurnWriter::PublishPending() {
  if (published_ops_ == ops_.size()) return;
  ++attempted_calls_;
  const uint64_t t0 = NowNanos();
  Result<uint64_t> epoch = store_->Publish();
  const uint64_t t1 = NowNanos();
  if (!epoch.ok()) {
    ++failed_calls_;
    return;
  }
  WriterPublish pub;
  pub.epoch = *epoch;
  pub.first_op = published_ops_;
  pub.end_op = ops_.size();
  pub.ms = static_cast<double>(t1 - t0) / 1e6;
  publishes_.push_back(pub);
  for (size_t i = pub.first_op; i < pub.end_op; ++i) ops_[i].visible_ns = t1;
  published_ops_ = ops_.size();
}

void ChurnWriter::Run() {
  Random rng(seed_);
  const uint64_t period =
      static_cast<uint64_t>(1e9 / spec_.writer_ops_per_s);
  const uint64_t checkpoint_period =
      static_cast<uint64_t>(spec_.checkpoint_every_s * 1e9);
  const uint64_t start = NowNanos();
  uint64_t last_checkpoint = start;
  uint64_t wal_mark = WalBytes(directory_);
  for (uint64_t k = 0;; ++k) {
    const uint64_t due = start + k * period;
    if (!WaitUntil(due, stop_)) break;
    WriterOp op;
    op.due_ns = due;
    op.start_ns = NowNanos();
    if (k % 2 == 0 || live_.empty()) {
      op.subscribe = true;
      op.xpath = static_cast<uint32_t>(next_pool_++ % pool_->size());
      Result<core::ExprId> sid = store_->Subscribe((*pool_)[op.xpath]);
      op.ok = sid.ok();
      if (op.ok) {
        op.sid = *sid;
        live_.push_back(*sid);
      }
    } else {
      const size_t j = rng.Uniform(live_.size());
      op.sid = live_[j];
      op.ok = store_->Unsubscribe(op.sid).ok();
      if (op.ok) {
        live_[j] = live_.back();
        live_.pop_back();
      }
    }
    op.end_ns = NowNanos();
    ++attempted_calls_;
    if (!op.ok) ++failed_calls_;
    ops_.push_back(op);
    if ((k + 1) % spec_.publish_every_ops == 0) PublishPending();
    if (NowNanos() - last_checkpoint >= checkpoint_period) {
      PublishPending();
      wal_bytes_ += WalBytes(directory_) - wal_mark;
      ++attempted_calls_;
      const uint64_t c0 = NowNanos();
      const bool ok = store_->Checkpoint().ok();
      const uint64_t c1 = NowNanos();
      if (ok) {
        checkpoint_ms_.push_back(static_cast<double>(c1 - c0) / 1e6);
      } else {
        ++failed_calls_;
      }
      wal_mark = WalBytes(directory_);
      last_checkpoint = c1;
    }
  }
  PublishPending();
  wal_bytes_ += WalBytes(directory_) - wal_mark;
}

void Scraper::Start() {
  thread_ = std::thread([this] { Run(); });
}

void Scraper::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void Scraper::Run() {
  const uint64_t period = static_cast<uint64_t>(1e9 / hz_);
  const uint64_t start = NowNanos();
  for (uint64_t k = 0;; ++k) {
    if (!WaitUntil(start + k * period, stop_)) break;
    ++attempts_;
    const uint64_t t0 = NowNanos();
    Result<net::FetchResult> fetched =
        net::HttpGet("127.0.0.1", port_, "/metrics", /*timeout_ms=*/2000);
    const uint64_t t1 = NowNanos();
    if (fetched.ok() && fetched->status == 200 && !fetched->body.empty()) {
      latency_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
      body_bytes_.push_back(static_cast<double>(fetched->body.size()));
    } else {
      ++failures_;
    }
  }
}

}  // namespace xpred::perfbench
