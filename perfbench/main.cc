// xpred_perfbench: end-to-end benchmark from XML bytes to delivered
// match sets, with per-layer attribution.
//
//   xpred_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics on the production path
// (Document::Parse on the submitting thread, live-mode
// ParallelFilter::FilterBatch with two threads over an
// IndexEpochManager, results through a ResultSink). --trace 1 spends
// 60% of the time on serial untraced and traced replays of a fixed
// document sample (the per-layer self times) and 40% on the same
// production loop with the exec and epoch layers timed. Both modes
// check delivered match sets against a serial oracle matcher and the
// brute-force evaluator after the timed region, print every metric
// with its unit, and end with one JSON result line. The exit code is
// 1 on any wrong match set or failed document, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "core/epoch_manager.h"
#include "exec/parallel_filter.h"
#include "layer_trace.h"
#include "live_run.h"
#include "obs/flight_recorder.h"
#include "obs/introspection_server.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "oracle.h"
#include "storage/durable_store.h"
#include "workload.h"
#include "xml/document.h"

#ifndef XPRED_BUILD_TYPE
#define XPRED_BUILD_TYPE "unknown"
#endif
#ifndef XPRED_COMPILER
#define XPRED_COMPILER "unknown"
#endif

namespace xpred::perfbench {
namespace {

constexpr size_t kThreads = 2;
/// (document, subscription) pairs checked against the brute-force
/// evaluator per run.
constexpr size_t kEvaluatorPairs = 400;
/// Share of a traced run spent on the serial replays.
constexpr double kReplayShare = 0.6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Set-up repetitions: at least kMinSetups, then more while they fit
/// in kSetupBudgetS. The host's speed wanders on a scale of 100 ms, so
/// the median is taken over reps spread across about two seconds.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 500;
constexpr double kSetupBudgetS = 2.0;

bool MoreSetups(const std::vector<double>& done) {
  double total = 0;
  for (double s : done) total += s;
  return done.size() < kMinSetups ||
         (done.size() < kMaxSetups && total < kSetupBudgetS);
}

/// The timed run is cut into equal windows by batch end time, and a
/// statistic is reported as its median over the windows: bursts of CPU
/// steal on a shared host move a whole-run mean or tail far more than
/// the median window.
constexpr size_t kRateWindows = 10;
/// Latency windows must each hold this many documents, so that each
/// window's p99 has at least 10 samples beyond it.
constexpr size_t kDocsPerLatencyWindow = 1000;

/// Per window: latencies of the documents delivered OK in it.
std::vector<std::vector<double>> WindowLatencies(const LiveRunResult& live,
                                                 size_t windows) {
  std::vector<std::vector<double>> out(windows);
  const double window_ns = live.elapsed_s * 1e9 / static_cast<double>(windows);
  for (const BatchRecord& b : live.batches) {
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(
                         static_cast<double>(b.end_ns - live.start_ns) /
                         window_ns));
    for (size_t i = b.first_doc; i < b.first_doc + b.docs; ++i) {
      if (live.docs[i].ok) out[w].push_back(live.docs[i].latency_ms);
    }
  }
  return out;
}

/// Delivered documents per second: median over kRateWindows windows.
/// A window's rate is its documents over the time from the last batch
/// end before it to its own last batch end, so whole batches never
/// quantize the rate.
double WindowedRate(const LiveRunResult& live) {
  const double window_ns = live.elapsed_s * 1e9 / kRateWindows;
  std::vector<double> docs(kRateWindows, 0);
  std::vector<uint64_t> last_end(kRateWindows, 0);
  for (const BatchRecord& b : live.batches) {
    const size_t w = std::min(
        kRateWindows - 1, static_cast<size_t>(
                              static_cast<double>(b.end_ns - live.start_ns) /
                              window_ns));
    for (size_t i = b.first_doc; i < b.first_doc + b.docs; ++i) {
      docs[w] += live.docs[i].ok ? 1 : 0;
    }
    last_end[w] = b.end_ns;
  }
  std::vector<double> rates;
  uint64_t prev_end = live.start_ns;
  for (size_t w = 0; w < kRateWindows; ++w) {
    if (last_end[w] == 0) continue;
    rates.push_back(docs[w] * 1e9 /
                    static_cast<double>(last_end[w] - prev_end));
    prev_end = last_end[w];
  }
  return Median(rates);
}

/// Latency quantile \p q: median over windows of each window's
/// quantile, with as many windows (1 to kRateWindows) as hold
/// kDocsPerLatencyWindow documents each.
double WindowedLatency(const LiveRunResult& live, size_t ok_docs, double q) {
  const size_t windows = std::clamp<size_t>(ok_docs / kDocsPerLatencyWindow,
                                            1, kRateWindows);
  std::vector<double> per_window;
  for (std::vector<double>& w : WindowLatencies(live, windows)) {
    if (!w.empty()) per_window.push_back(Quantile(std::move(w), q));
  }
  return Median(per_window);
}

/// Failure accounting behind failed_frac and the result's counts.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;  ///< Wrong match sets, failed documents.

  void Ops(size_t n, size_t failures) {
    attempted += n;
    failed += failures;
  }
  void Checks(size_t n, size_t wrong_results) {
    attempted += n;
    failed += wrong_results;
    wrong += wrong_results;
  }
};

/// Builds the churn workload's durable state before timing: the
/// initial subscriptions, a snapshot checkpoint, then a WAL tail of
/// writer-style ops. Returns the next unused writer-pool index.
Result<size_t> PrepareStore(const WorkloadSpec& spec, const Inputs& in,
                            const storage::DurableSubscriptionStore::Options&
                                options,
                            uint64_t seed) {
  Result<std::unique_ptr<storage::DurableSubscriptionStore>> opened =
      storage::DurableSubscriptionStore::Open(options);
  if (!opened.ok()) return opened.status();
  storage::DurableSubscriptionStore& store = **opened;
  std::vector<core::ExprId> live;
  for (const std::string& xpath : in.subscriptions) {
    Result<core::ExprId> sid = store.Subscribe(xpath);
    if (!sid.ok()) return sid.status();
    live.push_back(*sid);
  }
  if (Result<uint64_t> e = store.Publish(); !e.ok()) return e.status();
  XPRED_RETURN_NOT_OK(store.Checkpoint());
  Random rng(MixSeed(seed, 5));
  size_t next = 0;
  for (size_t i = 0; i < spec.wal_tail_ops; ++i) {
    if (i % 2 == 0) {
      Result<core::ExprId> sid =
          store.Subscribe(in.writer_subscriptions[next++]);
      if (!sid.ok()) return sid.status();
      live.push_back(*sid);
    } else {
      const size_t j = rng.Uniform(live.size());
      XPRED_RETURN_NOT_OK(store.Unsubscribe(live[j]));
      live[j] = live.back();
      live.pop_back();
    }
    if ((i + 1) % spec.publish_every_ops == 0) {
      if (Result<uint64_t> e = store.Publish(); !e.ok()) return e.status();
    }
  }
  if (Result<uint64_t> e = store.Publish(); !e.ok()) return e.status();
  return next;
}

/// Writer, store, scraper and epoch figures of psd-live-churn. Returns
/// whether the writer fell behind its schedule.
bool AddChurnMetrics(const WorkloadSpec& spec, const ChurnWriter& writer,
                     const Scraper& scraper,
                     const core::IndexEpochManager::Stats& before,
                     const core::IndexEpochManager::Stats& after,
                     double elapsed_s, bool trace, Report* report) {
  const Scope X = Scope::kExtra;
  std::vector<double> visible, late, call_us;
  for (const WriterOp& op : writer.ops()) {
    late.push_back(static_cast<double>(op.start_ns - op.due_ns) / 1e6);
    call_us.push_back(static_cast<double>(op.end_ns - op.start_ns) / 1e3);
    if (op.ok && op.visible_ns != 0) {
      visible.push_back(static_cast<double>(op.visible_ns - op.due_ns) / 1e6);
    }
  }
  if (!trace) {
    report->Add("sub_visible_p50_ms", Quantile(visible, 0.5), "ms", X);
    report->Add("sub_visible_p99_ms", Quantile(visible, 0.99), "ms", X);
  } else {
    std::vector<double> publish_ms;
    for (const WriterPublish& p : writer.publishes()) {
      publish_ms.push_back(p.ms);
    }
    const double publishes = static_cast<double>(
        std::max<uint64_t>(after.publishes - before.publishes, 1));
    report->Add("epoch.retire_waits_per_publish",
                static_cast<double>(after.retire_waits - before.retire_waits) /
                    publishes,
                "count", X);
    report->Add("epoch.ops_per_publish",
                static_cast<double>(after.ops_applied - before.ops_applied) /
                    publishes,
                "count", X);
    report->Add("storage.subscribe_us_p50", Quantile(call_us, 0.5), "us", X);
    report->Add("storage.publish_ms_p50", Quantile(publish_ms, 0.5), "ms", X);
    report->Add("storage.publish_ms_p99", Quantile(publish_ms, 0.99), "ms",
                X);
    report->Add("storage.checkpoint_ms", Median(writer.checkpoint_ms()), "ms",
                X);
    report->Add("storage.wal_bytes_per_op",
                static_cast<double>(writer.wal_bytes()) /
                    static_cast<double>(
                        std::max<size_t>(writer.ops().size(), 1)),
                "B", X);
    report->Add("net.scrape_ms_p50", Quantile(scraper.latency_ms(), 0.5),
                "ms", X);
    report->Add("net.scrape_ms_p99", Quantile(scraper.latency_ms(), 0.99),
                "ms", X);
    report->Add("net.scrape_bytes", Median(scraper.body_bytes()), "B", X);
  }
  // A blocking Publish (it waits for in-flight batches to unpin the
  // spare side) or a checkpoint delays the next few ops by its own
  // duration, and the writer catches up after it. It counts as behind
  // its schedule when the typical op is late by more than one period
  // or it issued under 90% of its scheduled ops.
  const double period_ms = 1000.0 / spec.writer_ops_per_s;
  const bool behind =
      Quantile(late, 0.5) > period_ms ||
      static_cast<double>(writer.ops().size()) <
          0.9 * elapsed_s * spec.writer_ops_per_s;
  report->Add("gen.writer_late_ms_p99", Quantile(late, 0.99), "ms", X);
  report->Add("gen.writer_behind", behind ? 1 : 0, "flag", X);
  return behind;
}

/// The traced run's per-layer metrics.
void AddLayerMetrics(const SerialReplay& replay, const LiveRunResult& live,
                     size_t distinct_predicates, Report* report) {
  const LayerCounts& c = replay.counts;
  const double docs = static_cast<double>(std::max<uint64_t>(c.docs, 1));
  const LayerTimes& t = replay.traced;
  const double self_sum =
      t.parse + t.extract + t.encode + t.predicate + t.expression + t.collect;
  const double untraced_total =
      replay.untraced_filter_ns + replay.untraced_parse_ns;
  const double serial_dps = 1e9 / replay.untraced_filter_ns;
  double batch_docs = 0, batch_s = 0;
  for (size_t i = 0; i < live.batches.size(); ++i) {
    batch_docs += static_cast<double>(live.batches[i].docs);
    batch_s += live.filter_batch_ms[i] / 1e3;
  }
  const Scope L = Scope::kLayer;
  const auto per_doc = [docs](uint64_t n) {
    return static_cast<double>(n) / docs;
  };
  report->Add("xml.parse_us", t.parse / 1e3, "us", L);
  report->Add("xml.bytes_per_doc", per_doc(c.bytes), "B", L);
  report->Add("xml.extract_us", t.extract / 1e3, "us", L);
  report->Add("xml.paths_per_doc", per_doc(c.paths), "count", L);
  report->Add("core.encode_us", t.encode / 1e3, "us", L);
  report->Add("core.distinct_paths_per_doc", per_doc(c.distinct_paths),
              "count", L);
  report->Add("core.predicate_us", t.predicate / 1e3, "us", L);
  report->Add("core.predicate_matches_per_doc", per_doc(c.predicate_matches),
              "count", L);
  report->Add("core.distinct_predicates",
              static_cast<double>(distinct_predicates), "count", L);
  report->Add("core.expression_us", t.expression / 1e3, "us", L);
  report->Add("core.occurrence_runs_per_doc", per_doc(c.occurrence_runs),
              "count", L);
  report->Add("core.collect_us", t.collect / 1e3, "us", L);
  report->Add("core.matches_per_doc", per_doc(c.matches), "count", L);
  report->Add("exec.batch_ms_p50", Median(live.filter_batch_ms), "ms", L);
  report->Add("exec.busy_frac", Median(live.busy_frac), "ratio", L);
  report->Add("exec.steals_per_batch",
              static_cast<double>(live.steals) /
                  static_cast<double>(std::max<size_t>(live.batches.size(), 1)),
              "count", L);
  report->Add("exec.serial_docs_per_s", serial_dps, "docs/s", L);
  report->Add("exec.efficiency",
              (batch_docs / std::max(batch_s, 1e-9)) /
                  (static_cast<double>(kThreads) * serial_dps),
              "ratio", L);
  report->Add("epoch.pin_ns_p50", Median(live.pin_ns), "ns", L);
  report->Add("trace.unattributed_frac",
              (untraced_total - self_sum) / untraced_total, "ratio", L);
  report->Add("trace.overhead_frac",
              1 - replay.untraced_filter_ns / t.traced_filter, "ratio", L);
  report->Add("trace.untraced_filter_us", replay.untraced_filter_ns / 1e3,
              "us", Scope::kExtra);
  report->Add("trace.spans_kept", static_cast<double>(replay.spans_kept),
              "count", Scope::kExtra);
  report->Add("trace.spans_dropped",
              static_cast<double>(replay.spans_dropped), "count",
              Scope::kExtra);
}

int Main(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const uint64_t phase_inputs = NowNanos();
  const Inputs in = MakeInputs(*spec, args.seed);
  const uint64_t phase_setup = NowNanos();
  const core::Matcher::Options matcher_options;  // Production default.
  Tally tally;

  // ---- Set-up: XPath strings (or on-disk state) to a filterable index.
  std::vector<double> setup_s;
  // Declared before the store so the directory goes after the store.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
    }
  } store_dir;
  std::unique_ptr<core::IndexEpochManager> owned_manager;
  std::unique_ptr<storage::DurableSubscriptionStore> store;
  std::vector<std::pair<core::ExprId, std::string>> table;
  storage::DurableSubscriptionStore::Options store_options;
  size_t next_writer_pool = 0;
  if (!spec->live_churn) {
    core::IndexEpochManager::Options options;
    options.matcher = matcher_options;
    size_t failures = 0;
    bool published = false;
    while (MoreSetups(setup_s)) {
      owned_manager.reset();
      table.clear();
      failures = 0;
      const uint64_t t0 = NowNanos();
      auto manager = std::make_unique<core::IndexEpochManager>(options);
      for (const std::string& xpath : in.subscriptions) {
        Result<core::ExprId> sid = manager->Subscribe(xpath);
        if (sid.ok()) {
          table.emplace_back(*sid, xpath);
        } else {
          ++failures;
        }
      }
      published = manager->Publish().ok();
      setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
      owned_manager = std::move(manager);
    }
    tally.Ops(in.subscriptions.size() + 1, failures + (published ? 0 : 1));
  } else {
    store_options.directory = args.out_dir + "/store-" + spec->name + "-" +
                              std::to_string(getpid());
    store_options.fsync = storage::FsyncPolicy::kEveryPublish;
    store_options.matcher = matcher_options;
    std::filesystem::remove_all(store_options.directory, ec);
    store_dir.dir = store_options.directory;
    Result<size_t> prepared =
        PrepareStore(*spec, in, store_options, args.seed);
    if (!prepared.ok()) {
      std::fprintf(stderr, "store preparation failed: %s\n",
                   prepared.status().ToString().c_str());
      return 1;
    }
    next_writer_pool = *prepared;
    while (MoreSetups(setup_s)) {
      store.reset();
      const uint64_t t0 = NowNanos();
      Result<std::unique_ptr<storage::DurableSubscriptionStore>> opened =
          storage::DurableSubscriptionStore::Open(store_options);
      setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
      if (!opened.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      store = std::move(*opened);
    }
  }
  core::IndexEpochManager& manager =
      store != nullptr ? store->manager() : *owned_manager;

  size_t live_subs = 0;
  size_t distinct_predicates = 0;
  {
    core::IndexEpochManager::PinnedSnapshot pin = manager.Pin();
    live_subs = pin->live_subscriptions();
    distinct_predicates = pin->partition(0).distinct_predicate_count();
  }
  const double index_bytes_per_sub =
      static_cast<double>(manager.ApproximateMemoryBytes()) /
      static_cast<double>(std::max<size_t>(live_subs, 1));

  // The churn oracle starts from the recovered table.
  core::IndexEpochManager::SubscriptionExport base;
  std::vector<core::ExprId> base_live;
  if (store != nullptr) {
    Result<core::IndexEpochManager::SubscriptionExport> exported =
        manager.ExportSubscriptions();
    if (!exported.ok()) {
      std::fprintf(stderr, "export failed: %s\n",
                   exported.status().ToString().c_str());
      return 1;
    }
    base = std::move(*exported);
    for (const auto& e : base.entries) {
      if (e.live) base_live.push_back(e.sid);
    }
  }

  // ---- Traced run: serial replays of a fixed sample (writer idle).
  const uint64_t phase_run = NowNanos();
  SerialReplay replay;
  if (args.trace) {
    std::vector<std::string> sample(
        in.documents.begin(),
        in.documents.begin() +
            static_cast<ptrdiff_t>(
                std::min(spec->trace_docs, in.documents.size())));
    core::IndexEpochManager::PinnedSnapshot pin = manager.Pin();
    if (!RunSerialReplay(pin->partition(0), sample,
                         args.seconds * kReplayShare,
                         args.out_dir + "/spans-" + spec->name + ".tsv",
                         &replay)) {
      std::fprintf(stderr, "serial replay failed\n");
      return 1;
    }
  }

  // ---- The production loop.
  exec::ParallelFilter::Options filter_options;
  filter_options.threads = kThreads;
  filter_options.seed = MixSeed(args.seed, 6);
  exec::ParallelFilter filter(filter_options, &manager);
  obs::MetricsRegistry registry;
  filter.BindMetrics(&registry);

  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::Watchdog> watchdog;
  std::unique_ptr<obs::IntrospectionHub> hub;
  std::unique_ptr<obs::IntrospectionServer> server;
  std::unique_ptr<Scraper> scraper;
  std::unique_ptr<ChurnWriter> writer;
  if (spec->live_churn) {
    obs::FlightRecorder::Options recorder_options;
    recorder_options.max_threads = 8;
    recorder = std::make_unique<obs::FlightRecorder>(recorder_options);
    obs::FlightRecorder::Install(recorder.get());
    watchdog = std::make_unique<obs::Watchdog>(kThreads, obs::Watchdog::Options{});
    watchdog->Start();
    filter.set_watchdog(watchdog.get());
    hub = std::make_unique<obs::IntrospectionHub>();
    hub->set_recorder(recorder.get());
    hub->AddWatchdogCheck(watchdog.get());
    hub->PublishMetrics(registry);
    server = std::make_unique<obs::IntrospectionServer>(
        hub.get(), obs::IntrospectionServer::Options{});
    if (Status st = server->Start(); !st.ok()) {
      std::fprintf(stderr, "introspection server: %s\n",
                   st.ToString().c_str());
      obs::FlightRecorder::Install(nullptr);
      return 1;
    }
    scraper = std::make_unique<Scraper>(server->port(), spec->scrape_hz);
    writer = std::make_unique<ChurnWriter>(
        store.get(), *spec, &in.writer_subscriptions, next_writer_pool,
        base_live, store_options.directory, MixSeed(args.seed, 4));
  }
  const core::IndexEpochManager::Stats epoch_before = manager.stats();
  if (scraper != nullptr) scraper->Start();
  if (writer != nullptr) writer->Start();
  const double live_seconds =
      args.trace ? args.seconds * (1 - kReplayShare) : args.seconds;
  LiveRunResult live = RunLive(
      filter, manager, in.documents, spec->batch_docs, live_seconds,
      args.trace, MixSeed(args.seed, 8), [&] {
        if (hub != nullptr) hub->MaybePublishMetrics(registry);
      });
  if (writer != nullptr) writer->Stop();
  if (scraper != nullptr) scraper->Stop();
  const core::IndexEpochManager::Stats epoch_after = manager.stats();
  if (server != nullptr) server->Stop();
  if (watchdog != nullptr) {
    watchdog->Stop();
    filter.set_watchdog(nullptr);
  }
  if (recorder != nullptr) obs::FlightRecorder::Install(nullptr);
  const double peak_rss_mb = PeakRssMb();

  // ---- Correctness, outside the timed region.
  const uint64_t phase_check = NowNanos();
  size_t ok_docs = 0;
  std::vector<double> latencies;
  uint64_t matched_total = 0;
  latencies.reserve(live.docs.size());
  for (const DeliveredDoc& d : live.docs) {
    if (!d.ok) continue;
    ++ok_docs;
    latencies.push_back(d.latency_ms);
    matched_total += d.count;
  }
  tally.Ops(live.docs.size() + live.parse_failures, 0);
  tally.Checks(0, (live.docs.size() - ok_docs) + live.parse_failures);
  Random rng(MixSeed(args.seed, 7));
  const CheckResult checks =
      writer == nullptr
          ? CheckStatic(live, in, matcher_options, table, spec->oracle_docs,
                        kEvaluatorPairs, &rng)
          : CheckChurn(live, in, matcher_options, base, *writer,
                       (spec->oracle_docs + spec->batch_docs - 1) /
                           spec->batch_docs,
                       kEvaluatorPairs, &rng);
  tally.Checks(checks.docs + checks.pairs, checks.wrong);
  // Memo share: from the traced replay, else over the checked documents.
  uint64_t memo_paths = replay.counts.paths;
  uint64_t memo_distinct = replay.counts.distinct_paths;
  if (!args.trace) {
    for (uint32_t index : checks.pool_indices) {
      CountPaths(in.documents[index], &memo_paths, &memo_distinct);
    }
  }

  // ---- Metrics.
  const uint64_t phase_end = NowNanos();
  Report report;
  if (!args.trace) {
    report.Add("docs_per_s", WindowedRate(live), "docs/s", Scope::kEndToEnd);
    report.Add("doc_latency_p50_ms", WindowedLatency(live, ok_docs, 0.5),
               "ms", Scope::kEndToEnd);
    report.Add("doc_latency_p99_ms", WindowedLatency(live, ok_docs, 0.99),
               "ms", Scope::kEndToEnd);
    report.Add("setup_s", Median(setup_s), "s", Scope::kEndToEnd);
    report.Add("index_bytes_per_sub", index_bytes_per_sub, "B",
               Scope::kEndToEnd);
    report.Add("peak_rss_mb", peak_rss_mb, "MB", Scope::kEndToEnd);
    report.Add("docs_per_s_mean",
               static_cast<double>(ok_docs) / std::max(live.elapsed_s, 1e-9),
               "docs/s", Scope::kExtra);
    report.Add("doc_latency_p99_ms_run", Quantile(latencies, 0.99), "ms",
               Scope::kExtra);
    report.Add("latency_samples", static_cast<double>(latencies.size()),
               "count", Scope::kExtra);
  }

  bool writer_behind = false;
  if (writer != nullptr) {
    writer_behind = AddChurnMetrics(*spec, *writer, *scraper, epoch_before,
                                    epoch_after, live.elapsed_s, args.trace,
                                    &report);
    tally.Ops(writer->attempted_calls(), writer->failed_calls());
    tally.Ops(scraper->attempts(), scraper->failures());
  }
  if (args.trace) {
    AddLayerMetrics(replay, live, distinct_predicates, &report);
  }
  report.Add("failed_frac",
             static_cast<double>(tally.failed) /
                 static_cast<double>(std::max<size_t>(tally.attempted, 1)),
             "ratio", Scope::kExtra);

  // ---- Output.
  const double mean_bytes = static_cast<double>(in.document_bytes) /
                            static_cast<double>(in.documents.size());
  const double match_pct =
      ok_docs == 0 ? 0
                   : 100.0 * static_cast<double>(matched_total) /
                         static_cast<double>(ok_docs) /
                         static_cast<double>(std::max<size_t>(live_subs, 1));
  char regime[4096];
  std::snprintf(
      regime, sizeof(regime),
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"subscriptions\": %zu, \"match_pct\": %.3f, "
      "\"distinct_predicates\": %zu, \"memo_share\": %.4f, "
      "\"bytes_per_doc\": %.1f, \"docs_delivered\": %zu, "
      "\"oracle_docs_checked\": %zu, \"evaluator_pairs_checked\": %zu, "
      "\"writer_behind\": %s, \"generator\": %s}",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, XPRED_BUILD_TYPE, XPRED_COMPILER,
      std::thread::hardware_concurrency(), live_subs, match_pct,
      distinct_predicates,
      memo_paths == 0 ? 0
                      : 1 - static_cast<double>(memo_distinct) /
                                static_cast<double>(memo_paths),
      mean_bytes, live.docs.size(), checks.docs, checks.pairs,
      writer_behind ? "true" : "false", SpecJson(*spec).c_str());

  std::printf("workload %s (seed %llu, %s run, %.1f s): %s\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced", args.seconds,
              spec->why.c_str());
  std::printf("regime: %s\n", regime);
  std::printf("phases: inputs %.2f s, set-up %.2f s, %s %.2f s, "
              "checks %.2f s\n",
              static_cast<double>(phase_setup - phase_inputs) / 1e9,
              static_cast<double>(phase_run - phase_setup) / 1e9,
              args.trace ? "replays + run" : "run",
              static_cast<double>(phase_check - phase_run) / 1e9,
              static_cast<double>(phase_end - phase_check) / 1e9);
  report.Print(stdout);
  if (!args.trace && latencies.size() < 1000) {
    std::printf("note: doc_latency_p99_ms rests on %zu samples, fewer than "
                "10 beyond p99\n", latencies.size());
  }
  if (writer_behind) {
    std::printf("note: the writer fell behind its schedule; "
                "sub_visible_* are not valid for this run\n");
  }
  const bool correct = tally.wrong == 0;
  const std::string metrics =
      report.ResultJson(args.trace ? Scope::kLayer : Scope::kEndToEnd);
  if (FILE* log = std::fopen((args.out_dir + "/runs.jsonl").c_str(), "a")) {
    std::fprintf(log, "{\"regime\": %s, \"correct\": %s, \"metrics\": %s}\n",
                 regime, correct ? "true" : "false", metrics.c_str());
    std::fclose(log);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xpred::perfbench

int main(int argc, char** argv) {
  xpred::perfbench::Args args;
  if (!xpred::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xpred_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return xpred::perfbench::Main(args);
}
