#include "workload.h"

#include <cstdio>

#include "xml/standard_dtds.h"

namespace xpred::perfbench {
namespace {

xml::DocumentGenerator::Options NitfDocs() {
  // Richer expansion of the heavily optional NITF content models, as in
  // the paper-figure benches (~140 tags per document).
  xml::DocumentGenerator::Options o;
  o.max_depth = 8;
  o.optional_prob = 0.8;
  o.repeat_prob = 0.6;
  o.max_repeats = 8;
  return o;
}

xml::DocumentGenerator::Options PsdDocs() {
  xml::DocumentGenerator::Options o;
  o.max_depth = 8;
  return o;
}

xpath::QueryGenerator::Options Queries(uint32_t filters) {
  xpath::QueryGenerator::Options o;
  o.max_length = 6;
  o.min_length = 3;
  o.wildcard_prob = 0.2;
  o.descendant_prob = 0.2;
  o.filters_per_expr = filters;
  return o;
}

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    s.name = "nitf-selective";
    s.why = "many selective subscriptions: expression matching is ~99% of "
            "matcher time, where evaluator changes show";
    s.subscriptions = 10000;
    s.query = Queries(0);
    s.docs = NitfDocs();
    s.doc_pool = 4096;
    s.batch_docs = 4;
    s.trace_docs = 24;
    s.oracle_docs = 48;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "psd-attr";
    s.psd = true;
    s.why = "few attribute-filtered subscriptions, short tasks: predicate "
            "matching, parsing and exec scheduling overhead dominate";
    s.subscriptions = 200;
    s.query = Queries(1);
    s.require_filter = true;
    s.docs = PsdDocs();
    s.doc_pool = 2048;
    s.batch_docs = 128;
    s.trace_docs = 256;
    s.oracle_docs = 512;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "psd-live-churn";
    s.psd = true;
    s.why = "open-loop subscription writer on a WAL-backed store beside "
            "filtering, 10 Hz scrapes, large match sets; set-up is recovery";
    s.subscriptions = 5000;
    s.query = Queries(0);
    s.docs = PsdDocs();
    s.doc_pool = 2048;
    s.batch_docs = 32;
    s.trace_docs = 64;
    s.oracle_docs = 256;
    s.live_churn = true;
    s.writer_ops_per_s = 100;
    s.publish_every_ops = 10;
    s.checkpoint_every_s = 2;
    s.wal_tail_ops = 500;
    s.writer_pool = 4000;
    s.scrape_hz = 10;
    specs.push_back(s);
  }
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec>* specs =
      new std::vector<WorkloadSpec>(MakeSpecs());
  return *specs;
}

std::vector<std::string> Generate(const WorkloadSpec& spec, size_t count,
                                  uint64_t seed) {
  const xml::Dtd& dtd = spec.psd ? xml::PsdLikeDtd() : xml::NitfLikeDtd();
  xpath::QueryGenerator gen(&dtd, spec.query);
  if (!spec.require_filter) return gen.GenerateWorkloadStrings(count, seed);
  // Not every walk passes an element that declares attributes; draw
  // until enough filtered expressions exist.
  std::vector<std::string> out;
  for (uint64_t round = 0; out.size() < count && round < 64; ++round) {
    for (std::string& e :
         gen.GenerateWorkloadStrings(count * 4, MixSeed(seed, round))) {
      if (out.size() < count && e.find("[@") != std::string::npos) {
        out.push_back(std::move(e));
      }
    }
  }
  return out;
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

std::string SpecJson(const WorkloadSpec& spec) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"dtd\": \"%s\", \"subscriptions\": %zu, \"max_length\": %u, "
      "\"min_length\": %u, \"W\": %.2f, \"DO\": %.2f, "
      "\"filters_per_expr\": %u, \"require_filter\": %s, "
      "\"doc_max_depth\": %u, \"doc_optional_prob\": %.2f, "
      "\"doc_repeat_prob\": %.2f, \"doc_pool\": %zu, \"batch_docs\": %zu, "
      "\"threads\": 2, \"writer_ops_per_s\": %.0f, "
      "\"publish_every_ops\": %zu, \"checkpoint_every_s\": %.1f, "
      "\"wal_tail_ops\": %zu, \"scrape_hz\": %.0f}",
      spec.psd ? "psd" : "nitf", spec.subscriptions, spec.query.max_length,
      spec.query.min_length, spec.query.wildcard_prob,
      spec.query.descendant_prob, spec.query.filters_per_expr,
      spec.require_filter ? "true" : "false", spec.docs.max_depth,
      spec.docs.optional_prob, spec.docs.repeat_prob, spec.doc_pool,
      spec.batch_docs, spec.writer_ops_per_s, spec.publish_every_ops,
      spec.checkpoint_every_s, spec.wal_tail_ops, spec.scrape_hz);
  return buf;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.subscriptions = Generate(spec, spec.subscriptions, MixSeed(seed, 1));
  if (spec.live_churn) {
    in.writer_subscriptions =
        Generate(spec, spec.writer_pool, MixSeed(seed, 3));
  }
  const xml::Dtd& dtd = spec.psd ? xml::PsdLikeDtd() : xml::NitfLikeDtd();
  xml::DocumentGenerator gen(&dtd, spec.docs);
  const uint64_t doc_seed = MixSeed(seed, 2);
  in.documents.reserve(spec.doc_pool);
  for (size_t d = 0; d < spec.doc_pool; ++d) {
    in.documents.push_back(gen.Generate(doc_seed + d).ToXml());
    in.document_bytes += in.documents.back().size();
  }
  return in;
}

}  // namespace xpred::perfbench
