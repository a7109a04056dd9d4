#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"
#include "common/string_util.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xpred::perfbench {

namespace {

constexpr size_t kDead = static_cast<size_t>(-1);

/// Compares the delivered digest of \p doc with the oracle's match set
/// for the same bytes and checks \p pairs evaluator pairs.
void CheckDocument(const DeliveredDoc& doc, const Inputs& in,
                   Oracle* oracle, size_t pairs, Random* rng,
                   CheckResult* out) {
  ++out->docs;
  out->pool_indices.push_back(doc.pool_index);
  Result<xml::Document> parsed =
      xml::Document::Parse(in.documents[doc.pool_index]);
  std::vector<core::ExprId> expected;
  if (!parsed.ok() || !oracle->Filter(*parsed, &expected).ok()) {
    ++out->wrong;
    return;
  }
  if (!doc.ok || expected.size() != doc.count ||
      DigestIds(expected) != doc.digest) {
    std::fprintf(stderr,
                 "MISMATCH: document %u delivered %u ids, oracle %zu\n",
                 doc.pool_index, doc.count, expected.size());
    ++out->wrong;
  }
  const size_t bad = oracle->CheckEvaluator(*parsed, expected, pairs, rng);
  if (bad != 0) {
    std::fprintf(stderr, "MISMATCH: document %u: %zu of %zu evaluator "
                 "pairs disagree\n", doc.pool_index, bad, pairs);
  }
  out->pairs += pairs;
  out->wrong += bad;
}

size_t PairsPerDoc(size_t pairs, size_t docs) {
  return (pairs + docs - 1) / std::max<size_t>(docs, 1);
}

}  // namespace

Status Oracle::Subscribe(core::ExprId sid, std::string_view xpath) {
  Result<core::ExprId> got = matcher_.AddExpression(xpath);
  if (!got.ok()) return got.status();
  if (*got != sid) {
    return Status::Internal(StringPrintf(
        "oracle replay assigned sid %u, live system issued %u", *got, sid));
  }
  xpaths_.emplace_back(xpath);
  live_slot_.push_back(live_sids_.size());
  live_sids_.push_back(sid);
  return Status::OK();
}

Status Oracle::Unsubscribe(core::ExprId sid) {
  XPRED_RETURN_NOT_OK(matcher_.RemoveSubscription(sid));
  // Swap-remove from the dense live list.
  const size_t slot = live_slot_[sid];
  const core::ExprId last = live_sids_.back();
  live_sids_[slot] = last;
  live_slot_[last] = slot;
  live_sids_.pop_back();
  live_slot_[sid] = kDead;
  return Status::OK();
}

Status Oracle::Filter(const xml::Document& document,
                      std::vector<core::ExprId>* matched) {
  matched->clear();
  XPRED_RETURN_NOT_OK(matcher_.FilterDocument(document, matched));
  std::sort(matched->begin(), matched->end());
  return Status::OK();
}

size_t Oracle::CheckEvaluator(const xml::Document& document,
                              const std::vector<core::ExprId>& matched,
                              size_t pairs, Random* rng) const {
  size_t disagreements = 0;
  for (size_t i = 0; i < pairs && !live_sids_.empty(); ++i) {
    const core::ExprId sid = (i % 2 == 0 && !matched.empty())
                                 ? rng->Pick(matched)
                                 : rng->Pick(live_sids_);
    Result<xpath::PathExpr> expr = xpath::ParseXPath(xpaths_[sid]);
    if (!expr.ok()) {
      ++disagreements;
      continue;
    }
    const bool expected = xpath::Evaluator::Matches(*expr, document);
    const bool delivered =
        std::binary_search(matched.begin(), matched.end(), sid);
    if (expected != delivered) ++disagreements;
  }
  return disagreements;
}

CheckResult CheckStatic(
    const LiveRunResult& live, const Inputs& in,
    const core::Matcher::Options& options,
    const std::vector<std::pair<core::ExprId, std::string>>& table,
    size_t docs, size_t pairs, Random* rng) {
  CheckResult out;
  std::map<uint32_t, const DeliveredDoc*> first;
  for (const DeliveredDoc& d : live.docs) {
    auto [it, inserted] = first.emplace(d.pool_index, &d);
    if (!inserted && (it->second->digest != d.digest ||
                      it->second->count != d.count)) {
      ++out.wrong;
    }
  }
  std::vector<const DeliveredDoc*> sample;
  for (const auto& [index, doc] : first) sample.push_back(doc);
  rng->Shuffle(&sample);
  sample.resize(std::min(sample.size(), docs));
  Oracle oracle(options);
  for (const auto& [sid, xpath] : table) {
    if (!oracle.Subscribe(sid, xpath).ok()) ++out.wrong;
  }
  const size_t per_doc = PairsPerDoc(pairs, sample.size());
  for (const DeliveredDoc* d : sample) {
    CheckDocument(*d, in, &oracle, per_doc, rng, &out);
  }
  return out;
}

CheckResult CheckChurn(const LiveRunResult& live, const Inputs& in,
                       const core::Matcher::Options& options,
                       const core::IndexEpochManager::SubscriptionExport& base,
                       const ChurnWriter& writer, size_t batches,
                       size_t pairs, Random* rng) {
  CheckResult out;
  std::vector<const BatchRecord*> sample;
  for (const BatchRecord& b : live.batches) sample.push_back(&b);
  rng->Shuffle(&sample);
  sample.resize(std::min(sample.size(), batches));
  std::sort(sample.begin(), sample.end(),
            [](const BatchRecord* a, const BatchRecord* b) {
              return a->epoch < b->epoch;
            });
  Oracle oracle(options);
  for (const auto& e : base.entries) {
    if (!oracle.Subscribe(e.sid, e.xpath).ok()) ++out.wrong;
  }
  for (const auto& e : base.entries) {
    if (!e.live && !oracle.Unsubscribe(e.sid).ok()) ++out.wrong;
  }
  size_t sample_docs = 0;
  for (const BatchRecord* b : sample) sample_docs += b->docs;
  const size_t per_doc = PairsPerDoc(pairs, sample_docs);
  const std::vector<WriterPublish>& pubs = writer.publishes();
  const std::vector<WriterOp>& ops = writer.ops();
  size_t applied = 0;
  for (const BatchRecord* b : sample) {
    if (b->epoch < base.epoch) ++out.wrong;
    for (; applied < pubs.size() && pubs[applied].epoch <= b->epoch;
         ++applied) {
      for (size_t i = pubs[applied].first_op; i < pubs[applied].end_op; ++i) {
        const WriterOp& op = ops[i];
        if (!op.ok) continue;
        const Status st =
            op.subscribe
                ? oracle.Subscribe(op.sid, in.writer_subscriptions[op.xpath])
                : oracle.Unsubscribe(op.sid);
        if (!st.ok()) ++out.wrong;
      }
    }
    for (size_t i = b->first_doc; i < b->first_doc + b->docs; ++i) {
      CheckDocument(live.docs[i], in, &oracle, per_doc, rng, &out);
    }
  }
  return out;
}

}  // namespace xpred::perfbench
