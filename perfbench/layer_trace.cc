#include "layer_trace.h"

#include <cstdio>
#include <string_view>
#include <unordered_set>

#include "common.h"
#include "common/limits.h"
#include "core/match_context.h"
#include "core/predicate_index.h"
#include "core/publication.h"
#include "xml/document.h"
#include "xml/path.h"

namespace xpred::perfbench {
namespace {

enum SpanName : uint32_t {
  kDoc,
  kParse,
  kExtract,
  kPath,
  kEncode,
  kPredicate,
  kProcess,
  kCollect,
};
constexpr const char* kSpanNames[] = {
    "doc",         "xml.parse",      "xml.extract",  "core.path",
    "core.encode", "core.predicate", "core.process", "core.collect"};
constexpr uint32_t kNoSpan = UINT32_MAX;
constexpr size_t kSpanCapacity = size_t{1} << 17;

struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoSpan;
  uint64_t doc = 0;
  uint64_t start = 0;
  uint64_t end = 0;
};

/// In-memory span store with a fixed capacity; spans past it are
/// counted, not kept.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(kSpanCapacity); }

  uint32_t Add(uint32_t name, uint32_t parent, uint64_t doc, uint64_t start,
               uint64_t end) {
    if (spans_.size() == kSpanCapacity) {
      ++dropped_;
      return kNoSpan;
    }
    spans_.push_back({name, parent, doc, start, end});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t id, uint64_t end) {
    if (id != kNoSpan) spans_[id].end = end;
  }

  size_t kept() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tname\tdoc\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%s\t%llu\t%llu\t%llu\n", i,
                   s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                   kSpanNames[s.name], static_cast<unsigned long long>(s.doc),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  size_t dropped_ = 0;
};

void BuildViews(const xml::DocumentPath& path,
                std::vector<core::PathElementView>* views) {
  views->clear();
  for (uint32_t pos = 1; pos <= path.length(); ++pos) {
    core::PathElementView view;
    view.tag = path.Tag(pos);
    view.attributes = &path.Attributes(pos);
    view.node = path.Node(pos);
    views->push_back(view);
  }
}

/// The (tag, attributes) key the matcher's per-document publication
/// memo uses: a path whose key was already seen in the document skips
/// encoding and both matching stages.
void MemoKey(const std::vector<core::PathElementView>& views,
             std::string* key) {
  key->clear();
  for (const core::PathElementView& element : views) {
    key->append(element.tag);
    if (element.attributes != nullptr) {
      for (const xml::Attribute& a : *element.attributes) {
        key->push_back('\x01');
        key->append(a.name);
        key->push_back('\x02');
        key->append(a.value);
      }
    }
    key->push_back('\x03');
  }
}

/// Replay state shared by the passes.
struct Replayer {
  const core::Matcher& matcher;
  const ResourceLimits limits;
  core::MatchContext untraced_ctx;
  core::MatchContext traced_ctx;
  core::Publication pub;
  core::MatchResultSet results;
  std::vector<xml::DocumentPath> paths;
  std::vector<core::PathElementView> views;
  std::vector<core::ExprId> matched;
  std::unordered_set<std::string> seen;
  std::string key;
  SpanLog spans;
  uint64_t next_doc = 0;

  explicit Replayer(const core::Matcher& m) : matcher(m), limits() {}

  bool Untraced(const std::string& bytes, double* parse_ns,
                double* filter_ns) {
    const uint64_t t0 = NowNanos();
    Result<xml::Document> doc = xml::Document::Parse(bytes);
    const uint64_t t1 = NowNanos();
    if (!doc.ok()) return false;
    untraced_ctx.budget().Arm(limits);
    matched.clear();
    const uint64_t t2 = NowNanos();
    const Status st = matcher.FilterDocument(*doc, &untraced_ctx, &matched);
    const uint64_t t3 = NowNanos();
    *parse_ns += static_cast<double>(t1 - t0);
    *filter_ns += static_cast<double>(t3 - t2);
    return st.ok();
  }

  bool Traced(const std::string& bytes, LayerTimes* t, LayerCounts* c) {
    const uint64_t id = next_doc++;
    const uint64_t t0 = NowNanos();
    Result<xml::Document> doc = xml::Document::Parse(bytes);
    const uint64_t t1 = NowNanos();
    if (!doc.ok()) return false;
    const uint32_t doc_span = spans.Add(kDoc, kNoSpan, id, t0, t0);
    spans.Add(kParse, doc_span, id, t0, t1);

    core::MatchContext& ctx = traced_ctx;
    ctx.budget().Arm(limits);
    matcher.BeginDocumentStream(&ctx);
    paths.clear();
    const uint64_t e0 = NowNanos();
    if (!xml::ExtractPaths(*doc, &ctx.budget(), &paths).ok()) return false;
    const uint64_t e1 = NowNanos();
    spans.Add(kExtract, doc_span, id, e0, e1);

    seen.clear();
    uint64_t encode = 0, predicate = 0, process = 0;
    for (const xml::DocumentPath& path : paths) {
      BuildViews(path, &views);
      MemoKey(views, &key);
      const bool distinct = seen.insert(key).second;
      const uint32_t path_span = spans.Add(kPath, doc_span, id, NowNanos(), 0);
      if (distinct) {
        const uint64_t a = NowNanos();
        pub.Assign(views, matcher.interner());
        const uint64_t b = NowNanos();
        c->predicate_matches += matcher.predicate_index().Match(pub, &results);
        const uint64_t m = NowNanos();
        spans.Add(kEncode, path_span, id, a, b);
        spans.Add(kPredicate, path_span, id, b, m);
        encode += b - a;
        predicate += m - b;
        ++c->distinct_paths;
      }
      const uint64_t p0 = NowNanos();
      const Status st = matcher.ProcessStreamedPath(views, &ctx);
      const uint64_t p1 = NowNanos();
      if (!st.ok()) return false;
      spans.Add(kProcess, path_span, id, p0, p1);
      spans.Close(path_span, p1);
      process += p1 - p0;
    }
    matched.clear();
    const uint64_t k0 = NowNanos();
    const Status st = matcher.EndDocumentStream(&ctx, &matched);
    const uint64_t k1 = NowNanos();
    if (!st.ok()) return false;
    spans.Add(kCollect, doc_span, id, k0, k1);
    spans.Close(doc_span, k1);

    const core::MatchCounters counters = ctx.TakeCounters();
    ++c->docs;
    c->bytes += bytes.size();
    c->paths += paths.size();
    c->occurrence_runs += counters.occurrence_runs;
    c->matches += matched.size();

    t->parse += static_cast<double>(t1 - t0);
    t->extract += static_cast<double>(e1 - e0);
    t->encode += static_cast<double>(encode);
    t->predicate += static_cast<double>(predicate);
    t->expression += static_cast<double>(process) -
                     static_cast<double>(encode + predicate);
    t->collect += static_cast<double>(k1 - k0);
    t->traced_filter += static_cast<double>(k1 - t1);
    return true;
  }
};

}  // namespace

bool RunSerialReplay(const core::Matcher& matcher,
                     const std::vector<std::string>& documents,
                     double seconds, const std::string& span_path,
                     SerialReplay* out) {
  Replayer replayer(matcher);
  LayerTimes traced;
  double untraced_parse = 0, untraced_filter = 0;
  uint64_t untraced_docs = 0, traced_docs = 0;
  const uint64_t start = NowNanos();
  const uint64_t limit = static_cast<uint64_t>(seconds * 1e9);
  for (size_t pass = 0; pass == 0 || NowNanos() - start < limit; ++pass) {
    for (const std::string& bytes : documents) {
      if (!replayer.Untraced(bytes, &untraced_parse, &untraced_filter)) {
        return false;
      }
      ++untraced_docs;
    }
    LayerCounts counts;
    for (const std::string& bytes : documents) {
      if (!replayer.Traced(bytes, &traced, &counts)) return false;
      ++traced_docs;
    }
    if (pass == 0) out->counts = counts;
  }
  const double n = static_cast<double>(traced_docs);
  out->traced.parse = traced.parse / n;
  out->traced.extract = traced.extract / n;
  out->traced.encode = traced.encode / n;
  out->traced.predicate = traced.predicate / n;
  out->traced.expression = traced.expression / n;
  out->traced.collect = traced.collect / n;
  out->traced.traced_filter = traced.traced_filter / n;
  out->untraced_parse_ns = untraced_parse / static_cast<double>(untraced_docs);
  out->untraced_filter_ns =
      untraced_filter / static_cast<double>(untraced_docs);
  out->spans_kept = replayer.spans.kept();
  out->spans_dropped = replayer.spans.dropped();
  if (!span_path.empty() && !replayer.spans.Write(span_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", span_path.c_str());
  }
  return true;
}

void CountPaths(const std::string& document, uint64_t* paths,
                uint64_t* distinct) {
  Result<xml::Document> doc = xml::Document::Parse(document);
  if (!doc.ok()) return;
  std::unordered_set<std::string> seen;
  std::vector<core::PathElementView> views;
  std::string key;
  for (const xml::DocumentPath& path : xml::ExtractPaths(*doc)) {
    BuildViews(path, &views);
    MemoKey(views, &key);
    ++*paths;
    if (seen.insert(key).second) ++*distinct;
  }
}

}  // namespace xpred::perfbench
