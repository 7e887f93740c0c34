#include "replay.h"

#include <memory>
#include <utility>

#include "entity/entity_linker.h"
#include "entity/surface_forms.h"
#include "index/inverted_index.h"
#include "kb/knowledge_base.h"
#include "retrieval/retriever.h"
#include "retrieval/wand_retriever.h"
#include "serving/snapshot_registry.h"

namespace perfbench {

namespace {

using sqe::expansion::QueryGraph;
using sqe::expansion::SqeEngine;
using sqe::retrieval::ResolvedQuery;
using sqe::retrieval::ResultList;

// Postings the scorer reads for a query: each atom's terms' document
// frequencies (a phrase atom reads every term's list to assemble its own).
uint64_t PostingsRead(const sqe::index::InvertedIndex& index,
                      const sqe::retrieval::Query& query) {
  uint64_t postings = 0;
  for (const sqe::retrieval::Clause& clause : query.clauses) {
    for (const sqe::retrieval::Atom& atom : clause.atoms) {
      for (const std::string& term : atom.terms) {
        const sqe::text::TermId t = index.LookupTerm(term);
        if (t != sqe::text::kInvalidTermId) {
          postings += index.DocumentFrequency(t);
        }
      }
    }
  }
  return postings;
}

}  // namespace

void TraceQueries(const SqeEngine& engine, const sqe::text::Analyzer& analyzer,
                  const std::vector<ReplayQuery>& queries,
                  const ReplaySettings& settings, Tracer* tracer,
                  Report* report) {
  const sqe::retrieval::Retriever& retriever = engine.retriever();
  const sqe::index::InvertedIndex& index = retriever.index();
  const auto num_docs = static_cast<sqe::index::DocId>(index.NumDocuments());
  sqe::retrieval::WandRetriever wand(&retriever);
  sqe::retrieval::RetrieverScratch traced_scratch, untraced_scratch;

  std::vector<double> traced_ms, untraced_ms;
  uint64_t empty_links = 0, expansion_nodes = 0, atoms = 0, phrase_atoms = 0;
  uint64_t postings = 0;

  auto run_traced = [&](const ReplayQuery& q, uint64_t request) {
    ResultList results;
    const size_t root = tracer->Begin("request", request);
    {
      ScopedSpan span(tracer, "text.analyze", request);
      std::vector<std::string> terms = analyzer.Analyze(q.text);
      if (terms.empty()) report->Note("query analyzed to no terms: " + q.text);
    }
    std::vector<sqe::kb::ArticleId> nodes = q.nodes;
    if (settings.link) {
      ScopedSpan span(tracer, "entity.link", request);
      nodes = engine.LinkQueryNodes(q.text);
    }
    QueryGraph graph;
    {
      ScopedSpan span(tracer, "sqe.motif", request);
      graph = engine.motif_finder().BuildQueryGraph(nodes, q.motifs);
    }
    sqe::retrieval::Query query;
    {
      ScopedSpan span(tracer, "sqe.build", request);
      query = engine.BuildExpandedQuery(q.text, graph);
    }
    ResolvedQuery resolved;
    {
      ScopedSpan span(tracer, "retrieval.resolve", request);
      resolved = retriever.Resolve(query);
    }
    {
      ScopedSpan span(tracer, "retrieval.score", request);
      if (settings.k > 0 && num_docs > 0) {
        results = settings.prune
                      ? wand.RetrieveRange(resolved, 0, num_docs,
                                           index.DocsByLength(), settings.k,
                                           &traced_scratch)
                      : retriever.RetrieveRange(resolved, 0, num_docs,
                                                index.DocsByLength(),
                                                settings.k, &traced_scratch);
      }
    }
    tracer->End(root);
    traced_ms.push_back(tracer->DurationSeconds(root) * 1e3);
    if (nodes.empty()) ++empty_links;
    expansion_nodes += graph.expansion_nodes.size();
    for (const sqe::retrieval::Clause& clause : query.clauses) {
      for (const sqe::retrieval::Atom& atom : clause.atoms) {
        ++atoms;
        if (atom.is_phrase()) ++phrase_atoms;
      }
    }
    postings += PostingsRead(index, query);
    return results;
  };

  // The untraced reference: what one request costs on the engine's own
  // pipeline, linking included when the workload links. The RunControl
  // overload reuses a caller scratch, as batch and serving workers do.
  auto run_untraced = [&](const ReplayQuery& q) {
    const SteadyClock::time_point start = SteadyClock::now();
    std::vector<sqe::kb::ArticleId> nodes =
        settings.link ? engine.LinkQueryNodes(q.text) : q.nodes;
    sqe::Result<sqe::expansion::SqeRunResult> run =
        engine.RunSqe(q.text, nodes, q.motifs, settings.k,
                      sqe::expansion::RunControl{}, &untraced_scratch);
    untraced_ms.push_back(SecondsSince(start) * 1e3);
    return run.ok() ? std::move(run.value().results) : ResultList{};
  };

  for (size_t i = 0; i < queries.size(); ++i) {
    // Alternate which side runs first so neither always finds the query's
    // postings already in the CPU caches.
    ResultList traced, untraced;
    if (i % 2 == 0) {
      traced = run_traced(queries[i], i + 1);
      untraced = run_untraced(queries[i]);
    } else {
      untraced = run_untraced(queries[i]);
      traced = run_traced(queries[i], i + 1);
    }
    if (!SameRanking(traced, untraced)) ++report->mismatched;
  }

  const double n = static_cast<double>(queries.empty() ? 1 : queries.size());
  const std::map<std::string, double> self_seconds = tracer->SelfSeconds();
  auto self_us = [&](const char* name) {
    auto it = self_seconds.find(name);
    return it == self_seconds.end() ? 0.0 : it->second * 1e6 / n;
  };
  double layer_us = 0.0;
  for (const char* name : {"text.analyze", "entity.link", "sqe.motif",
                           "sqe.build", "retrieval.resolve",
                           "retrieval.score"}) {
    layer_us += self_us(name);
  }
  double traced_total_ms = 0.0, untraced_total_ms = 0.0;
  for (double ms : traced_ms) traced_total_ms += ms;
  for (double ms : untraced_ms) untraced_total_ms += ms;
  const double service_us = untraced_total_ms * 1e3 / n;
  const double coverage = service_us > 0.0 ? layer_us / service_us : 0.0;
  const sqe::retrieval::WandStats wand_stats = wand.Stats();
  const uint64_t wand_calls = wand_stats.queries + wand_stats.fallbacks;

  report->AddLayer("text.analyze_us", self_us("text.analyze"), "us");
  report->AddLayer("entity.link_us", self_us("entity.link"), "us");
  report->AddLayer("entity.empty_frac",
                   settings.link ? static_cast<double>(empty_links) / n : 0.0,
                   "fraction");
  report->AddLayer("sqe.motif_us", self_us("sqe.motif"), "us");
  report->AddLayer("sqe.expansion_nodes",
                   static_cast<double>(expansion_nodes) / n, "count");
  report->AddLayer("sqe.build_us", self_us("sqe.build"), "us");
  report->AddLayer("sqe.atoms", static_cast<double>(atoms) / n, "count");
  report->AddLayer("sqe.phrase_atoms", static_cast<double>(phrase_atoms) / n,
                   "count");
  report->AddLayer("retrieval.resolve_us", self_us("retrieval.resolve"), "us");
  report->AddLayer("retrieval.score_us", self_us("retrieval.score"), "us");
  report->AddLayer("retrieval.postings", static_cast<double>(postings) / n,
                   "count");
  report->AddLayer("retrieval.wand_frac",
                   wand_calls == 0 ? 0.0
                                   : static_cast<double>(wand_stats.queries) /
                                         static_cast<double>(wand_calls),
                   "fraction");
  report->AddLayer("retrieval.wand_skip_frac", wand_stats.SkipFraction(),
                   "fraction");
  report->AddLayer("trace.samples", static_cast<double>(queries.size()),
                   "count");
  report->AddLayer("trace.coverage", coverage, "fraction");
  report->AddLayer("trace.unattributed_frac", 1.0 - coverage, "fraction");
  report->AddLayer("trace.qps",
                   traced_total_ms > 0 ? n * 1e3 / traced_total_ms : 0.0,
                   "queries/s");
  report->AddLayer("trace.untraced_qps",
                   untraced_total_ms > 0 ? n * 1e3 / untraced_total_ms : 0.0,
                   "queries/s");
  report->AddLayer("trace.p50_ms", Median(traced_ms), "ms");
  report->AddLayer("trace.untraced_p50_ms", Median(untraced_ms), "ms");
  report->AddLayer("trace.overhead_frac",
                   untraced_total_ms > 0
                       ? traced_total_ms / untraced_total_ms - 1.0
                       : 0.0,
                   "fraction");
}

sqe::serving::SnapshotRegistryOptions RegistryOptions(bool shared_cache) {
  sqe::serving::SnapshotRegistryOptions options;
  options.validate_on_publish = false;
  options.shared_cache.enabled = shared_cache;
  return options;
}

sqe::Result<sqe::serving::SnapshotParts> LoadGeneration(
    const std::string& kb_path, const std::string& index_path,
    bool build_linker, Tracer* tracer, uint64_t request) {
  sqe::serving::SnapshotParts parts;
  {
    ScopedSpan span(tracer, "snapshot.load", request);
    auto kb = sqe::kb::KnowledgeBase::FromSnapshotFile(
        kb_path, sqe::io::LoadMode::kZeroCopy);
    if (!kb.ok()) return std::move(kb).status();
    auto index = sqe::index::InvertedIndex::FromSnapshotFile(
        index_path, sqe::io::LoadMode::kZeroCopy);
    if (!index.ok()) return std::move(index).status();
    parts.kb = std::make_unique<sqe::kb::KnowledgeBase>(std::move(kb).value());
    parts.index =
        std::make_unique<sqe::index::InvertedIndex>(std::move(index).value());
  }
  {
    ScopedSpan span(tracer, "snapshot.validate", request);
    sqe::Status st = parts.kb->Validate();
    if (st.ok()) st = parts.index->Validate();
    if (!st.ok()) return st;
  }
  parts.analyzer = std::make_unique<sqe::text::Analyzer>();
  if (build_linker) {
    ScopedSpan span(tracer, "entity.link_build", request);
    parts.surface_forms = std::make_unique<sqe::entity::SurfaceFormDictionary>(
        sqe::entity::SurfaceFormDictionary::FromKbTitles(*parts.kb,
                                                         *parts.analyzer));
    parts.surface_forms->Finalize();
    parts.linker = std::make_unique<sqe::entity::EntityLinker>(
        parts.surface_forms.get(), parts.analyzer.get());
  }
  return parts;
}

sqe::Result<uint64_t> PublishFromFiles(
    sqe::serving::SnapshotRegistry* registry, const std::string& kb_path,
    const std::string& index_path, bool build_linker,
    const sqe::expansion::SqeEngineConfig& config, Tracer* tracer,
    uint64_t request) {
  sqe::Result<sqe::serving::SnapshotParts> parts =
      LoadGeneration(kb_path, index_path, build_linker, tracer, request);
  if (!parts.ok()) return std::move(parts).status();
  parts.value().engine_config = config;
  ScopedSpan span(tracer, "snapshot.publish", request);
  return registry->Publish(std::move(parts).value());
}

double TimeSwaps(const std::string& kb_path, const std::string& index_path,
                 bool build_linker,
                 const sqe::expansion::SqeEngineConfig& config, int repeats,
                 Tracer* tracer, Report* report) {
  sqe::serving::SnapshotRegistry registry(RegistryOptions(false));
  sqe::serving::SnapshotLease previous;
  std::vector<double> seconds;
  // Swap rounds get request ids above every replayed query's. Round 0
  // publishes the generation the timed rounds supersede.
  const uint64_t first_request = 1u << 30;
  for (int round = 0; round <= repeats; ++round) {
    const uint64_t request = first_request + static_cast<uint64_t>(round);
    ScopedSpan root(tracer, "snapshot.swap", request);
    const SteadyClock::time_point start = SteadyClock::now();
    const sqe::Result<uint64_t> published = PublishFromFiles(
        &registry, kb_path, index_path, build_linker, config, tracer, request);
    if (!published.ok()) {
      report->Note("swap failed: " + published.status().ToString());
      return -1.0;
    }
    if (round > 0) seconds.push_back(SecondsSince(start));
    {
      // The only lease on the superseded generation: dropping it runs the
      // retirement (engine, KB and index teardown).
      ScopedSpan span(previous != nullptr ? tracer : nullptr,
                      "snapshot.retire", request);
      previous.reset();
    }
    previous = registry.Acquire();
  }
  if (registry.Stats().retired != static_cast<uint64_t>(repeats)) {
    report->Note("swaps: superseded generations did not retire");
    return -1.0;
  }
  if (tracer != nullptr) {
    std::map<std::string, std::vector<double>> stage_ms;
    for (size_t i = 0; i < tracer->spans().size(); ++i) {
      const Tracer::Span& span = tracer->spans()[i];
      if (span.request > first_request) {
        stage_ms[span.name].push_back(tracer->DurationSeconds(i) * 1e3);
      }
    }
    report->AddLayer("snapshot.load_ms", Median(stage_ms["snapshot.load"]),
                     "ms");
    report->AddLayer("snapshot.validate_ms",
                     Median(stage_ms["snapshot.validate"]), "ms");
    report->AddLayer("snapshot.publish_ms",
                     Median(stage_ms["snapshot.publish"]), "ms");
    report->AddLayer("snapshot.retire_ms", Median(stage_ms["snapshot.retire"]),
                     "ms");
  }
  return Median(seconds);
}

}  // namespace perfbench
