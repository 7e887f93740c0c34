// eval-batch: the paper's offline evaluation at paper scale.
//
// Setup builds PaperWorld and a CHiC-2012-like collection (60k documents,
// indexed in-process, so postings are raw) and a seeded stream of distinct
// queries with manual (M) query nodes. The timed loop feeds the stream
// through SqeEngine::RunBatch on a 4-worker ThreadPool at k=1000, the
// paper's evaluation depth, cycling the T, T&S and S motif configurations
// batch by batch. Cache and pruning stay off: retrieval at depth 1000,
// motif traversal and pool scaling do the work here.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "index/inverted_index.h"
#include "replay.h"
#include "synth/collection.h"
#include "synth/dataset.h"
#include "synth/query_gen.h"
#include "synth/world.h"
#include "text/analyzer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sqe::expansion::BatchQueryInput;
using sqe::expansion::MotifConfig;

constexpr size_t kDepth = 1000;
constexpr size_t kWorkers = 4;
constexpr int kSetupRepeats = 3;
constexpr int kSwapRepeats = 9;

struct Scale {
  sqe::synth::WorldOptions world;
  sqe::synth::CollectionOptions collection;
  size_t num_queries;
  size_t batch_size;
  size_t check_samples;
  size_t trace_samples;
};

Scale ScaleFor(Size size, uint64_t seed) {
  Scale scale;
  if (size == Size::kPaper) {
    scale.world = sqe::synth::PaperWorldOptions();
    scale.collection = sqe::synth::Chic2012Spec().collection;
    scale.num_queries = 3000;
    scale.batch_size = 1000;
    scale.check_samples = 192;
    scale.trace_samples = 600;
  } else {
    scale.world = sqe::synth::TinyWorldOptions();
    scale.collection = sqe::synth::TinyDatasetSpec().collection;
    scale.num_queries = 60;
    scale.batch_size = 8;
    scale.check_samples = 12;
    scale.trace_samples = 12;
  }
  scale.collection.seed = SubSeed(seed, 1);
  return scale;
}

struct Corpus {
  sqe::synth::World world;
  sqe::synth::Collection collection;
  sqe::index::InvertedIndex index;
};

std::unique_ptr<Corpus> BuildCorpus(const Scale& scale,
                                    const sqe::text::Analyzer& analyzer) {
  auto corpus = std::make_unique<Corpus>();
  corpus->world = sqe::synth::World::Generate(scale.world);
  corpus->collection =
      sqe::synth::GenerateCollection(corpus->world, scale.collection);
  sqe::index::IndexBuilder builder;
  for (const sqe::synth::GeneratedDoc& doc : corpus->collection.docs) {
    builder.AddDocument(doc.external_id, analyzer.Analyze(doc.text));
  }
  corpus->index = std::move(builder).Build();
  return corpus;
}

const MotifConfig kConfigs[3] = {MotifConfig::Triangular(),
                                 MotifConfig::Both(), MotifConfig::Square()};

}  // namespace

bool RunEvalBatch(const Options& options, Report* report) {
  const Scale scale = ScaleFor(options.size, options.seed);
  const sqe::text::Analyzer analyzer;
  const double mu = sqe::synth::Chic2012Spec().retrieval_mu;

  // ---- setup: world generation + index build, repeated for a median ------
  std::vector<double> setup_s;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<sqe::expansion::SqeEngine> engine;
  sqe::expansion::SqeEngineConfig config;
  config.retriever.mu = mu;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    corpus.reset();
    const SteadyClock::time_point start = SteadyClock::now();
    corpus = BuildCorpus(scale, analyzer);
    engine = std::make_unique<sqe::expansion::SqeEngine>(
        &corpus->world.kb, &corpus->index, nullptr, &analyzer, config);
    setup_s.push_back(SecondsSince(start));
  }

  // ---- inputs: a seeded stream of distinct queries (manual nodes) --------
  sqe::synth::QueryGenOptions qopts = sqe::synth::Chic2012Spec().queries;
  qopts.seed = SubSeed(options.seed, 2);
  qopts.num_queries = scale.num_queries;
  qopts.num_zero_relevant = 0;
  const sqe::synth::QuerySet query_set =
      sqe::synth::GenerateQueries(corpus->world, corpus->collection, qopts);
  std::vector<BatchQueryInput> stream;
  for (const sqe::synth::GeneratedQuery& q : query_set.queries) {
    stream.push_back({q.text, q.true_entities});
  }
  report->Note("eval-batch: " + std::to_string(corpus->index.NumDocuments()) +
               " docs, " + std::to_string(stream.size()) +
               " queries, k=1000, 4 workers");

  // ---- timed loop ---------------------------------------------------------
  sqe::ThreadPool pool(kWorkers);
  struct Checked {
    size_t query = 0;
    size_t config = 0;
    sqe::retrieval::ResultList results;
  };
  std::vector<Checked> checked;
  sqe::Rng check_rng(SubSeed(options.seed, 3));
  // Batch b runs configuration config_at(b); shifting by one per pass over
  // the stream gives every query every configuration in turn.
  const size_t batches_per_pass =
      (stream.size() + scale.batch_size - 1) / scale.batch_size;
  auto config_at = [&](size_t b) { return (b + b / batches_per_pass) % 3; };
  auto batch_at = [&](size_t b) {
    const size_t begin = (b % batches_per_pass) * scale.batch_size;
    const size_t len = std::min(scale.batch_size, stream.size() - begin);
    return std::span<const BatchQueryInput>(stream).subspan(begin, len);
  };
  for (size_t b = 0; b < 3; ++b) {  // warm-up: one batch per configuration
    engine->RunBatch(batch_at(b), kConfigs[config_at(b)], kDepth, &pool);
  }

  std::vector<double> latency_ms;  // per-query RunBatch service times
  std::vector<double> batch_qps;
  double busy_ms = 0.0;
  uint64_t completed = 0;
  const StealMeter steal;
  const SteadyClock::time_point start = SteadyClock::now();
  double wall = 0.0;
  for (size_t b = 3; wall < options.seconds; ++b) {
    const std::span<const BatchQueryInput> batch = batch_at(b);
    const double batch_start = wall;
    std::vector<sqe::expansion::SqeRunResult> results =
        engine->RunBatch(batch, kConfigs[config_at(b)], kDepth, &pool);
    wall = SecondsSince(start);
    batch_qps.push_back(static_cast<double>(batch.size()) /
                        (wall - batch_start));
    completed += results.size();
    for (const sqe::expansion::SqeRunResult& r : results) {
      latency_ms.push_back(r.total_ms);
      busy_ms += r.total_ms;
    }
    // One seeded pick per batch, up to the sample size, is checked below.
    if (checked.size() < scale.check_samples) {
      const size_t pick = check_rng.NextBounded(results.size());
      checked.push_back({static_cast<size_t>(batch.data() - stream.data()) +
                             pick,
                         config_at(b), std::move(results[pick].results)});
    }
  }

  const double peak_rss_mb = PeakRssMiB();
  const double steal_frac = steal.Fraction();

  // ---- output check: RunBatch rankings vs pool-less RunSqe ---------------
  for (const Checked& c : checked) {
    const BatchQueryInput& q = stream[c.query];
    sqe::expansion::SqeRunResult oracle =
        engine->RunSqe(q.text, q.query_nodes, kConfigs[c.config], kDepth);
    if (!SameRanking(oracle.results, c.results)) ++report->mismatched;
  }
  report->attempted = completed;
  report->failed = report->mismatched;
  report->Note("checked " + std::to_string(checked.size()) +
               " RunBatch rankings against RunSqe, " +
               std::to_string(report->mismatched) + " mismatched");

  // ---- idle generation swap of this collection ----------------------------
  const std::string dir = options.data_dir + "/eval-" +
                          (options.size == Size::kPaper ? "paper" : "tiny") +
                          "-seed-" + std::to_string(options.seed);
  const std::string kb_path = dir + "/kb.snap";
  const std::string index_path = dir + "/index.snap";
  if (!FileExists(index_path)) {
    if (!MakeDirs(dir)) {
      report->Note("cannot create " + dir);
      return false;
    }
    sqe::Status st = corpus->world.kb.SaveToFile(kb_path);
    if (st.ok()) st = corpus->index.SaveToFile(index_path);
    if (!st.ok()) {
      report->Note("snapshot write failed: " + st.ToString());
      return false;
    }
  }
  PruneDataDirs(options.data_dir, dir, 2);
  const double swap_s = TimeSwaps(kb_path, index_path, false, config,
                                  kSwapRepeats, nullptr, report);
  if (swap_s < 0) return false;

  report->AddEndToEnd("setup_s", Median(setup_s), "s");
  // Each RunBatch call is one evaluation pass; the median pass is robust
  // to a pass the host stalled.
  report->AddEndToEnd("qps", Median(batch_qps), "queries/s");
  report->AddEndToEnd("p50_ms", Percentile(latency_ms, 0.50), "ms");
  report->AddEndToEnd("p99_ms", Percentile(latency_ms, 0.99), "ms");
  report->AddEndToEnd("peak_rss_mb", peak_rss_mb, "MiB");
  report->AddEndToEnd("swap_s", swap_s, "s");
  report->Note("latency samples: " + std::to_string(latency_ms.size()) +
               " per-query RunBatch service times");

  if (!options.trace) return true;

  // ---- traced run: stage-by-stage replay of a seeded sample --------------
  Tracer tracer;
  std::vector<ReplayQuery> sample;
  sqe::Rng trace_rng(SubSeed(options.seed, 4));
  for (size_t i = 0; i < scale.trace_samples; ++i) {
    const BatchQueryInput& q = stream[trace_rng.NextBounded(stream.size())];
    sample.push_back({q.text, q.query_nodes, kConfigs[i % 3]});
  }
  ReplaySettings settings;
  settings.k = kDepth;
  TraceQueries(*engine, analyzer, sample, settings, &tracer, report);
  if (TimeSwaps(kb_path, index_path, false, config, kSwapRepeats, &tracer,
                report) < 0) {
    return false;
  }
  const sqe::index::InvertedIndex::PostingsStats postings =
      corpus->index.ComputePostingsStats();
  report->AddLayer("index.postings_mb",
                   static_cast<double>(postings.raw_bytes) / (1 << 20), "MiB");
  report->AddLayer("host.steal_frac", steal_frac, "fraction");
  report->AddLayer("pool.busy_frac",
                   busy_ms / (wall * 1e3 * static_cast<double>(kWorkers)),
                   "fraction");
  if (!tracer.WriteChromeTrace(dir + "/trace.json")) {
    report->Note("could not write " + dir + "/trace.json");
  }
  return true;
}

}  // namespace perfbench
