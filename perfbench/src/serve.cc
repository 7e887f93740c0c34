// serve-zipf and serve-swap: online interactive traffic.
//
// Inputs, generated once per seed and kept under the data directory: a
// ~300k-document collection over PaperWorld written as KB and v4 (packed)
// index snapshot files, and a pool of distinct query texts several times
// larger than the result cache. Setup loads the files mapped into a
// SnapshotRegistry with the shared cache on (linker built from the KB
// titles, see LoadGeneration), with pruning on and k=100.
//
// One generator thread sends requests open-loop on a seeded Poisson
// schedule, each drawn Zipf from the pool and linked with the current
// generation's LinkQueryNodes (the paper's (A) mode) before Submit. Each
// request's deadline is its due time plus the latency limit, and latency is
// measured from the due time, so a growing queue or a slow Submit shows in
// the numbers. serve-swap adds a loader thread that publishes a fresh
// generation from the same files every few seconds with a perturbed
// smoothing mu, so each epoch ranks differently and the cache has to
// refill. Thread budget: 1 generator + 2 workers + 1 loader, plus idle
// spinners that only fill halted CPU time (see IdleSpinners).
//
// The latencies are run-wide percentiles over every measured request
// outside the moments the host disturbed the run (kLateLimitMs).
// The throughput figure (qps) is the front end's service capacity.
//
// Every completed response is checked against a bare-engine oracle for the
// epoch it was pinned to.
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "index/inverted_index.h"
#include "io/file.h"
#include "replay.h"
#include "serving/frontend.h"
#include "serving/snapshot_registry.h"
#include "synth/collection.h"
#include "synth/dataset.h"
#include "synth/query_gen.h"
#include "synth/world.h"
#include "text/analyzer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sqe::expansion::MotifConfig;
using sqe::serving::ServingCall;
using sqe::serving::ServingResponse;

constexpr size_t kDepth = 100;
constexpr size_t kWorkers = 2;
constexpr size_t kQueueCapacity = 4096;
constexpr int kSetupRepeats = 5;
constexpr int kSwapRepeats = 7;
// Keeps the result cache's hit rate near 0.8 on serve-zipf and 0.6 on
// serve-swap, away from one half, so the median request is a cache hit in
// every run rather than flipping between the hit and miss modes.
constexpr double kZipfExponent = 1.0;
// Host disturbance. The generator runs alone on its CPU and normally starts
// each request within tens of microseconds of its due time. It starts one
// more than kLateLimitMs late when the host has descheduled its virtual CPU
// (or stalled a call it made) for milliseconds, which happens dozens of
// times a run, more on a busy host; serve-swap's publishes add about as
// many again. The workers' virtual CPUs tend to stall at the same moments,
// and a few dozen such moments decide whether a run's p99 is 0.5 or 2 ms.
// Every request due within kDisturbedS of a request started that late is
// left out of the latency percentiles and of the capacity figure (qps);
// gen.late_frac counts the late ones and the run's notes the share left
// out. The criterion is the generator's lateness before it calls the
// program, not any latency, but it cannot tell the host from the program:
// a call of the program that blocks the generator for more than
// kLateLimitMs takes its neighbourhood out of the percentiles too. Should
// more than kMaxLateFrac of the requests start late, the generator cannot
// keep the schedule and the run fails instead.
constexpr double kLateLimitMs = 0.5;
constexpr double kDisturbedS = 0.010;
constexpr double kMaxLateFrac = 0.5;

// One measured request: due time in seconds after the warm-up, latency
// from the due time, and the worker's service time.
struct Timed {
  double due_s;
  double latency_ms;
  double service_ms;
};

// The requests of `requests` (in due order) due more than kDisturbedS away
// from every time in `late_due_s` (ascending).
std::vector<Timed> Undisturbed(const std::vector<Timed>& requests,
                               const std::vector<double>& late_due_s) {
  std::vector<Timed> kept;
  size_t next = 0;  // first late time not before the request's window
  for (const Timed& r : requests) {
    while (next < late_due_s.size() &&
           late_due_s[next] < r.due_s - kDisturbedS) {
      ++next;
    }
    if (next == late_due_s.size() ||
        late_due_s[next] > r.due_s + kDisturbedS) {
      kept.push_back(r);
    }
  }
  return kept;
}

struct Scale {
  sqe::synth::WorldOptions world;
  sqe::synth::CollectionOptions collection;
  size_t pool_size;
  size_t queries_per_round;
  /// Offered load, requests per second.
  double rate;
  /// Latency limit: each request's deadline is due time + this.
  double deadline_ms;
  double warmup_s;
  /// serve-swap publishes once per period, in the middle of it.
  double swap_period_s;
  size_t trace_samples;
};

Scale ScaleFor(Size size, uint64_t seed) {
  Scale scale;
  if (size == Size::kPaper) {
    scale.world = sqe::synth::PaperWorldOptions();
    scale.collection = sqe::synth::Chic2012Spec().collection;
    scale.collection.num_docs = 300000;
    scale.pool_size = 32768;  // 4x the result cache's 8,192 entries
    scale.queries_per_round = 2000;
    // About a tenth busy on 2 workers (pool.busy_frac) with a warm cache.
    // Right after a serve-swap publish every request misses and the
    // workers are about half busy; at higher rates that refill runs near
    // saturation, where its queueing, and so p99, swings with every change
    // in host speed.
    scale.rate = 4000.0;
    scale.deadline_ms = 2000.0;
    scale.warmup_s = 2.0;
    scale.swap_period_s = 2.0;
    scale.trace_samples = 600;
  } else {
    scale.world = sqe::synth::TinyWorldOptions();
    scale.collection = sqe::synth::TinyDatasetSpec().collection;
    scale.collection.num_docs = 3000;
    scale.pool_size = 200;
    scale.queries_per_round = 60;
    scale.rate = 100.0;
    scale.deadline_ms = 1000.0;
    scale.warmup_s = 0.2;
    scale.swap_period_s = 0.5;
    scale.trace_samples = 16;
  }
  scale.collection.seed = SubSeed(seed, 11);
  return scale;
}

// Writes the KB and index snapshot files and the query pool for one seed,
// unless a previous run already did. The pool file is written last, so its
// presence marks a complete set.
bool PrepareData(const Scale& scale, uint64_t seed, const std::string& dir,
                 Report* report) {
  const std::string pool_path = dir + "/pool.txt";
  if (FileExists(pool_path)) return true;
  if (!MakeDirs(dir)) {
    report->Note("cannot create " + dir);
    return false;
  }
  const SteadyClock::time_point start = SteadyClock::now();
  const sqe::text::Analyzer analyzer;
  const sqe::synth::World world = sqe::synth::World::Generate(scale.world);
  const sqe::synth::Collection collection =
      sqe::synth::GenerateCollection(world, scale.collection);
  {
    sqe::index::IndexBuilder builder;
    for (const sqe::synth::GeneratedDoc& doc : collection.docs) {
      builder.AddDocument(doc.external_id, analyzer.Analyze(doc.text));
    }
    const sqe::index::InvertedIndex index = std::move(builder).Build();
    sqe::Status st = world.kb.SaveToFile(dir + "/kb.snap");
    if (st.ok()) st = index.SaveToFile(dir + "/index.snap");
    if (!st.ok()) {
      report->Note("snapshot write failed: " + st.ToString());
      return false;
    }
  }
  std::unordered_set<std::string> seen;
  std::string pool;
  size_t pool_size = 0;
  for (uint64_t round = 0; pool_size < scale.pool_size && round < 256;
       ++round) {
    sqe::synth::QueryGenOptions qopts = sqe::synth::Chic2012Spec().queries;
    qopts.seed = SubSeed(seed, 100 + round);
    qopts.num_queries = scale.queries_per_round;
    qopts.num_zero_relevant = 0;
    for (const sqe::synth::GeneratedQuery& q :
         sqe::synth::GenerateQueries(world, collection, qopts).queries) {
      if (pool_size == scale.pool_size || !seen.insert(q.text).second) continue;
      pool += q.text;
      pool += '\n';
      ++pool_size;
    }
  }
  if (pool_size < scale.pool_size) {
    report->Note("query pool has only " + std::to_string(pool_size) +
                 " distinct texts");
    return false;
  }
  const sqe::Status st = sqe::io::WriteStringToFile(pool_path, pool);
  if (!st.ok()) {
    report->Note("pool write failed: " + st.ToString());
    return false;
  }
  report->Note("generated inputs for seed " + std::to_string(seed) + " in " +
               std::to_string(SecondsSince(start)) + " s");
  return true;
}

std::vector<std::string> ReadPool(const std::string& path) {
  std::vector<std::string> pool;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) pool.push_back(line);
  return pool;
}

// One request of the open-loop schedule.
struct Arrival {
  double due_s;    // offset from the start of traffic
  uint32_t query;  // pool index
};

std::vector<Arrival> MakeSchedule(const Scale& scale, double seconds,
                                  uint64_t seed) {
  sqe::Rng rng(SubSeed(seed, 12));
  const ZipfSampler zipf(scale.pool_size, kZipfExponent);
  std::vector<Arrival> schedule;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / scale.rate;
    if (t >= scale.warmup_s + seconds) break;
    schedule.push_back({t, static_cast<uint32_t>(zipf.Next(rng))});
  }
  return schedule;
}

sqe::expansion::SqeEngineConfig BaseConfig() {
  sqe::expansion::SqeEngineConfig config;
  config.retriever.mu = sqe::synth::Chic2012Spec().retrieval_mu;
  config.pruning.enabled = true;
  return config;
}

// Smoothing for the generation a serve-swap publish number `n` creates; 0
// is the setup generation.
double SwapMu(size_t n) {
  return BaseConfig().retriever.mu * (1.0 + 0.02 * static_cast<double>(n));
}

// Stops and joins the loader thread on every exit path.
class LoaderThread {
 public:
  LoaderThread() = default;
  ~LoaderThread() { Stop(); }
  LoaderThread(const LoaderThread&) = delete;
  LoaderThread& operator=(const LoaderThread&) = delete;

  template <typename Fn>
  void Start(Fn fn) {
    thread_ = std::thread(std::move(fn));
  }
  /// Waits until `t` or Stop(); true when stopped.
  bool SleepUntil(SteadyClock::time_point t) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_until(lock, t, [this] { return stop_; });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

std::string ServeDataDir(const Options& options) {
  return options.data_dir + "/serve-" +
         (options.size == Size::kPaper ? "paper" : "tiny") + "-seed-" +
         std::to_string(options.seed);
}

}  // namespace

bool PrepareServeInputs(const Options& options, Report* report) {
  const std::string dir = ServeDataDir(options);
  if (!PrepareData(ScaleFor(options.size, options.seed), options.seed, dir,
                   report)) {
    return false;
  }
  PruneDataDirs(options.data_dir, dir, 2);
  return true;
}

bool RunServe(const Options& options, bool with_swaps, Report* report) {
  const Scale scale = ScaleFor(options.size, options.seed);
  const std::string dir = ServeDataDir(options);
  if (!FileExists(dir + "/pool.txt")) {
    // Generating in this process would leave its memory peak and heap in
    // the measurement; --prepare 1 does it in a process of its own.
    report->Note("inputs for this seed are missing; run with --prepare 1");
    return false;
  }
  const std::string kb_path = dir + "/kb.snap";
  const std::string index_path = dir + "/index.snap";
  const std::vector<std::string> pool = ReadPool(dir + "/pool.txt");
  if (pool.size() != scale.pool_size) {
    report->Note("query pool file is incomplete");
    return false;
  }

  // ---- setup: mapped load + linker build + first publish, repeated --------
  std::vector<double> setup_s;
  std::unique_ptr<sqe::serving::SnapshotRegistry> registry;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    registry.reset();
    const SteadyClock::time_point start = SteadyClock::now();
    registry = std::make_unique<sqe::serving::SnapshotRegistry>(
        RegistryOptions(/*shared_cache=*/true));
    const sqe::Result<uint64_t> published = PublishFromFiles(
        registry.get(), kb_path, index_path, true, BaseConfig());
    setup_s.push_back(SecondsSince(start));
    if (!published.ok()) {
      report->Note("setup publish failed: " + published.status().ToString());
      return false;
    }
  }
  // Guards what the loader thread shares with the generator: the epochs'
  // smoothing, the swap timings and the live-epoch high-water mark.
  std::mutex loader_mu;
  std::map<uint64_t, double> epoch_mu = {{1, SwapMu(0)}};

  // ---- traffic -------------------------------------------------------------
  const std::vector<Arrival> schedule =
      MakeSchedule(scale, options.seconds, options.seed);
  sqe::serving::ServingFrontendConfig frontend_config;
  frontend_config.num_workers = kWorkers;
  frontend_config.queue_capacity = kQueueCapacity;
  std::vector<double> swap_s;
  uint64_t swap_failures = 0;
  uint64_t live_epochs_max = 1;
  auto note_live_epochs = [&] {
    const uint64_t live = registry->Stats().live_epochs();
    std::lock_guard<std::mutex> lock(loader_mu);
    live_epochs_max = std::max(live_epochs_max, live);
  };

  struct Pending {
    std::shared_ptr<ServingCall> call;
    uint32_t query;
    double due_s;           // measured from the end of the warm-up
    double submit_late_ms;  // submit time - due time
    bool started_late;      // more than kLateLimitMs after its due time
  };
  std::deque<Pending> pending;
  // Per measured request: latency from the due time, queue wait, service.
  std::vector<Timed> measured;
  std::vector<double> queue_ms, service_ms, gen_late_ms;
  std::vector<double> late_due_s;  // every request started late, ascending
  double busy_ms = 0.0;
  uint64_t started_late = 0;  // measured requests started late
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> digests;  // (query, epoch)
  const sqe::expansion::SqeCacheStats cache_before =
      registry->shared_cache()->Stats();
  auto finish = [&](const Pending& p) {
    // The call is held by `p`, so the response reference stays valid.
    const ServingResponse& response = p.call->Wait();
    if (!response.status.ok()) {
      ++report->failed;
      return;
    }
    if (p.due_s >= 0.0) {
      if (p.started_late) ++started_late;
      measured.push_back({p.due_s, p.submit_late_ms + response.total_ms,
                          response.total_ms - response.queue_ms});
      queue_ms.push_back(response.queue_ms);
      service_ms.push_back(response.total_ms - response.queue_ms);
      busy_ms += response.total_ms - response.queue_ms;
    }
    const uint64_t digest = RankingDigest(response.result.results);
    auto [it, inserted] =
        digests.emplace(std::make_pair(p.query, response.epoch), digest);
    if (!inserted && it->second != digest) ++report->mismatched;
  };

  uint64_t measured_sent = 0;
  SteadyClock::time_point traffic_start;
  double measured_wall = 0.0;
  double peak_rss_mb = 0.0;  // at the end of the traffic
  double steal_frac = 0.0;
  // CPU placement for the traffic: the generator gets the first allowed CPU
  // to itself; the front end's workers, the loader and the idle spinners
  // (see IdleSpinners) share the others. Threads inherit the set of the
  // thread that starts them.
  const std::vector<int> cpus = AllowedCpus();
  const std::vector<int> service_cpus =
      cpus.size() >= 2 ? std::vector<int>(cpus.begin() + 1, cpus.end())
                       : std::vector<int>{};
  if (!service_cpus.empty()) PinCurrentThread(service_cpus);
  {
    sqe::serving::ServingFrontend frontend(registry.get(), frontend_config);
    const IdleSpinners spinners(service_cpus);
    LoaderThread loader_thread;
    const StealMeter steal;
    traffic_start = SteadyClock::now();
    const auto at = [&](double offset_s) {
      return traffic_start + std::chrono::duration_cast<SteadyClock::duration>(
                                 std::chrono::duration<double>(offset_s));
    };
    if (with_swaps) {
      const size_t swaps = static_cast<size_t>(options.seconds /
                                               scale.swap_period_s);
      loader_thread.Start([&, swaps] {
        for (size_t n = 1; n <= swaps; ++n) {
          if (loader_thread.SleepUntil(
                  at(scale.warmup_s +
                     (static_cast<double>(n) - 0.5) * scale.swap_period_s))) {
            return;
          }
          sqe::expansion::SqeEngineConfig config = BaseConfig();
          config.retriever.mu = SwapMu(n);
          const SteadyClock::time_point start = SteadyClock::now();
          const sqe::Result<uint64_t> published = PublishFromFiles(
              registry.get(), kb_path, index_path, true, config);
          const double seconds = SecondsSince(start);
          {
            std::lock_guard<std::mutex> lock(loader_mu);
            if (published.ok()) {
              epoch_mu[published.value()] = SwapMu(n);
              swap_s.push_back(seconds);
            } else {
              ++swap_failures;
            }
          }
          note_live_epochs();
        }
      });
    }
    if (!service_cpus.empty()) PinCurrentThread({cpus.front()});

    for (size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& arrival = schedule[i];
      const SteadyClock::time_point due = at(arrival.due_s);
      // Spin rather than sleep until the request is due: a sleeping thread
      // idles its virtual CPU, and on a shared host waking an idle virtual
      // CPU can take milliseconds, which would land in every latency. The
      // oldest call is polled at most every 20 us, since the worker that
      // resolves it takes the same lock.
      for (SteadyClock::time_point now = SteadyClock::now(); now < due;
           now = SteadyClock::now()) {
        if (!pending.empty() && pending.front().call->resolved()) {
          finish(pending.front());
          pending.pop_front();
          continue;
        }
        const SteadyClock::time_point until =
            std::min(due, now + std::chrono::microseconds(20));
        while (SteadyClock::now() < until) CpuRelax();
      }
      const SteadyClock::time_point start = SteadyClock::now();
      const bool measured = arrival.due_s >= scale.warmup_s;
      sqe::serving::ServingRequest request;
      request.text = pool[arrival.query];
      {
        const sqe::serving::SnapshotLease lease = registry->Acquire();
        request.query_nodes = lease->engine().LinkQueryNodes(request.text);
      }
      request.motifs = MotifConfig::Both();
      request.k = kDepth;
      request.deadline = sqe::serving::Deadline::At(
          std::chrono::time_point_cast<sqe::Clock::Duration>(due) +
          std::chrono::duration_cast<sqe::Clock::Duration>(
              std::chrono::duration<double, std::milli>(scale.deadline_ms)));
      const SteadyClock::time_point submit = SteadyClock::now();
      const double late_ms =
          std::chrono::duration<double, std::milli>(start - due).count();
      pending.push_back({frontend.Submit(std::move(request)), arrival.query,
                         arrival.due_s - scale.warmup_s,
                         std::chrono::duration<double, std::milli>(submit - due)
                             .count(),
                         late_ms > kLateLimitMs});
      if (late_ms > kLateLimitMs) {
        late_due_s.push_back(arrival.due_s - scale.warmup_s);
      }
      if (measured) {
        ++measured_sent;
        gen_late_ms.push_back(late_ms);
      }
      if (i % 64 == 0) note_live_epochs();
    }
    measured_wall = SecondsSince(traffic_start) - scale.warmup_s;
    peak_rss_mb = PeakRssMiB();
    steal_frac = steal.Fraction();
    while (!pending.empty()) {
      finish(pending.front());
      pending.pop_front();
    }
    loader_thread.Stop();
    frontend.Shutdown();
    const sqe::serving::ServingStats stats = frontend.Stats();
    report->Note("frontend: " + stats.ToString());
    report->AddLayer("serving.peak_queue_depth",
                     static_cast<double>(stats.peak_queue_depth), "count");
    report->AddLayer("serving.rejected", static_cast<double>(stats.rejected()),
                     "count");
    report->AddLayer("serving.expired", static_cast<double>(stats.expired),
                     "count");
    if (stats.submitted != schedule.size() ||
        stats.resolved() != stats.submitted) {
      report->Note("serving accounting does not close: " + stats.ToString());
      ++report->failed;
    }
  }
  PinCurrentThread(cpus);
  const sqe::expansion::SqeCacheStats cache_after =
      registry->shared_cache()->Stats();
  report->attempted = schedule.size();
  if (static_cast<double>(started_late) >
      kMaxLateFrac * static_cast<double>(measured_sent)) {
    report->Note("the generator could not keep the schedule: " +
                 std::to_string(started_late) + " of " +
                 std::to_string(measured_sent) +
                 " measured requests started over 0.5 ms late");
    report->failed += started_late;
  }
  if (swap_failures > 0) {
    report->Note(std::to_string(swap_failures) + " swaps failed");
    return false;
  }

  // ---- output check: every (query, epoch) against a bare-engine oracle ----
  {
    const sqe::Result<sqe::serving::SnapshotParts> parts =
        LoadGeneration(kb_path, index_path, /*build_linker=*/true);
    if (!parts.ok()) {
      report->Note("oracle load failed: " + parts.status().ToString());
      return false;
    }
    const sqe::serving::SnapshotParts& oracle_parts = parts.value();
    std::map<uint64_t, std::unique_ptr<sqe::expansion::SqeEngine>> oracles;
    for (const auto& [epoch, mu] : epoch_mu) {
      sqe::expansion::SqeEngineConfig config = BaseConfig();
      config.retriever.mu = mu;
      config.pruning.enabled = false;  // the exhaustive reference scorer
      oracles[epoch] = std::make_unique<sqe::expansion::SqeEngine>(
          oracle_parts.kb.get(), oracle_parts.index.get(),
          oracle_parts.linker.get(), oracle_parts.analyzer.get(), config);
    }
    std::vector<std::pair<std::pair<uint32_t, uint64_t>, uint64_t>> keys(
        digests.begin(), digests.end());
    std::vector<uint8_t> bad(keys.size(), 0);
    sqe::ThreadPool check_pool(4);
    check_pool.ParallelFor(keys.size(), [&](size_t i, size_t) {
      const auto& [key, digest] = keys[i];
      auto it = oracles.find(key.second);
      if (it == oracles.end()) {
        bad[i] = 1;
        return;
      }
      const std::string& text = pool[key.first];
      const sqe::expansion::SqeEngine& oracle = *it->second;
      const std::vector<sqe::kb::ArticleId> nodes =
          oracle.LinkQueryNodes(text);
      bad[i] = RankingDigest(oracle.RunSqe(text, nodes, MotifConfig::Both(),
                                           kDepth)
                                 .results) != digest;
    });
    for (uint8_t b : bad) report->mismatched += b;
    report->Note("checked " + std::to_string(keys.size()) +
                 " distinct (query, epoch) rankings against bare-engine "
                 "oracles over " +
                 std::to_string(oracles.size()) + " epochs");
  }
  report->failed += report->mismatched;

  const double swap_median =
      with_swaps ? Median(swap_s)
                 : TimeSwaps(kb_path, index_path, true, BaseConfig(),
                             kSwapRepeats, nullptr, report);
  if (swap_median <= 0.0) return false;

  report->AddEndToEnd("setup_s", Median(setup_s), "s");
  const std::vector<Timed> undisturbed = Undisturbed(measured, late_due_s);
  std::vector<double> latency_ms;
  double undisturbed_busy_ms = 0.0;
  for (const Timed& r : undisturbed) {
    latency_ms.push_back(r.latency_ms);
    undisturbed_busy_ms += r.service_ms;
  }
  // The open loop completes the offered rate whenever the front end keeps
  // up, so completions per second would measure the generator. The
  // throughput figure is the front end's service capacity instead:
  // requests completed per second of worker busy time, times the workers.
  report->AddEndToEnd("qps",
                      static_cast<double>(undisturbed.size()) * 1e3 *
                          static_cast<double>(kWorkers) / undisturbed_busy_ms,
                      "queries/s");
  report->AddEndToEnd("p50_ms", Percentile(latency_ms, 0.50), "ms");
  report->AddEndToEnd("p99_ms", Percentile(latency_ms, 0.99), "ms");
  report->AddEndToEnd("peak_rss_mb", peak_rss_mb, "MiB");
  report->AddEndToEnd("swap_s", swap_median, "s");
  report->Note("serve: " + std::to_string(schedule.size()) + " requests at " +
               std::to_string(scale.rate) + "/s, " +
               std::to_string(latency_ms.size()) +
               " measured latency samples (" +
               std::to_string(measured.size() - undisturbed.size()) +
               " more left out: due within 10 ms of one of the " +
               std::to_string(started_late) +
               " the generator started over 0.5 ms late), " +
               std::to_string(swap_s.size()) + " publishes under traffic, " +
               "host steal " + std::to_string(steal_frac));

  if (!options.trace) return true;

  // ---- traced run ----------------------------------------------------------
  auto delta = [](const sqe::CacheStats& after, const sqe::CacheStats& before) {
    sqe::CacheStats d = after;
    d.hits -= before.hits;
    d.misses -= before.misses;
    d.evictions -= before.evictions;
    return d;
  };
  const sqe::CacheStats result_cache =
      delta(cache_after.result, cache_before.result);
  const sqe::CacheStats graph_cache =
      delta(cache_after.graph, cache_before.graph);
  report->AddLayer("cache.result_hit_frac", result_cache.HitRate(), "fraction");
  report->AddLayer("cache.graph_hit_frac", graph_cache.HitRate(), "fraction");
  report->AddLayer("cache.evictions",
                   static_cast<double>(result_cache.evictions +
                                       graph_cache.evictions),
                   "count");
  report->AddLayer("pool.busy_frac",
                   busy_ms / (measured_wall * 1e3 * kWorkers), "fraction");
  report->AddLayer("serving.queue_ms_p50", Percentile(queue_ms, 0.50), "ms");
  report->AddLayer("serving.queue_ms_p99", Percentile(queue_ms, 0.99), "ms");
  report->AddLayer("serving.service_ms_p50", Percentile(service_ms, 0.50),
                   "ms");
  report->AddLayer("serving.service_ms_p99", Percentile(service_ms, 0.99),
                   "ms");
  report->AddLayer("snapshot.live_epochs_max",
                   static_cast<double>(live_epochs_max), "count");
  report->AddLayer("gen.late_ms_p99", Percentile(gen_late_ms, 0.99), "ms");
  report->AddLayer("gen.sent", static_cast<double>(measured_sent), "count");
  report->AddLayer("gen.late_frac",
                   static_cast<double>(started_late) /
                       static_cast<double>(std::max<uint64_t>(measured_sent, 1)),
                   "fraction");
  report->AddLayer("host.steal_frac", steal_frac, "fraction");

  Tracer tracer;
  {
    // Replays a seeded Zipf sample of the traffic on a cache-less engine
    // over the current generation, so every stage runs for every query.
    const sqe::serving::SnapshotLease lease = registry->Acquire();
    sqe::expansion::SqeEngineConfig config = BaseConfig();
    {
      std::lock_guard<std::mutex> lock(loader_mu);
      config.retriever.mu = epoch_mu.at(lease->epoch());
    }
    const sqe::text::Analyzer analyzer;
    const sqe::expansion::SqeEngine engine(&lease->kb(), &lease->index(),
                                           lease->linker(), &analyzer, config);
    sqe::Rng rng(SubSeed(options.seed, 13));
    const ZipfSampler zipf(scale.pool_size, kZipfExponent);
    std::vector<ReplayQuery> sample;
    for (size_t i = 0; i < scale.trace_samples; ++i) {
      sample.push_back({pool[zipf.Next(rng)], {}, MotifConfig::Both()});
    }
    ReplaySettings settings;
    settings.link = true;
    settings.prune = true;
    settings.k = kDepth;
    TraceQueries(engine, analyzer, sample, settings, &tracer, report);
    const sqe::index::InvertedIndex::PostingsStats postings =
        lease->index().ComputePostingsStats();
    report->AddLayer("index.postings_mb",
                     static_cast<double>(postings.packed_bytes) / (1 << 20),
                     "MiB");
  }
  if (TimeSwaps(kb_path, index_path, true, BaseConfig(), kSwapRepeats,
                &tracer, report) < 0) {
    return false;
  }
  if (!tracer.WriteChromeTrace(dir + "/trace.json")) {
    report->Note("could not write " + dir + "/trace.json");
  }
  return true;
}

}  // namespace perfbench
