// The traced run's stage-by-stage replays, shared by every workload.
//
// TraceQueries replays a sample of a workload's queries through the same
// public calls the engine makes inside one run — analysis, entity linking,
// motif traversal, query build, term resolution, scoring — with a span
// around each, and also runs each query untraced through SqeEngine::RunSqe.
// The untraced run is the per-query service time the layers' self times are
// held against (trace coverage) and the reference for tracing overhead; its
// ranking must equal the staged one bit for bit.
//
// LoadGeneration and PublishFromFiles are the benchmark's one way to bring
// a generation live from snapshot files; TimeSwaps times swaps with them,
// stage by stage when traced: snapshot file load, validation, linker build,
// publish, and retirement of the superseded epoch.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "kb/types.h"
#include "serving/snapshot_registry.h"
#include "sqe/motif.h"
#include "sqe/sqe_engine.h"
#include "text/analyzer.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

struct ReplayQuery {
  std::string text;
  /// Manual query nodes; ignored when the replay links automatically.
  std::vector<sqe::kb::ArticleId> nodes;
  sqe::expansion::MotifConfig motifs;
};

struct ReplaySettings {
  /// Link each query with the engine's linker (the paper's (A) mode)
  /// instead of using ReplayQuery::nodes.
  bool link = false;
  /// Score through the Block-Max WAND scorer, as an engine with pruning on
  /// does.
  bool prune = false;
  size_t k = 100;
};

/// Replays `queries` on `engine`, which must have caching off so every
/// stage runs. Adds the text, entity, sqe, retrieval and trace.* per-layer
/// metrics to `report`; a staged ranking that differs from RunSqe counts as
/// a mismatch.
void TraceQueries(const sqe::expansion::SqeEngine& engine,
                  const sqe::text::Analyzer& analyzer,
                  const std::vector<ReplayQuery>& queries,
                  const ReplaySettings& settings, Tracer* tracer,
                  Report* report);

/// Options of every registry the benchmark publishes into. LoadGeneration
/// validates as a step of its own, so the traced run can time it; the
/// registry's check on publish would repeat the same two calls.
sqe::serving::SnapshotRegistryOptions RegistryOptions(bool shared_cache);

/// Loads one generation from KB + index snapshot files (mapped), validates
/// it and, with `build_linker`, builds the entity linker from the KB's
/// titles: what SnapshotLoader::LoadAndPublish does before it publishes,
/// except that the linker's surface-form dictionary is finalized.
/// SnapshotLoader builds its linker over an unfinalized dictionary, so
/// LinkQueryNodes on such a generation aborts ("Lookup before Finalize").
/// With a `tracer`, each stage is a span of `request`.
sqe::Result<sqe::serving::SnapshotParts> LoadGeneration(
    const std::string& kb_path, const std::string& index_path,
    bool build_linker, Tracer* tracer = nullptr, uint64_t request = 0);

/// LoadGeneration, then Publish with `config` into `registry` (made with
/// RegistryOptions). The publish is a span of `request` too.
sqe::Result<uint64_t> PublishFromFiles(
    sqe::serving::SnapshotRegistry* registry, const std::string& kb_path,
    const std::string& index_path, bool build_linker,
    const sqe::expansion::SqeEngineConfig& config, Tracer* tracer = nullptr,
    uint64_t request = 0);

/// Times `repeats` generation swaps from the snapshot files into a private
/// registry and returns the median seconds from the start of the load to
/// the return of Publish, or a negative value (with a note) on failure. As
/// under traffic, a lease pins the superseded generation across the
/// publish; it is dropped, retiring that generation, after the clock
/// stops. With a `tracer`, every stage of every swap is a span and the
/// snapshot.load/validate/publish/retire metrics (medians, ms) are added to
/// `report`.
double TimeSwaps(const std::string& kb_path, const std::string& index_path,
                 bool build_linker,
                 const sqe::expansion::SqeEngineConfig& config, int repeats,
                 Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
