// The benchmark's workloads. Each builds its inputs from Options::seed,
// measures for Options::seconds, checks every ranking it can against an
// oracle, and fills a Report with both metric sets.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "sqe/sqe_engine.h"
#include "util.h"

namespace perfbench {

/// eval-batch: SqeEngine::RunBatch on a 4-worker pool at k=1000 over a
/// 60k-document CHiC-2012-like collection built in-process.
bool RunEvalBatch(const Options& options, Report* report);

/// serve-zipf / serve-swap: open-loop Poisson traffic into a registry-backed
/// ServingFrontend over a ~300k-document collection loaded from mapped
/// snapshot files; `with_swaps` adds a loader thread publishing a fresh
/// generation every few seconds.
bool RunServe(const Options& options, bool with_swaps, Report* report);

/// Writes the serve workloads' inputs for the seed (snapshot files and the
/// query pool) unless they exist, in a process of its own so that neither
/// the generation's memory peak nor its heap stays in a measured run.
bool PrepareServeInputs(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
