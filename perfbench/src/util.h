// Shared helpers of the benchmark program: command line, percentiles, the
// host fingerprint, memory high-water mark, ranking digests, the metric
// report every workload returns, and a seeded Zipf sampler.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "retrieval/result.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds elapsed since `start` on the steady clock.
inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Input size of a run. `kPaper` is what the benchmark measures; `kTiny`
/// exists for the sanitizer smoke run, where the paper-scale inputs would
/// take minutes.
enum class Size { kPaper, kTiny };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Only generate the inputs of the workload for the seed, then exit.
  bool prepare = false;
  Size size = Size::kPaper;
  /// Directory for generated snapshot files and the trace dump. Created on
  /// demand; everything the program writes goes below it.
  std::string data_dir = ".bench_build/data";
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the correctness verdict, the
/// operation counts and both metric sets (main prints the one --trace
/// selects). `notes` are human-readable lines printed before the result.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;  // rankings that differ from the oracle
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void AddEndToEnd(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void AddLayer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
};

/// q-quantile (0..1) of `values` by the nearest-rank rule; sorts in place.
/// 0 for an empty sample.
double Percentile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

/// Share of the machine's CPU time the hypervisor gave to other guests
/// ("steal") between two readings of /proc/stat. Reported by the traced
/// run so a comparison can tell a slower commit from a busier host.
class StealMeter {
 public:
  StealMeter() : start_(Read()) {}
  /// Steal share since construction, 0 when /proc/stat is unavailable.
  double Fraction() const;

 private:
  struct Jiffies {
    double steal = 0.0;
    double total = 0.0;
  };
  static Jiffies Read();
  Jiffies start_;
};

/// Spin-wait hint: on x86 a `pause`, which lets the core's other hardware
/// thread (possibly another virtual CPU of this or another guest) use the
/// execution resources the spin would take.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// CPUs the calling thread may run on (sched_getaffinity), ascending.
std::vector<int> AllowedCpus();

/// Restricts the calling thread to `cpus`; threads it starts afterwards
/// inherit the set. False when the kernel refuses.
bool PinCurrentThread(const std::vector<int>& cpus);

/// Keeps virtual CPUs from halting while the serve workloads run: one
/// spinning thread per given CPU, at SCHED_IDLE priority, so any runnable
/// thread of the program preempts it at once and it only ever fills time
/// the CPU would otherwise spend halted. A halted virtual CPU is woken by
/// the hypervisor, which takes tens of microseconds to milliseconds
/// depending on what else the host runs; the front end's workers sleep and
/// wake thousands of times a second, so without this the serve latencies
/// measure the host's wake-up delays (seen as 10-20% "steal" in /proc/stat)
/// more than the program.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMiB();

/// Host fingerprint as a JSON object: nproc, SIMD tier, compiler, build
/// type.
std::string HostFingerprintJson();

/// True when the binary is an optimized, unsanitized Release build — the
/// only kind whose timings the benchmark reports.
bool IsTimingBuild();

/// FNV-1a over every (doc id, score bit pattern) of a ranking.
uint64_t RankingDigest(const sqe::retrieval::ResultList& results);

/// Bit-for-bit ranking equality (doc ids and score bits).
bool SameRanking(const sqe::retrieval::ResultList& a,
                 const sqe::retrieval::ResultList& b);

/// Derives an independent 64-bit seed for one input stream of a run, so
/// every generated input depends only on the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Zipf(s) over ranks [0, n): precomputed CDF, inverse-transform sampling.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Next(sqe::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Creates `path` and its parents (like mkdir -p). False on failure.
bool MakeDirs(const std::string& path);
bool FileExists(const std::string& path);

/// Removes generated-data directories under `data_dir` of the same kind as
/// `current` (the name up to "-seed-"), other than `current`, beyond the
/// `keep` most recently modified, so runs with ever new seeds do not fill
/// the disk.
void PruneDataDirs(const std::string& data_dir, const std::string& current,
                   size_t keep);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
