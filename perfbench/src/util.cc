#include "util.h"

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <filesystem>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/cpu_dispatch.h"

namespace perfbench {

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

StealMeter::Jiffies StealMeter::Read() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  Jiffies j;
  double field = 0.0;
  stat >> label;
  for (int i = 0; i < 10 && stat >> field; ++i) {
    j.total += field;
    if (i == 7) j.steal = field;
  }
  return j;
}

double StealMeter::Fraction() const {
  const Jiffies now = Read();
  const double total = now.total - start_.total;
  return total > 0.0 ? (now.steal - start_.steal) / total : 0.0;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return !cpus.empty() && ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      PinCurrentThread({cpu});
      const sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);  // best effort
      while (!stop_.load(std::memory_order_relaxed)) CpuRelax();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string HostFingerprintJson() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"simd\": \"%s\", \"simd_hardware\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"sanitized\": %s}",
                std::thread::hardware_concurrency(),
                sqe::SimdLevelName(sqe::DetectSimdLevel()),
                sqe::SimdLevelName(sqe::HardwareSimdLevel()),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
#ifdef PERFBENCH_SANITIZED
                "true"
#else
                "false"
#endif
  );
  return buf;
}

bool IsTimingBuild() {
#if defined(PERFBENCH_SANITIZED) || !defined(NDEBUG)
  return false;
#else
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
}

uint64_t RankingDigest(const sqe::retrieval::ResultList& results) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(results.size());
  for (const sqe::retrieval::ScoredDoc& d : results) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d.score, sizeof(bits));
    mix(d.doc);
    mix(bits);
  }
  return h;
}

bool SameRanking(const sqe::retrieval::ResultList& a,
                 const sqe::retrieval::ResultList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  sqe::SplitMix64 sm(seed * 0x9E3779B97F4A7C15ULL + stream);
  return sm.Next();
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Next(sqe::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void PruneDataDirs(const std::string& data_dir, const std::string& current,
                   size_t keep) {
  namespace fs = std::filesystem;
  std::error_code ec;
  // Only directories of the same kind (the "serve-paper-" of
  // "serve-paper-seed-7") compete.
  const std::string current_name = fs::path(current).filename().string();
  const std::string kind =
      current_name.substr(0, current_name.find("-seed-") + 1);
  std::vector<std::pair<fs::file_time_type, fs::path>> dirs;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(data_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_directory(ec) || name == current_name ||
        name.rfind(kind, 0) != 0) {
      continue;
    }
    dirs.emplace_back(entry.last_write_time(ec), entry.path());
  }
  std::sort(dirs.rbegin(), dirs.rend());
  for (size_t i = keep; i < dirs.size(); ++i) {
    fs::remove_all(dirs[i].second, ec);
  }
}

}  // namespace perfbench
