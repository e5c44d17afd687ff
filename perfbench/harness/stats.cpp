#include "harness/stats.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double p) {
  const auto r =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("nearest_rank: no samples");
  const std::size_t r = rank_of(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

bool percentile_supported(std::size_t n, double p) {
  return n > 0 && n - rank_of(n, p) >= kTailMargin;
}

Percentile tail(const std::vector<double>& samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0) return {};
  if (p > 0.5 && !percentile_supported(n, p)) {
    p = std::max(0.5, static_cast<double>(n - std::min(n, kTailMargin)) /
                          static_cast<double>(n));
  }
  return {nearest_rank(samples, p), p, n};
}

double median(const std::vector<double>& samples) {
  return nearest_rank(samples, 0.5);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_bytes() {
  std::ifstream in("/proc/self/statm");
  double pages = 0.0;
  double resident = 0.0;
  in >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
