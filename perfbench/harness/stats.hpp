// perfbench — sample statistics shared by every workload.
//
// Percentiles are nearest-rank: the p-th percentile of n samples is the
// sample of rank ceil(p * n) in ascending order. A percentile is only
// reported when at least kTailMargin samples lie beyond it; asked for a
// higher one, tail() falls back to the highest percentile the sample
// count supports and says which one it used.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailMargin = 10;

/// Nearest-rank percentile, p in (0, 1]. Requires a nonempty sample.
[[nodiscard]] double nearest_rank(std::vector<double> samples, double p);

/// True when at least kTailMargin of n samples lie above the p-th
/// percentile's rank.
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// A reported percentile: the value, the percentile actually used and the
/// sample count behind it.
struct Percentile {
  double value = 0.0;
  double p = 0.0;
  std::size_t n = 0;
};

/// The p-th percentile if the sample supports it, else the highest
/// percentile that does (rank n - kTailMargin), but never below the
/// median, which is always reported.
[[nodiscard]] Percentile tail(const std::vector<double>& samples, double p);

[[nodiscard]] double median(const std::vector<double>& samples);

/// Peak resident set of this process, MiB (getrusage).
[[nodiscard]] double peak_rss_mib();
/// Current resident set of this process, bytes (/proc/self/statm).
[[nodiscard]] double current_rss_bytes();

/// steady_clock reading in seconds.
[[nodiscard]] double now_s();
/// This thread's CPU clock in seconds (CLOCK_THREAD_CPUTIME_ID): time the
/// thread ran, excluding time the virtual machine's CPU was taken away.
[[nodiscard]] double thread_cpu_s();

/// One named number with its unit and the sample count behind it
/// (0 when it is not a sample statistic).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
};

}  // namespace perfbench
