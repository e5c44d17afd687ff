#include <cstdio>
#include <cstring>

#include "harness/trace.hpp"
#include "harness/workloads.hpp"

namespace perfbench {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string hex_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits_of(v)));
  return buf;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void write_trace(const Tracer& tr, const std::string& path, RunResult& res) {
  tr.write_chrome(path);
  for (const auto& [name, s] : self_time_by_name(tr.spans())) {
    res.put(res.layers, {"self_s." + name, s, "s", 0});
  }
}

void RunResult::expect(const RunConfig& cfg, const std::string& key,
                       const std::string& got) {
  digest.push_back(key + "=" + got);
  if (cfg.record) return;
  const auto it = cfg.expected.find(key);
  if (it == cfg.expected.end()) return;
  if (key.size() > 16 && key.compare(key.size() - 16, 16, ".fractional_flow") == 0) {
    const double want = std::strtod(it->second.c_str(), nullptr);
    const double have = std::strtod(got.c_str(), nullptr);
    const double scale = std::max(std::abs(want), 1e-300);
    if (std::abs(have - want) / scale <= 1e-9) return;
  } else if (it->second == got) {
    return;
  }
  fail(key + " is " + got + ", recorded " + it->second);
}

}  // namespace perfbench
