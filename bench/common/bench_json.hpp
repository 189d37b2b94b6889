// Campaign wall-clock timings as google-benchmark JSON: the subset
// tools/bench_compare.py reads (name / run_type / real_time / time_unit),
// so the perf CI job can trend and gate benches that are not
// google-benchmark binaries.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace loki::bench {

/// Write one row per (name, seconds), then one per (name, ratio) with time
/// unit "ratio" (a plain number to bench_compare); false when `path` cannot
/// be opened.
inline bool write_bench_json(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& rows,
    const std::vector<std::pair<std::string, double>>& ratios = {}) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  const std::size_t total = rows.size() + ratios.size();
  for (std::size_t i = 0; i < total; ++i) {
    const bool ratio = i >= rows.size();
    const auto& [name, value] = ratio ? ratios[i - rows.size()] : rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                 "\"real_time\": %.*f, \"time_unit\": \"%s\"}%s\n",
                 name.c_str(), ratio ? 4 : 3, ratio ? value : value * 1e3,
                 ratio ? "ratio" : "ms", i + 1 < total ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace loki::bench
