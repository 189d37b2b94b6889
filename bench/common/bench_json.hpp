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

/// Write one row per (name, seconds); false when `path` cannot be opened.
inline bool write_bench_json(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                 "\"real_time\": %.3f, \"time_unit\": \"ms\"}%s\n",
                 rows[i].first.c_str(), rows[i].second * 1e3,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace loki::bench
