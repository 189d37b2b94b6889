#include "clocksync/projection.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_file.hpp"

namespace loki::clocksync {

TimeBounds project_to_reference(LocalTime local, const ClockBounds& bounds) {
  LOKI_REQUIRE(bounds.valid, "cannot project with invalid clock bounds");
  const double v = static_cast<double>(local.ns);
  const double corners[4] = {
      (v - bounds.alpha_lo) / bounds.beta_lo,
      (v - bounds.alpha_lo) / bounds.beta_hi,
      (v - bounds.alpha_hi) / bounds.beta_lo,
      (v - bounds.alpha_hi) / bounds.beta_hi,
  };
  TimeBounds out;
  out.lo = *std::min_element(corners, corners + 4);
  out.hi = *std::max_element(corners, corners + 4);
  return out;
}

const ClockBounds& AlphaBetaFile::for_host(const std::string& host) const {
  const auto it = bounds.find(host);
  if (it == bounds.end())
    throw ConfigError("alphabeta file has no entry for host: " + host);
  return it->second;
}

std::string serialize_alphabeta(const AlphaBetaFile& file) {
  std::string out = "reference " + file.reference + "\n";
  char buf[256];
  for (const auto& [host, b] : file.bounds) {
    std::snprintf(buf, sizeof buf, "%s %.6f %.6f %.12f %.12f\n", host.c_str(),
                  b.alpha_lo, b.alpha_hi, b.beta_lo, b.beta_hi);
    out += buf;
  }
  return out;
}

AlphaBetaFile parse_alphabeta(const std::string& content,
                              const std::string& source) {
  AlphaBetaFile file;
  for (const TextLine& line : logical_lines(content)) {
    const auto tokens = split_ws(line.text);
    if (tokens[0] == "reference") {
      if (tokens.size() != 2)
        throw ParseError(source, line.number, "expected 'reference <host>'");
      file.reference = tokens[1];
      continue;
    }
    if (tokens.size() != 5)
      throw ParseError(source, line.number,
                       "expected '<host> <a_lo> <a_hi> <b_lo> <b_hi>'");
    ClockBounds b;
    const auto alo = parse_f64(tokens[1]);
    const auto ahi = parse_f64(tokens[2]);
    const auto blo = parse_f64(tokens[3]);
    const auto bhi = parse_f64(tokens[4]);
    if (!alo || !ahi || !blo || !bhi)
      throw ParseError(source, line.number, "bad number on line: " + line.text);
    // Every projection divides by beta and every timeline sorts by the
    // projected midpoints: bounds that are not finite, not ordered or not
    // positive in beta would project to nan or inf, so they fail here.
    if (!std::isfinite(*alo) || !std::isfinite(*ahi) || !std::isfinite(*blo) ||
        !std::isfinite(*bhi))
      throw ParseError(source, line.number, "non-finite bound on line: " + line.text);
    if (*alo > *ahi || *blo > *bhi)
      throw ParseError(source, line.number,
                       "lower bound above upper bound on line: " + line.text);
    if (*blo <= 0.0)
      throw ParseError(source, line.number, "beta must be positive on line: " + line.text);
    b.alpha_lo = *alo;
    b.alpha_hi = *ahi;
    b.beta_lo = *blo;
    b.beta_hi = *bhi;
    b.valid = true;
    if (!file.bounds.emplace(tokens[0], b).second)
      throw ParseError(source, line.number, "second line for host " + tokens[0]);
  }
  if (file.reference.empty())
    throw ParseError(source, 1, "missing 'reference <host>' line");
  return file;
}

AlphaBetaFile compute_alphabeta(const SyncData& samples,
                                const std::vector<std::string>& machines,
                                const std::string& reference) {
  AlphaBetaFile file;
  file.reference = reference;
  for (const std::string& m : machines) {
    file.bounds.emplace(m, estimate_bounds(samples, reference, m));
  }
  return file;
}

}  // namespace loki::clocksync
