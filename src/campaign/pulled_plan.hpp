// The plan a runner has pulled so far, by campaign-wide position: shared by
// the runners that pull ahead of their drain cursor (ThreadPoolRunner,
// RemoteRunner). Private to src/campaign.
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

#include "campaign/runner.hpp"

namespace loki::campaign {

/// Indices [lo, hi) of study `study`, placed at campaign-wide positions
/// [pos, end()): one IndexRun of a pulled plan, or a slice of one.
/// Positions number the planned indices in plan order across every pulled
/// study, so position order is the serial emit order.
struct Segment {
  int study{0};
  int lo{0};
  int hi{0};
  int pos{0};
  int end() const { return pos + (hi - lo); }
  /// The index at position `p`, in [pos, end()).
  int index_at(int p) const { return lo + (p - pos); }
};

/// The plan pulled so far, one Segment per IndexRun (never one entry per
/// experiment), so a runner maps a claimed or leased position back to its
/// (study, index).
class PulledPlan {
 public:
  /// Place `plan`'s runs at the next positions.
  void append(const StudyPlan& plan) {
    for (const IndexRun& run : plan.runs) {
      segments_.push_back({plan.study, run.lo, run.hi, planned_});
      planned_ = segments_.back().end();
    }
  }

  /// Positions pulled so far.
  int planned() const { return planned_; }

  /// The segment holding position `pos` (< planned()).
  const Segment& segment_at(int pos) const {
    const auto after = std::upper_bound(
        segments_.begin(), segments_.end(), pos,
        [](int p, const Segment& s) { return p < s.pos; });
    return *std::prev(after);
  }

 private:
  std::vector<Segment> segments_;
  int planned_{0};
};

}  // namespace loki::campaign
