// The one record walk of the analysis phase (§2.5), private to analysis/.
//
// build_global_timeline, project_timeline and verify_experiment all see a
// local timeline through this walk: every record in order, projected onto
// the reference clock, with its names borrowed from the timeline rather
// than copied. A host's clock bounds are looked up once per run of records
// that host stamped; a RESTART record starts a new run on its new host.
#pragma once

#include <string>

#include "clocksync/projection.hpp"
#include "runtime/timeline.hpp"
#include "util/error.hpp"

namespace loki::analysis {

/// One record on the reference clock. The pointers borrow from the
/// timeline the record came from and live as long as it does.
struct ProjectedRecord {
  runtime::RecordType type{runtime::RecordType::StateChange};
  const std::string* host{nullptr};  // host whose clock stamped the record
  /// That host's bounds in the alphabeta file, one entry per host name: two
  /// records were stamped by the same clock iff their `clock`s are equal.
  const clocksync::ClockBounds* clock{nullptr};
  LocalTime local{};  // original local stamp
  clocksync::TimeBounds when;
  const std::string* state{nullptr};  // StateChange: state entered
  const std::string* event{nullptr};  // StateChange: triggering event
  const std::string* fault{nullptr};  // FaultInjection
};

/// Calls `visit(const ProjectedRecord&)` for every record of `tl`, in
/// record order. Throws ConfigError when a stamping host has no entry or no
/// valid bounds, and LogicError when a record's state, event or fault index
/// is outside the timeline's lists — whether or not the caller reads it.
template <typename Visit>
void for_each_projected(const runtime::LocalTimeline& tl,
                        const clocksync::AlphaBetaFile& alphabeta,
                        Visit&& visit) {
  ProjectedRecord p;
  p.host = &tl.initial_host;
  for (const runtime::TimelineRecord& r : tl.records) {
    if (r.type == runtime::RecordType::Restart) {
      p.host = &r.host;
      p.clock = nullptr;
    }
    if (p.clock == nullptr) {
      p.clock = &alphabeta.for_host(*p.host);
      if (!p.clock->valid)
        throw ConfigError("no valid clock bounds for host " + *p.host);
    }
    p.type = r.type;
    p.local = r.time;
    p.when = clocksync::project_to_reference(r.time, *p.clock);
    p.state = p.event = p.fault = nullptr;
    switch (r.type) {
      case runtime::RecordType::StateChange:
        p.state = &tl.state_name(r.state_index);
        p.event = &tl.event_name(r.event_index);
        break;
      case runtime::RecordType::FaultInjection:
        p.fault = &tl.fault_name(r.fault_index);
        break;
      case runtime::RecordType::Restart:
        break;
    }
    visit(p);
  }
}

}  // namespace loki::analysis
