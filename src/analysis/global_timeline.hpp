// Global timeline construction (§2.5, makeglobal of §5.7).
//
// Every record of every local timeline is projected onto the reference
// machine's clock using the convex-hull (alpha, beta) bounds, yielding a
// per-event interval [C_r(T)-, C_r(T)+] that certainly contains the true
// reference time. Events keep their originating host and original local
// stamp: two events stamped by the SAME clock can be ordered exactly by
// their local times, which the correctness check exploits (projection
// bounds are only needed across clocks).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clocksync/projection.hpp"
#include "runtime/timeline.hpp"

namespace loki::analysis {

enum class EventKind : std::uint8_t { StateChange, FaultInjection, Restart };

struct GlobalEvent {
  std::string machine;
  EventKind kind{EventKind::StateChange};
  std::string state;  // StateChange: state entered
  std::string event;  // StateChange: triggering event
  std::string fault;  // FaultInjection
  std::string host;   // host whose clock stamped the record
  LocalTime local{};  // original local stamp
  clocksync::TimeBounds when;  // on the reference clock

  double mid() const { return when.mid(); }
};

struct GlobalTimeline {
  std::string reference;
  std::vector<GlobalEvent> events;  // sorted by interval midpoint

  /// Events of one machine, in timeline order.
  std::vector<const GlobalEvent*> of_machine(const std::string& machine) const;
};

/// Build the global timeline for one experiment from its local timelines
/// and the alphabeta file. Throws ConfigError if a needed host has no valid
/// clock bounds.
GlobalTimeline build_global_timeline(
    const std::vector<const runtime::LocalTimeline*>& timelines,
    const clocksync::AlphaBetaFile& alphabeta);

/// Project one timeline's records in record order (no cross-machine sort).
std::vector<GlobalEvent> project_timeline(const runtime::LocalTimeline& tl,
                                          const clocksync::AlphaBetaFile& ab);

/// Serialize for the analysis output file: one event per line,
///   <machine> <kind> <name...> <host> <local_ns> <lo_ns> <hi_ns>
std::string serialize_global_timeline(const GlobalTimeline& t);

}  // namespace loki::analysis
