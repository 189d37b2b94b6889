// Experiment and campaign orchestration (§2.2.3, §2.3).
//
// A campaign is a set of studies; a study is a set of experiments; an
// experiment is one run of the distributed application under a World built
// fresh from (seed, parameters):
//
//   sync mini-phase 1  ->  runtime phase (daemons + nodes + injections)
//                      ->  sync mini-phase 2  ->  collected results
//
// Because the substrate is omniscient, the result also carries ground truth
// (true state intervals, true injection instants, true clock parameters) so
// tests can validate what the analysis phase infers from timestamps alone.
// The runtime itself never reads the ground truth.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clocksync/sync_data.hpp"
#include "clocksync/sync_phase.hpp"
#include "runtime/app.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/daemons.hpp"
#include "runtime/deployment.hpp"
#include "runtime/node.hpp"
#include "runtime/recorder.hpp"
#include "runtime/timeline.hpp"
#include "sim/load.hpp"
#include "sim/world.hpp"
#include "spec/fault_spec.hpp"
#include "spec/state_machine_spec.hpp"

namespace loki::runtime {

struct HostConfig {
  std::string name;
  sim::SchedParams sched{};
  /// Clock parameters; when absent they are drawn from the experiment seed
  /// (offset within +-max_clock_offset, drift within +-max_drift_ppm).
  std::optional<sim::ClockParams> clock;
  /// CPU load duty in [0,1]; 0 disables the competing load process.
  double load_duty{0.0};
  Duration load_chunk{microseconds(200)};
};

struct RestartPolicy {
  bool enabled{false};
  Duration delay{milliseconds(80)};
  enum class Placement { SameHost, NextHost, Fixed } placement{Placement::SameHost};
  std::string fixed_host;
  int max_restarts{1};
};

struct NodeConfig {
  std::string nickname;
  spec::StateMachineSpec sm_spec;  // name() must equal nickname
  spec::FaultSpec fault_spec;
  ApplicationFactory app_factory;
  /// Wire identity of the application (runtime/app_registry.hpp): required
  /// only when this node must cross a serialization boundary
  /// (encode_experiment_params, the result cache, `lokimeasure --worker`).
  /// app_factory alone suffices for in-process and fork()-based execution.
  std::string app_name;
  std::string app_args;
  /// Node-file host: present => started by the central daemon at t0.
  std::optional<std::string> initial_host;
  /// Dynamic entry: enter at this time on `enter_host` (§3.6.1 "new nodes
  /// can enter the system at any time").
  std::optional<Duration> enter_at;
  std::string enter_host;
  RestartPolicy restart;
};

/// Host crash & reboot plan (§3.6.4): at `at` the whole host loses power
/// (every process on it dies, including its local daemon); `reboot_after`
/// later the host is back and the central daemon's recovery restarts the
/// local daemon. Nodes that died with the host stay dead (their last
/// recorded state stands) unless a restart policy revives them elsewhere.
struct HostCrashPlan {
  std::string host;
  Duration at{milliseconds(200)};
  Duration reboot_after{milliseconds(150)};
};

struct ExperimentParams {
  std::uint64_t seed{1};
  std::vector<HostConfig> hosts;
  std::vector<NodeConfig> nodes;
  std::vector<HostCrashPlan> host_crashes;
  TransportDesign design{TransportDesign::PartiallyDistributed};
  CostModel costs{};
  FabricParams fabric{};
  CentralDaemon::Params central{};
  clocksync::SyncPhaseParams sync{};
  sim::NetworkParams app_lan{};
  sim::NetworkParams control_lan{};
  Duration max_clock_offset{milliseconds(5)};
  double max_drift_ppm{100.0};
  std::int64_t clock_granularity_ns{1000};
  /// Safety limit for the whole runtime phase (on top of central timeout).
  Duration hard_limit{seconds(120)};
};

struct TrueInjection {
  std::string machine;
  std::string fault;
  SimTime at{};
};

/// One machine's state history: (physical enter time, state) in order. A
/// machine's state holds until the next entry (or forever if it died there).
using TrueStateSeq = std::vector<std::pair<SimTime, std::string>>;

/// Ground truth in dense per-machine slots (node/dictionary order, matching
/// the PR-3 interning convention): `machines[i]` names slot i, and
/// `state_seq[i]` / `crashes[i]` are that machine's histories. String keys
/// appear only at the report boundary (the *_of / find_* accessors); the
/// hot population path indexes by slot, so an experiment never pays a
/// map-node allocation or a string compare per state change.
struct GroundTruth {
  std::vector<std::string> machines;            // slot -> nickname
  std::vector<TrueStateSeq> state_seq;          // parallel to machines
  std::vector<TrueInjection> injections;
  std::vector<std::vector<SimTime>> crashes;    // parallel to machines

  /// Slot of `machine`, appending a fresh slot when absent. Population and
  /// test construction only; lookups use the const accessors below.
  std::size_t slot_of(std::string_view machine);
  TrueStateSeq& state_seq_of(std::string_view machine) {
    return state_seq[slot_of(machine)];
  }
  std::vector<SimTime>& crashes_of(std::string_view machine) {
    return crashes[slot_of(machine)];
  }

  /// nullptr when the machine is unknown.
  const TrueStateSeq* find_state_seq(std::string_view machine) const;
  const std::vector<SimTime>* find_crashes(std::string_view machine) const;
  bool crashed(std::string_view machine) const {
    const std::vector<SimTime>* c = find_crashes(machine);
    return c != nullptr && !c->empty();
  }

  /// True iff `machine` was in `state` at physical time `t`.
  bool in_state(const std::string& machine, const std::string& state,
                SimTime t) const;

  friend bool operator==(const GroundTruth& a, const GroundTruth& b) {
    return a.machines == b.machines && a.state_seq == b.state_seq &&
           a.crashes == b.crashes;
  }
};

/// Experiment outcome in dense-id layout (wire format v2): timelines and
/// user messages sit in node order, host-keyed readings sit in host order
/// with one shared `hosts` name table instead of three string-keyed maps.
/// Strings are resolved only at report boundaries via the accessors.
struct ExperimentResult {
  std::vector<LocalTimeline> timelines;  // node order; nickname inside
  /// Parallel to `timelines`; a node without messages holds an empty slot.
  std::vector<std::vector<std::string>> user_messages;
  clocksync::SyncData sync_samples;
  /// Host name table (params.hosts order); the three vectors below are
  /// parallel to it. start/end are the local clock readings at experiment
  /// start/end — START_EXP / END_EXP anchors for the measure phase.
  std::vector<std::string> hosts;
  std::vector<LocalTime> start_local;
  std::vector<LocalTime> end_local;
  GroundTruth truth;
  std::vector<sim::ClockParams> true_clocks;  // substrate-only
  SimTime start_phys{};
  SimTime end_phys{};
  bool completed{false};
  bool timed_out{false};
  std::uint64_t dropped_notifications{0};
  std::uint64_t control_messages{0};
  std::uint64_t app_messages{0};
  /// Kernel events executed by the run (diagnostic; NOT part of the wire
  /// format or the cross-backend identity contract — cached/worker results
  /// carry 0 here).
  std::uint64_t sim_events{0};

  // --- report-boundary accessors (string keys resolved here only) ------------

  /// nullptr when no node of that nickname recorded a timeline.
  const LocalTimeline* find_timeline(std::string_view nickname) const;
  /// Throws LogicError when absent — the .at() of the dense layout.
  const LocalTimeline& timeline_of(std::string_view nickname) const;
  /// nullptr when the node is unknown or recorded no messages.
  const std::vector<std::string>* find_user_messages(
      std::string_view nickname) const;

  /// Slot of `host` in the host table; throws LogicError when unknown.
  std::size_t host_slot(std::string_view host) const;
  LocalTime start_local_of(std::string_view host) const {
    return start_local[host_slot(host)];
  }
  LocalTime end_local_of(std::string_view host) const {
    return end_local[host_slot(host)];
  }
  const sim::ClockParams& true_clock_of(std::string_view host) const {
    return true_clocks[host_slot(host)];
  }

  /// Find-or-add a host slot, extending the parallel vectors with zeroed
  /// entries. Population and test construction only.
  std::size_t add_host(std::string_view host);
};

/// Run one experiment to completion. Deterministic in params.seed.
/// One-shot: compiles the study machinery, runs, and throws it away.
/// Campaign loops should hold a runtime::ExperimentContext
/// (runtime/experiment_context.hpp) instead — byte-identical results, with
/// the study-invariant compilation and the simulation backbone amortized
/// across experiments.
ExperimentResult run_experiment(const ExperimentParams& params);

// --- campaign structure ----------------------------------------------------

struct StudyParams {
  std::string name;
  /// Parameters for experiment k of this study (the harness varies seeds;
  /// the generator may vary anything else, e.g. workload knobs).
  std::function<ExperimentParams(int experiment_index)> make_params;
  int experiments{10};
};

}  // namespace loki::runtime
