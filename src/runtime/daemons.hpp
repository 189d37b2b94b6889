// The enhanced (partially distributed) runtime fabric of §3.5:
// one LocalDaemon per host, a single CentralDaemon, and all state-machine
// communication flowing through the daemons (the design selected in §3.4.2).
//
// Responsibilities implemented per the thesis:
//  LocalDaemon (§3.5.2): node entry/exit/crash/restart bookkeeping, shared-
//  memory channels to local nodes, TCP links to the other daemons,
//  notification routing with one-message-per-remote-host batching, watchdog
//  crash detection, writing CRASH records on behalf of silently-crashed
//  nodes, local experiment-end checks.
//  CentralDaemon (§3.5.1): starting the configured nodes, experiment
//  timeout/abort, concluding the experiment when every local daemon reports
//  it has no executing state machines.
//
// All daemon messaging trades in dense ids (§3.5.6 pushed into the live
// runtime): the node table, location table, last-reply table and crash
// tracking are flat vectors indexed by MachineId, and routed notifications
// carry (MachineId, StateId) instead of strings. Names appear only at the
// harness boundary (node spawning, crash reports) via the study dictionary.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/compiled_study.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/deployment.hpp"
#include "runtime/dictionary.hpp"
#include "runtime/node.hpp"
#include "runtime/recorder.hpp"
#include "sim/world.hpp"

namespace loki::runtime {

class PartiallyDistributedDeployment;

class LocalDaemon {
 public:
  LocalDaemon(sim::World& world, sim::HostId host,
              PartiallyDistributedDeployment& fabric);

  void start();
  /// Host crash & reboot support (§3.6.4): respawn the daemon process after
  /// its host rebooted. Registered nodes died with the host; the restarted
  /// daemon tells its peers to purge their location entries for this host.
  void restart_after_reboot();
  sim::ProcessId pid() const { return pid_; }
  sim::HostId host() const { return host_; }
  bool empty() const { return local_count_ == 0; }
  std::uint64_t routed() const { return routed_; }

  void handle_host_purge(sim::HostId host);

  // --- handlers: each runs as a work item on this daemon's process ---------
  void handle_register(LokiNode* node, bool restarted, std::function<void()> ack);
  void handle_exit_notice(MachineId machine, const LokiNode* node);
  void handle_crash_notice(MachineId machine, bool node_recorded);
  void handle_route(MachineId from, StateId state,
                    const std::vector<MachineId>& recipients);
  void handle_fanout(MachineId from, StateId state,
                     const std::vector<MachineId>& targets);
  void handle_location_update(MachineId machine, sim::HostId host);
  void handle_location_remove(MachineId machine);
  void handle_crash_broadcast(MachineId machine);
  void handle_state_request(MachineId requester);
  void handle_state_request_remote(MachineId requester, sim::HostId origin);
  void handle_state_reply(MachineId requester,
                          std::vector<std::pair<MachineId, StateId>> states);
  void handle_kill_all();
  void handle_start_instruction(MachineId machine);

 private:
  void watchdog_tick();
  void declare_crashed(MachineId machine);
  void check_experiment_end();
  void broadcast_locations_on_register(MachineId machine);
  std::vector<std::pair<MachineId, StateId>> collect_local_states() const;

  sim::World& world_;
  sim::HostId host_;
  PartiallyDistributedDeployment& fabric_;
  sim::ProcessId pid_{};

  // Flat per-machine tables, indexed by MachineId (study-dictionary dense).
  std::vector<LokiNode*> local_nodes_;   // nullptr = not local
  std::vector<sim::HostId> locations_;   // invalid = unknown; global table
  std::vector<SimTime> last_reply_;      // meaningful only for local nodes
  std::size_t local_count_{0};
  /// Reused per-route grouping scratch: recipients bucketed by host value.
  std::vector<std::vector<MachineId>> route_scratch_;
  bool reported_empty_{true};
  std::uint64_t routed_{0};
};

/// Fabric parameters beyond the cost model.
struct FabricParams {
  Duration watchdog_interval{milliseconds(100)};
  Duration watchdog_timeout{milliseconds(350)};
};

class PartiallyDistributedDeployment final : public Deployment {
 public:
  /// `reserved` is the study's pre-interned reserved-id block
  /// (CompiledStudy::reserved()).
  PartiallyDistributedDeployment(sim::World& world,
                                 std::vector<sim::HostId> hosts,
                                 const StudyDictionary& dict,
                                 const CostModel& costs, FabricParams params,
                                 const ReservedStudyIds& reserved);

  /// Start the local daemons (spawn + interconnect). Must run before nodes.
  void start_daemons();

  // --- Deployment -----------------------------------------------------------
  void node_started(LokiNode& node, bool restarted,
                    std::function<void()> on_ready) override;
  void node_exited(LokiNode& node) override;
  void node_crashed(LokiNode& node, bool explicit_notice) override;
  void send_state_notification(LokiNode& from, StateId state,
                               const std::vector<MachineId>& recipients) override;
  void request_state_updates(LokiNode& node) override;
  std::uint64_t dropped_notifications() const override { return dropped_; }

  // --- wiring ---------------------------------------------------------------
  void set_recorder(const std::string& nickname, std::shared_ptr<Recorder> rec);
  Recorder* recorder_for(MachineId machine);
  LocalDaemon& daemon_on(sim::HostId host);
  const std::vector<std::unique_ptr<LocalDaemon>>& daemons() const {
    return daemons_;
  }
  const StudyDictionary& dict() const { return dict_; }
  const CostModel& costs() const { return costs_; }
  const FabricParams& params() const { return params_; }
  sim::World& world() { return world_; }
  std::size_t host_count() const { return hosts_.size(); }
  void count_drop() { ++dropped_; }
  /// Pre-interned reserved ids (hot in the crash paths).
  StateId crash_state_id() const { return crash_state_id_; }
  std::uint32_t crash_event_index(MachineId machine) const {
    return crash_event_idx_[machine];
  }

  /// Central-daemon / harness callbacks.
  std::function<void(sim::HostId host, bool empty)> on_host_empty_change;
  std::function<void(const std::string& nickname, sim::HostId host)> on_node_crash;
  /// Node spawner: the harness creates + starts the node (daemon-initiated
  /// starts, §3.5.1). Runs on the daemon's host.
  std::function<void(const std::string& nickname, sim::HostId host)> node_spawner;

 private:
  sim::World& world_;
  std::vector<sim::HostId> hosts_;
  const StudyDictionary& dict_;
  CostModel costs_;
  FabricParams params_;
  StateId crash_state_id_{kNoState};
  std::vector<std::uint32_t> crash_event_idx_;  // by MachineId
  std::vector<std::unique_ptr<LocalDaemon>> daemons_;
  std::vector<std::shared_ptr<Recorder>> recorders_;  // by MachineId
  std::uint64_t dropped_{0};
};

/// The central daemon (§3.5.1). Lives on one host; drives experiment
/// start, timeout/abort, and completion detection.
class CentralDaemon {
 public:
  struct Params {
    Duration experiment_timeout{seconds(30)};
    /// Grace period before confirming an all-empty report as the end.
    Duration end_confirm_grace{milliseconds(60)};
  };

  CentralDaemon(sim::World& world, sim::HostId host,
                PartiallyDistributedDeployment& fabric, Params params);

  /// Start the daemon process, hook fabric callbacks, arm the timeout, and
  /// instruct local daemons to start `initial_nodes` (node-file entries
  /// with a host, §3.5.1).
  void start(const std::vector<std::pair<std::string, sim::HostId>>& initial_nodes);

  sim::ProcessId pid() const { return pid_; }
  bool concluded() const { return concluded_; }
  bool timed_out() const { return timed_out_; }

  /// Harness glue: how many restarts are scheduled but not yet executed.
  std::function<int()> pending_restarts;
  /// Fired exactly once when the experiment concludes (normally or by
  /// timeout/abort).
  std::function<void(bool timed_out)> on_conclude;
  /// Crash reports forwarded to the harness (restart manager).
  std::function<void(const std::string& nickname, sim::HostId host)> on_crash_report;

 private:
  void handle_empty_change(sim::HostId host, bool empty);
  void maybe_schedule_confirm();
  void confirm_end();
  void abort_experiment();
  void conclude(bool timed_out);

  sim::World& world_;
  sim::HostId host_;
  PartiallyDistributedDeployment& fabric_;
  Params params_;
  sim::ProcessId pid_{};
  std::vector<char> host_empty_;  // by host id value
  /// Daemon-liveness poll body; a member (not a self-owning closure cycle)
  /// so it is released with the daemon instead of leaking per experiment.
  std::function<void()> poll_;
  bool saw_any_node_{false};
  bool concluded_{false};
  bool timed_out_{false};
  std::uint64_t confirm_epoch_{0};
};

}  // namespace loki::runtime
