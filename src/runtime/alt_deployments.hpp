// The two rejected designs of §3.4, implemented so the comparison bench can
// measure them instead of asserting the thesis' qualitative arguments.
//
//  CentralizedDeployment (Fig 3.4 left): one global daemon; every node holds
//  a TCP link to it; notifications take two hops and fan out one message per
//  recipient (no per-host batching). Node entry/exit touches only the global
//  daemon. Crash detection relies on the TCP link breaking, which the thesis
//  notes is slow and of unbounded error — modelled with a configurable
//  detection delay.
//
//  DirectDeployment (Fig 3.1, original runtime): state machines hold a full
//  mesh of TCP links (even on the same host). Fast single-hop notifications;
//  O(n) connection work on entry; static membership (no crash bookkeeping,
//  no restart support) — exactly the §3.3 shortcomings.
//
// Like the production fabric, both trade in dense MachineId/StateId — their
// node tables are flat vectors indexed by machine id.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/compiled_study.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/deployment.hpp"
#include "runtime/dictionary.hpp"
#include "runtime/node.hpp"
#include "sim/world.hpp"

namespace loki::runtime {

class CentralizedDeployment final : public Deployment {
 public:
  struct Params {
    /// Time for the global daemon to notice a broken TCP link after a
    /// silent/unhandled node death.
    Duration crash_detection_delay{milliseconds(250)};
  };

  /// `reserved` is the study's pre-interned reserved-id block
  /// (CompiledStudy::reserved()).
  CentralizedDeployment(sim::World& world, sim::HostId daemon_host,
                        const StudyDictionary& dict, const CostModel& costs,
                        Params params, const ReservedStudyIds& reserved);

  void start_daemon();
  sim::ProcessId daemon_pid() const { return daemon_pid_; }

  void node_started(LokiNode& node, bool restarted,
                    std::function<void()> on_ready) override;
  void node_exited(LokiNode& node) override;
  void node_crashed(LokiNode& node, bool explicit_notice) override;
  void send_state_notification(LokiNode& from, StateId state,
                               const std::vector<MachineId>& recipients) override;
  void request_state_updates(LokiNode& node) override;
  std::uint64_t dropped_notifications() const override { return dropped_; }

  std::uint64_t relayed() const { return relayed_; }

 private:
  void handle_route(MachineId from, StateId state,
                    const std::vector<MachineId>& recipients);
  void unregister(MachineId machine);

  sim::World& world_;
  sim::HostId daemon_host_;
  CostModel costs_;
  Params params_;
  StateId crash_state_id_{kNoState};
  sim::ProcessId daemon_pid_{};
  std::vector<LokiNode*> nodes_;  // by MachineId; nullptr = not registered
  std::uint64_t dropped_{0};
  std::uint64_t relayed_{0};
};

class DirectDeployment final : public Deployment {
 public:
  DirectDeployment(sim::World& world, const StudyDictionary& dict,
                   const CostModel& costs, const ReservedStudyIds& reserved);

  void node_started(LokiNode& node, bool restarted,
                    std::function<void()> on_ready) override;
  void node_exited(LokiNode& node) override;
  void node_crashed(LokiNode& node, bool explicit_notice) override;
  void send_state_notification(LokiNode& from, StateId state,
                               const std::vector<MachineId>& recipients) override;
  void request_state_updates(LokiNode& node) override;
  std::uint64_t dropped_notifications() const override { return dropped_; }

  /// Per-connection setup cost charged on entry (three-way handshake etc.).
  Duration connect_cost{microseconds(300)};

 private:
  std::size_t peer_count() const;

  sim::World& world_;
  CostModel costs_;
  StateId exit_state_id_{kNoState};
  std::vector<LokiNode*> peers_;  // by MachineId; nullptr = not registered
  std::uint64_t dropped_{0};
};

}  // namespace loki::runtime
