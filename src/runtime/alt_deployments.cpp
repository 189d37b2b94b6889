#include "runtime/alt_deployments.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace loki::runtime {

// ---------------------------------------------------------------------------
// CentralizedDeployment
// ---------------------------------------------------------------------------

CentralizedDeployment::CentralizedDeployment(sim::World& world,
                                             sim::HostId daemon_host,
                                             const StudyDictionary& dict,
                                             const CostModel& costs, Params params,
                                             const ReservedStudyIds& reserved)
    : world_(world),
      daemon_host_(daemon_host),
      costs_(costs),
      params_(params),
      crash_state_id_(reserved.crash_state),
      nodes_(dict.machine_count(), nullptr) {}

void CentralizedDeployment::start_daemon() {
  daemon_pid_ = world_.spawn(daemon_host_,
                             "loki-global@" + world_.host_name(daemon_host_));
}

void CentralizedDeployment::node_started(LokiNode& node, bool /*restarted*/,
                                         std::function<void()> on_ready) {
  LokiNode* node_ptr = &node;
  // Nodes always use TCP to the global daemon (Fig 3.4): one connection
  // regardless of cluster size — the design's entry/exit advantage.
  world_.send(node.pid(), daemon_pid_, sim::Lan::Control, sim::ChannelClass::Tcp,
              costs_.daemon_route,
              [this, node_ptr, on_ready = std::move(on_ready)]() mutable {
                nodes_[node_ptr->machine_id()] = node_ptr;
                world_.send(daemon_pid_, node_ptr->pid(), sim::Lan::Control,
                            sim::ChannelClass::Tcp, costs_.register_handshake,
                            std::move(on_ready));
              });
}

void CentralizedDeployment::node_exited(LokiNode& node) {
  const MachineId machine = node.machine_id();
  world_.send(node.pid(), daemon_pid_, sim::Lan::Control, sim::ChannelClass::Tcp,
              costs_.daemon_route, [this, machine] { unregister(machine); });
}

void CentralizedDeployment::node_crashed(LokiNode& node, bool explicit_notice) {
  const MachineId machine = node.machine_id();
  if (explicit_notice) {
    world_.send(node.pid(), daemon_pid_, sim::Lan::Control,
                sim::ChannelClass::Tcp, costs_.daemon_route,
                [this, machine] { unregister(machine); });
    return;
  }
  // Broken-link detection: slow, and the recorded crash time is off by an
  // unknown amount — the §3.4.2 argument against this design.
  world_.at(world_.now() + params_.crash_detection_delay,
            [this, machine] { unregister(machine); });
}

void CentralizedDeployment::unregister(MachineId machine) {
  nodes_[machine] = nullptr;
  const StateId crash_state = crash_state_id_;
  // Inform the survivors (one message each; used for view maintenance).
  for (LokiNode* target : nodes_) {
    if (target == nullptr) continue;
    world_.send(daemon_pid_, target->pid(), sim::Lan::Control,
                sim::ChannelClass::Tcp, costs_.node_notification_handler,
                [target, machine, crash_state] {
                  target->deliver_remote_state(machine, crash_state);
                });
  }
}

void CentralizedDeployment::send_state_notification(
    LokiNode& from, StateId state, const std::vector<MachineId>& recipients) {
  const MachineId machine = from.machine_id();
  // The notify list is owned by the sending node's state machine and stable
  // for the node's lifetime; carry a pointer across the hop.
  const std::vector<MachineId>* recipients_ptr = &recipients;
  world_.send(from.pid(), daemon_pid_, sim::Lan::Control, sim::ChannelClass::Tcp,
              costs_.daemon_route, [this, machine, state, recipients_ptr] {
                handle_route(machine, state, *recipients_ptr);
              });
}

void CentralizedDeployment::handle_route(MachineId from, StateId state,
                                         const std::vector<MachineId>& recipients) {
  for (const MachineId r : recipients) {
    LokiNode* target = r == kInvalidId ? nullptr : nodes_[r];
    if (target == nullptr) {
      ++dropped_;
      continue;
    }
    ++relayed_;
    world_.send(daemon_pid_, target->pid(), sim::Lan::Control,
                sim::ChannelClass::Tcp, costs_.node_notification_handler,
                [target, from, state] { target->deliver_remote_state(from, state); });
  }
}

void CentralizedDeployment::request_state_updates(LokiNode& node) {
  LokiNode* requester = &node;
  world_.send(node.pid(), daemon_pid_, sim::Lan::Control, sim::ChannelClass::Tcp,
              costs_.daemon_route, [this, requester] {
                std::vector<std::pair<MachineId, StateId>> states;
                for (MachineId m = 0; m < nodes_.size(); ++m) {
                  const LokiNode* n = nodes_[m];
                  if (n != nullptr && n->state_machine().initialized())
                    states.emplace_back(m, n->state_machine().current_state_id());
                }
                world_.send(daemon_pid_, requester->pid(), sim::Lan::Control,
                            sim::ChannelClass::Tcp,
                            costs_.node_notification_handler,
                            [requester, states = std::move(states)] {
                              requester->deliver_state_updates(states);
                            });
              });
}

// ---------------------------------------------------------------------------
// DirectDeployment
// ---------------------------------------------------------------------------

DirectDeployment::DirectDeployment(sim::World& world,
                                   const StudyDictionary& dict,
                                   const CostModel& costs,
                                   const ReservedStudyIds& reserved)
    : world_(world),
      costs_(costs),
      exit_state_id_(reserved.exit_state),
      peers_(dict.machine_count(), nullptr) {}

std::size_t DirectDeployment::peer_count() const {
  return static_cast<std::size_t>(
      std::count_if(peers_.begin(), peers_.end(),
                    [](const LokiNode* p) { return p != nullptr; }));
}

void DirectDeployment::node_started(LokiNode& node, bool restarted,
                                    std::function<void()> on_ready) {
  LOKI_REQUIRE(!restarted,
               "the original (direct) runtime does not support restarts (§3.3)");
  // O(n) connection setup: one handshake per existing peer, charged as CPU
  // work on the entering node.
  const std::size_t existing = peer_count();
  const Duration total =
      connect_cost * static_cast<std::int64_t>(existing ? existing : 1);
  peers_[node.machine_id()] = &node;
  world_.post(node.pid(), total, std::move(on_ready));
}

void DirectDeployment::node_exited(LokiNode& node) {
  const MachineId machine = node.machine_id();
  peers_[machine] = nullptr;
  // Exit notifications to all peers (§3.6.2 first sentence), point to point.
  const StateId exit_state = exit_state_id_;
  for (LokiNode* target : peers_) {
    if (target == nullptr) continue;
    world_.send(node.pid(), target->pid(), sim::Lan::Control,
                sim::ChannelClass::Tcp, costs_.node_notification_handler,
                [target, machine, exit_state] {
                  target->deliver_remote_state(machine, exit_state);
                });
  }
}

void DirectDeployment::node_crashed(LokiNode& node, bool /*explicit_notice*/) {
  // No daemon to tell; peers learn only through the CRASH state change the
  // signal handler may have sent. This is precisely the original runtime's
  // limitation.
  peers_[node.machine_id()] = nullptr;
}

void DirectDeployment::send_state_notification(
    LokiNode& from, StateId state, const std::vector<MachineId>& recipients) {
  // One TCP message per recipient, even host-local (§3.3: "state machines in
  // the same host communicate using TCP/IP").
  const MachineId machine = from.machine_id();
  for (const MachineId r : recipients) {
    LokiNode* target = r == kInvalidId ? nullptr : peers_[r];
    if (target == nullptr) {
      ++dropped_;
      continue;
    }
    world_.send(from.pid(), target->pid(), sim::Lan::Control,
                sim::ChannelClass::Tcp, costs_.node_notification_handler,
                [target, machine, state] {
                  target->deliver_remote_state(machine, state);
                });
  }
}

void DirectDeployment::request_state_updates(LokiNode& node) {
  // Peers answer directly.
  LokiNode* requester = &node;
  for (MachineId m = 0; m < peers_.size(); ++m) {
    LokiNode* peer = peers_[m];
    if (peer == nullptr || peer == requester) continue;
    LokiNode* source = peer;
    world_.send(requester->pid(), source->pid(), sim::Lan::Control,
                sim::ChannelClass::Tcp, costs_.daemon_route,
                [this, m, source, requester] {
                  if (!source->state_machine().initialized()) return;
                  std::vector<std::pair<MachineId, StateId>> states{
                      {m, source->state_machine().current_state_id()}};
                  world_.send(source->pid(), requester->pid(), sim::Lan::Control,
                              sim::ChannelClass::Tcp,
                              costs_.node_notification_handler,
                              [requester, states = std::move(states)] {
                                requester->deliver_state_updates(states);
                              });
                });
  }
}

}  // namespace loki::runtime
