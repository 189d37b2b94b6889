#include "runtime/daemons.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace loki::runtime {

// ---------------------------------------------------------------------------
// LocalDaemon
// ---------------------------------------------------------------------------

LocalDaemon::LocalDaemon(sim::World& world, sim::HostId host,
                         PartiallyDistributedDeployment& fabric)
    : world_(world), host_(host), fabric_(fabric) {
  const std::size_t machines = fabric_.dict().machine_count();
  local_nodes_.assign(machines, nullptr);
  locations_.assign(machines, sim::HostId{});
  last_reply_.assign(machines, SimTime::zero());
}

void LocalDaemon::start() {
  pid_ = world_.spawn(host_, "lokid@" + world_.host_name(host_));
  // Arm the watchdog loop.
  world_.timer(pid_, fabric_.params().watchdog_interval,
               fabric_.costs().watchdog_handler, [this] { watchdog_tick(); });
}

void LocalDaemon::restart_after_reboot() {
  std::fill(local_nodes_.begin(), local_nodes_.end(), nullptr);
  local_count_ = 0;
  // Machines located on this host died with it.
  handle_host_purge(host_);
  reported_empty_ = true;
  start();
  // Reconnect: tell the other daemons to forget machines they still map to
  // this host, and report the (empty) host state upward.
  for (const auto& d : fabric_.daemons()) {
    if (d.get() == this) continue;
    LocalDaemon* peer = d.get();
    const sim::HostId host = host_;
    world_.send(pid_, peer->pid(), sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route,
                [peer, host] { peer->handle_host_purge(host); });
  }
  if (fabric_.on_host_empty_change) fabric_.on_host_empty_change(host_, true);
}

void LocalDaemon::handle_host_purge(sim::HostId host) {
  for (sim::HostId& loc : locations_) {
    if (loc == host) loc = sim::HostId{};
  }
}

void LocalDaemon::watchdog_tick() {
  const SimTime now = world_.now();
  const Duration timeout = fabric_.params().watchdog_timeout;
  const auto machines = static_cast<MachineId>(local_nodes_.size());

  // Pass 1: nodes that have not answered within the timeout are presumed
  // crashed; the daemon writes the CRASH record on their behalf (§3.5.2).
  for (MachineId m = 0; m < machines; ++m) {
    if (local_nodes_[m] != nullptr && now - last_reply_[m] > timeout)
      handle_crash_notice(m, /*node_recorded=*/false);
  }

  // Pass 2: ping the survivors (IPC out, IPC back).
  for (MachineId m = 0; m < machines; ++m) {
    LokiNode* target = local_nodes_[m];
    if (target == nullptr) continue;
    world_.send(pid_, target->pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
                fabric_.costs().watchdog_handler,
                [this, m, target] {
                  // Node side: reply.
                  world_.send(target->pid(), pid_, sim::Lan::Control,
                              sim::ChannelClass::Ipc,
                              fabric_.costs().watchdog_handler,
                              [this, m] { last_reply_[m] = world_.now(); });
                });
  }

  world_.timer(pid_, fabric_.params().watchdog_interval,
               fabric_.costs().watchdog_handler, [this] { watchdog_tick(); });
}

void LocalDaemon::handle_register(LokiNode* node, bool restarted,
                                  std::function<void()> ack) {
  (void)restarted;
  const MachineId machine = node->machine_id();
  if (local_nodes_[machine] == nullptr) ++local_count_;
  local_nodes_[machine] = node;
  locations_[machine] = host_;
  last_reply_[machine] = world_.now();
  broadcast_locations_on_register(machine);
  if (reported_empty_) {
    reported_empty_ = false;
    if (fabric_.on_host_empty_change) fabric_.on_host_empty_change(host_, false);
  }
  // Ack back to the node (IPC): registration complete, appMain may start.
  world_.send(pid_, node->pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
              fabric_.costs().register_handshake, std::move(ack));
}

void LocalDaemon::broadcast_locations_on_register(MachineId machine) {
  for (const auto& d : fabric_.daemons()) {
    if (d.get() == this) continue;
    LocalDaemon* peer = d.get();
    const sim::HostId host = host_;
    world_.send(pid_, peer->pid(), sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route,
                [peer, machine, host] { peer->handle_location_update(machine, host); });
  }
}

void LocalDaemon::handle_location_update(MachineId machine, sim::HostId host) {
  locations_[machine] = host;
}

void LocalDaemon::handle_location_remove(MachineId machine) {
  locations_[machine] = sim::HostId{};
}

void LocalDaemon::handle_exit_notice(MachineId machine, const LokiNode* node) {
  if (local_nodes_[machine] != node) return;  // stale
  local_nodes_[machine] = nullptr;
  --local_count_;
  locations_[machine] = sim::HostId{};
  for (const auto& d : fabric_.daemons()) {
    if (d.get() == this) continue;
    LocalDaemon* peer = d.get();
    world_.send(pid_, peer->pid(), sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route,
                [peer, machine] { peer->handle_location_remove(machine); });
  }
  check_experiment_end();
}

void LocalDaemon::handle_crash_notice(MachineId machine, bool node_recorded) {
  if (local_nodes_[machine] == nullptr) return;  // watchdog beat the notice
  if (!node_recorded) {
    // Write the crash event + state on the node's behalf (§3.5.2), stamped
    // with this host's clock (the node lived here).
    Recorder* rec = fabric_.recorder_for(machine);
    if (rec != nullptr) {
      rec->record_state_change(fabric_.crash_event_index(machine),
                               fabric_.crash_state_id(),
                               world_.clock_read(host_));
    }
  }
  declare_crashed(machine);
}

void LocalDaemon::declare_crashed(MachineId machine) {
  if (local_nodes_[machine] == nullptr) return;
  local_nodes_[machine] = nullptr;
  --local_count_;
  locations_[machine] = sim::HostId{};

  // Tell the other daemons; they drop the location and synthesize CRASH
  // view updates for their local machines.
  for (const auto& d : fabric_.daemons()) {
    if (d.get() == this) continue;
    LocalDaemon* peer = d.get();
    world_.send(pid_, peer->pid(), sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route,
                [peer, machine] { peer->handle_crash_broadcast(machine); });
  }
  // And our own local machines.
  handle_crash_broadcast(machine);

  if (fabric_.on_node_crash)
    fabric_.on_node_crash(fabric_.dict().machine_name(machine), host_);
  check_experiment_end();
}

void LocalDaemon::handle_crash_broadcast(MachineId machine) {
  locations_[machine] = sim::HostId{};
  const StateId crash_state = fabric_.crash_state_id();
  for (LokiNode* target : local_nodes_) {
    if (target == nullptr) continue;
    world_.send(pid_, target->pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
                fabric_.costs().node_notification_handler,
                [target, machine, crash_state] {
                  target->deliver_remote_state(machine, crash_state);
                });
  }
}

void LocalDaemon::handle_route(MachineId from, StateId state,
                               const std::vector<MachineId>& recipients) {
  ++routed_;
  // Group recipients by host so each remote host gets ONE message (§3.6.1).
  for (const MachineId r : recipients) {
    const sim::HostId loc = r == kInvalidId ? sim::HostId{} : locations_[r];
    if (!loc.valid()) {
      fabric_.count_drop();  // "discarded with a warning message"
      continue;
    }
    const auto hv = static_cast<std::size_t>(loc.value);
    if (route_scratch_.size() <= hv) route_scratch_.resize(hv + 1);
    route_scratch_[hv].push_back(r);
  }
  for (std::size_t hv = 0; hv < route_scratch_.size(); ++hv) {
    std::vector<MachineId>& targets = route_scratch_[hv];
    if (targets.empty()) continue;
    const sim::HostId host{static_cast<std::int32_t>(hv)};
    if (host == host_) {
      handle_fanout(from, state, targets);
      targets.clear();  // keep the capacity for the next route
      continue;
    }
    LocalDaemon* peer = &fabric_.daemon_on(host);
    world_.send(pid_, peer->pid(), sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route,
                [peer, from, state, targets = std::move(targets)] {
                  peer->handle_fanout(from, state, targets);
                });
    targets = std::vector<MachineId>{};  // moved-from; make the state explicit
  }
}

void LocalDaemon::handle_fanout(MachineId from, StateId state,
                                const std::vector<MachineId>& targets) {
  for (const MachineId t : targets) {
    LokiNode* target = local_nodes_[t];
    if (target == nullptr) {
      fabric_.count_drop();
      continue;
    }
    world_.send(pid_, target->pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
                fabric_.costs().node_notification_handler,
                [target, from, state] { target->deliver_remote_state(from, state); });
  }
}

std::vector<std::pair<MachineId, StateId>> LocalDaemon::collect_local_states()
    const {
  std::vector<std::pair<MachineId, StateId>> states;
  for (MachineId m = 0; m < local_nodes_.size(); ++m) {
    const LokiNode* node = local_nodes_[m];
    if (node != nullptr && node->state_machine().initialized())
      states.emplace_back(m, node->state_machine().current_state_id());
  }
  return states;
}

void LocalDaemon::handle_state_request(MachineId requester) {
  // Local states answer immediately; remote daemons are queried in parallel.
  handle_state_reply(requester, collect_local_states());
  for (const auto& d : fabric_.daemons()) {
    if (d.get() == this) continue;
    LocalDaemon* peer = d.get();
    const sim::HostId origin = host_;
    world_.send(pid_, peer->pid(), sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route, [peer, requester, origin] {
                  peer->handle_state_request_remote(requester, origin);
                });
  }
}

void LocalDaemon::handle_state_request_remote(MachineId requester,
                                              sim::HostId origin) {
  auto states = collect_local_states();
  if (states.empty()) return;
  LocalDaemon* origin_daemon = &fabric_.daemon_on(origin);
  world_.send(pid_, origin_daemon->pid(), sim::Lan::Control,
              sim::ChannelClass::Tcp, fabric_.costs().daemon_route,
              [origin_daemon, requester, states = std::move(states)]() mutable {
                origin_daemon->handle_state_reply(requester, std::move(states));
              });
}

void LocalDaemon::handle_state_reply(
    MachineId requester, std::vector<std::pair<MachineId, StateId>> states) {
  LokiNode* target = local_nodes_[requester];
  if (target == nullptr) return;  // restarted node died again
  world_.send(pid_, target->pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
              fabric_.costs().node_notification_handler,
              [target, states = std::move(states)] {
                target->deliver_state_updates(states);
              });
}

void LocalDaemon::handle_kill_all() {
  // Abort path (§3.5.1): kill every local state machine outright.
  for (MachineId m = 0; m < local_nodes_.size(); ++m) {
    LokiNode* node = local_nodes_[m];
    if (node == nullptr) continue;
    local_nodes_[m] = nullptr;
    locations_[m] = sim::HostId{};
    world_.kill(node->pid());
  }
  local_count_ = 0;
  check_experiment_end();
}

void LocalDaemon::handle_start_instruction(MachineId machine) {
  LOKI_REQUIRE(static_cast<bool>(fabric_.node_spawner),
               "no node spawner configured");
  fabric_.node_spawner(fabric_.dict().machine_name(machine), host_);
}

void LocalDaemon::check_experiment_end() {
  const bool now_empty = local_count_ == 0;
  if (now_empty != reported_empty_) {
    reported_empty_ = now_empty;
    if (fabric_.on_host_empty_change) fabric_.on_host_empty_change(host_, now_empty);
  }
}

// ---------------------------------------------------------------------------
// PartiallyDistributedDeployment
// ---------------------------------------------------------------------------

PartiallyDistributedDeployment::PartiallyDistributedDeployment(
    sim::World& world, std::vector<sim::HostId> hosts,
    const StudyDictionary& dict, const CostModel& costs, FabricParams params,
    const ReservedStudyIds& reserved)
    : world_(world),
      hosts_(std::move(hosts)),
      dict_(dict),
      costs_(costs),
      params_(params),
      // The study interned these once for every experiment; copying a flat
      // u32 vector beats one map lookup per machine per experiment.
      crash_state_id_(reserved.crash_state),
      crash_event_idx_(reserved.crash_event_idx) {
  LOKI_REQUIRE(!hosts_.empty(), "fabric needs at least one host");
  recorders_.assign(dict_.machine_count(), nullptr);
  for (const sim::HostId h : hosts_)
    daemons_.push_back(std::make_unique<LocalDaemon>(world_, h, *this));
}

void PartiallyDistributedDeployment::start_daemons() {
  for (auto& d : daemons_) d->start();
}

LocalDaemon& PartiallyDistributedDeployment::daemon_on(sim::HostId host) {
  for (auto& d : daemons_)
    if (d->host() == host) return *d;
  throw ConfigError("no local daemon on host " + world_.host_name(host));
}

void PartiallyDistributedDeployment::set_recorder(const std::string& nickname,
                                                  std::shared_ptr<Recorder> rec) {
  recorders_[dict_.machine_index(nickname)] = std::move(rec);
}

Recorder* PartiallyDistributedDeployment::recorder_for(MachineId machine) {
  return recorders_[machine].get();
}

void PartiallyDistributedDeployment::node_started(LokiNode& node, bool restarted,
                                                  std::function<void()> on_ready) {
  LocalDaemon& daemon = daemon_on(node.host());
  LokiNode* node_ptr = &node;
  world_.send(node.pid(), daemon.pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
              costs_.daemon_route,
              [&daemon, node_ptr, restarted, on_ready = std::move(on_ready)]() mutable {
                daemon.handle_register(node_ptr, restarted, std::move(on_ready));
              });
}

void PartiallyDistributedDeployment::node_exited(LokiNode& node) {
  LocalDaemon& daemon = daemon_on(node.host());
  const MachineId machine = node.machine_id();
  const LokiNode* node_ptr = &node;
  world_.send(node.pid(), daemon.pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
              costs_.daemon_route,
              [&daemon, machine, node_ptr] { daemon.handle_exit_notice(machine, node_ptr); });
}

void PartiallyDistributedDeployment::node_crashed(LokiNode& node,
                                                  bool explicit_notice) {
  LocalDaemon& daemon = daemon_on(node.host());
  const MachineId machine = node.machine_id();
  // Explicit notifyOnCrash() and the OS shm-teardown notification both reach
  // the daemon as a local (IPC-speed) event; the difference is whether the
  // node already recorded its CRASH state change.
  world_.send(node.pid(), daemon.pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
              costs_.daemon_route, [&daemon, machine, explicit_notice] {
                daemon.handle_crash_notice(machine, explicit_notice);
              });
}

void PartiallyDistributedDeployment::send_state_notification(
    LokiNode& from, StateId state, const std::vector<MachineId>& recipients) {
  LocalDaemon& daemon = daemon_on(from.host());
  const MachineId machine = from.machine_id();
  // `recipients` is the node's pre-interned notify list — owned by its
  // state machine and stable for the node's (experiment-long) lifetime, so
  // the in-flight message may carry a pointer to it instead of a copy.
  const std::vector<MachineId>* recipients_ptr = &recipients;
  world_.send(from.pid(), daemon.pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
              costs_.daemon_route, [&daemon, machine, state, recipients_ptr] {
                daemon.handle_route(machine, state, *recipients_ptr);
              });
}

void PartiallyDistributedDeployment::request_state_updates(LokiNode& node) {
  LocalDaemon& daemon = daemon_on(node.host());
  const MachineId machine = node.machine_id();
  world_.send(node.pid(), daemon.pid(), sim::Lan::Control, sim::ChannelClass::Ipc,
              costs_.daemon_route,
              [&daemon, machine] { daemon.handle_state_request(machine); });
}

// ---------------------------------------------------------------------------
// CentralDaemon
// ---------------------------------------------------------------------------

CentralDaemon::CentralDaemon(sim::World& world, sim::HostId host,
                             PartiallyDistributedDeployment& fabric, Params params)
    : world_(world), host_(host), fabric_(fabric), params_(params) {}

void CentralDaemon::start(
    const std::vector<std::pair<std::string, sim::HostId>>& initial_nodes) {
  pid_ = world_.spawn(host_, "loki-central@" + world_.host_name(host_));

  std::int32_t max_host = 0;
  for (const auto& d : fabric_.daemons())
    max_host = std::max(max_host, d->host().value);
  host_empty_.assign(static_cast<std::size_t>(max_host) + 1, 1);

  fabric_.on_host_empty_change = [this](sim::HostId host, bool empty) {
    // Daemon -> central notice (TCP).
    const auto& daemon = fabric_.daemon_on(host);
    world_.send(daemon.pid(), pid_, sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route,
                [this, host, empty] { handle_empty_change(host, empty); });
  };
  fabric_.on_node_crash = [this](const std::string& nick, sim::HostId host) {
    const auto& daemon = fabric_.daemon_on(host);
    world_.send(daemon.pid(), pid_, sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route, [this, nick, host] {
                  if (on_crash_report) on_crash_report(nick, host);
                });
  };

  // Experiment timeout (§3.5.1: a hung experiment is aborted).
  world_.timer(pid_, params_.experiment_timeout, fabric_.costs().daemon_route,
               [this] {
                 if (!concluded_) abort_experiment();
               });

  // Local-daemon liveness: a broken TCP link to a daemon means its host
  // crashed (§3.6.4). The host counts as empty until the daemon returns.
  // The poll body lives in the daemon (poll_) and timers capture only
  // `this`; a closure owning itself via shared_ptr would never be freed.
  poll_ = [this] {
    if (concluded_) return;
    for (const auto& d : fabric_.daemons()) {
      if (!world_.alive(d->pid())) handle_empty_change(d->host(), true);
    }
    world_.timer(pid_, fabric_.params().watchdog_interval,
                 fabric_.costs().daemon_route, [this] { poll_(); });
  };
  world_.timer(pid_, fabric_.params().watchdog_interval,
               fabric_.costs().daemon_route, [this] { poll_(); });

  // Instruct the daemons to start the node-file nodes.
  for (const auto& [nickname, host] : initial_nodes) {
    LocalDaemon* daemon = &fabric_.daemon_on(host);
    const MachineId machine = fabric_.dict().machine_index(nickname);
    world_.send(pid_, daemon->pid(), sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route,
                [daemon, machine] { daemon->handle_start_instruction(machine); });
  }
}

void CentralDaemon::handle_empty_change(sim::HostId host, bool empty) {
  host_empty_[static_cast<std::size_t>(host.value)] = empty ? 1 : 0;
  if (!empty) {
    saw_any_node_ = true;
    ++confirm_epoch_;  // cancel any scheduled confirmation
    return;
  }
  maybe_schedule_confirm();
}

void CentralDaemon::maybe_schedule_confirm() {
  if (concluded_ || !saw_any_node_) return;
  const bool all_empty =
      std::all_of(host_empty_.begin(), host_empty_.end(),
                  [](char e) { return e != 0; });
  if (!all_empty) return;
  const std::uint64_t epoch = ++confirm_epoch_;
  world_.timer(pid_, params_.end_confirm_grace, fabric_.costs().daemon_route,
               [this, epoch] {
                 if (epoch == confirm_epoch_) confirm_end();
               });
}

void CentralDaemon::confirm_end() {
  if (concluded_) return;
  const bool all_empty =
      std::all_of(host_empty_.begin(), host_empty_.end(),
                  [](char e) { return e != 0; });
  const bool really_empty = std::all_of(
      fabric_.daemons().begin(), fabric_.daemons().end(),
      [](const std::unique_ptr<LocalDaemon>& d) { return d->empty(); });
  const int pending = pending_restarts ? pending_restarts() : 0;
  if (all_empty && really_empty && pending == 0) {
    conclude(false);
  }
  // Otherwise a restart or late entry is in flight; the next empty report
  // re-schedules the confirmation.
}

void CentralDaemon::abort_experiment() {
  timed_out_ = true;
  for (const auto& d : fabric_.daemons()) {
    LocalDaemon* daemon = d.get();
    world_.send(pid_, daemon->pid(), sim::Lan::Control, sim::ChannelClass::Tcp,
                fabric_.costs().daemon_route, [daemon] { daemon->handle_kill_all(); });
  }
  // Conclude after the kill instructions have had time to land.
  world_.timer(pid_, milliseconds(50), fabric_.costs().daemon_route,
               [this] { conclude(true); });
}

void CentralDaemon::conclude(bool timed_out) {
  if (concluded_) return;
  concluded_ = true;
  timed_out_ = timed_out_ || timed_out;
  if (on_conclude) on_conclude(timed_out_);
}

}  // namespace loki::runtime
