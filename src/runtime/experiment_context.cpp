#include "runtime/experiment_context.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "clocksync/sync_phase.hpp"
#include "runtime/alt_deployments.hpp"
#include "runtime/daemons.hpp"
#include "runtime/node.hpp"
#include "sim/load.hpp"
#include "spec/reserved.hpp"
#include "util/error.hpp"

namespace loki::runtime {

namespace {

/// The host whose clock stamps a node's first records: its node-file host,
/// else its dynamic-entry host, else the first host of the experiment.
const std::string& recorder_host_of(const NodeConfig& nc,
                                    const ExperimentParams& params) {
  static const std::string kEmpty;
  if (nc.initial_host.has_value()) return *nc.initial_host;
  if (!nc.enter_host.empty()) return nc.enter_host;
  return params.hosts.empty() ? kEmpty : params.hosts.front().name;
}

/// One experiment's transient wiring over a context's reusable backbone
/// (compiled study, world, recorders); destroyed when the run ends. This is
/// the former run_experiment harness with every study-invariant rebuild
/// removed.
class ExperimentRun {
 public:
  ExperimentRun(const ExperimentParams& params, const CompiledStudy& study,
                sim::World& world,
                const std::vector<std::shared_ptr<Recorder>>& recorders)
      : params_(params), study_(study), world_(world), recorders_(recorders) {}

  ExperimentResult run();

 private:
  void build_hosts();
  void build_deployment();
  void spawn_node(const std::string& nickname, sim::HostId host, bool restarted);
  void handle_crash_report(const std::string& nickname, sim::HostId host);
  void arm_harness_completion_watch();
  std::size_t node_index_of(const std::string& nickname) const;

  const ExperimentParams& params_;
  const CompiledStudy& study_;
  sim::World& world_;
  const std::vector<std::shared_ptr<Recorder>>& recorders_;  // by node index
  std::vector<sim::HostId> host_ids_;

  // This run's deployment, built by build_deployment(). Members die in
  // reverse order: the central daemon (which references the fabric) before
  // the deployment, and the deployment after nodes_ (which reference it).
  std::unique_ptr<Deployment> deployment_;
  /// deployment_ when the design is PartiallyDistributed, else null.
  PartiallyDistributedDeployment* fabric_{nullptr};
  std::unique_ptr<CentralDaemon> central_;

  NodeDirectory directory_;
  std::vector<std::unique_ptr<LokiNode>> nodes_;
  std::map<std::string, int> restart_count_;
  /// Harness completion-poll body (arm_harness_completion_watch); a member
  /// so the chain is released with the run instead of leaking.
  std::function<void()> completion_watch_;
  int pending_restarts_{0};
  bool done_{false};
  bool timed_out_{false};
  bool saw_any_node_{false};

  ExperimentResult result_;
};

void ExperimentRun::build_hosts() {
  Rng clock_rng = world_.stream("host-clocks");
  for (const HostConfig& hc : params_.hosts) {
    sim::HostParams hp;
    hp.name = hc.name;
    hp.sched = hc.sched;
    hp.clock = hc.clock.has_value()
                   ? *hc.clock
                   : sim::HostClock::random_params(
                         clock_rng, params_.max_clock_offset,
                         params_.max_drift_ppm, params_.clock_granularity_ns);
    const sim::HostId id = world_.add_host(hp);
    host_ids_.push_back(id);
    result_.hosts.push_back(hc.name);
    result_.true_clocks.push_back(hp.clock);
  }
  // Ground-truth slots in node order — the same dense convention the study
  // dictionary uses, so the per-state-change hooks index by slot instead of
  // paying a map lookup on the nickname.
  result_.truth.machines.reserve(params_.nodes.size());
  for (const NodeConfig& nc : params_.nodes)
    result_.truth.machines.push_back(nc.nickname);
  result_.truth.state_seq.resize(params_.nodes.size());
  result_.truth.crashes.resize(params_.nodes.size());
}

void ExperimentRun::build_deployment() {
  switch (params_.design) {
    case TransportDesign::PartiallyDistributed: {
      auto fabric = std::make_unique<PartiallyDistributedDeployment>(
          world_, host_ids_, study_.dict(), params_.costs, params_.fabric,
          study_.reserved());
      fabric_ = fabric.get();
      deployment_ = std::move(fabric);
      for (std::size_t i = 0; i < params_.nodes.size(); ++i)
        fabric_->set_recorder(params_.nodes[i].nickname, recorders_[i]);
      fabric_->node_spawner = [this](const std::string& nick, sim::HostId host) {
        spawn_node(nick, host, false);
      };
      fabric_->start_daemons();
      central_ = std::make_unique<CentralDaemon>(world_, host_ids_.front(),
                                                 *fabric_, params_.central);
      central_->pending_restarts = [this] { return pending_restarts_; };
      central_->on_conclude = [this](bool timed_out) {
        done_ = true;
        timed_out_ = timed_out;
      };
      central_->on_crash_report = [this](const std::string& nick, sim::HostId host) {
        handle_crash_report(nick, host);
      };
      break;
    }
    case TransportDesign::Centralized: {
      auto centralized = std::make_unique<CentralizedDeployment>(
          world_, host_ids_.front(), study_.dict(), params_.costs,
          CentralizedDeployment::Params{}, study_.reserved());
      centralized->start_daemon();
      deployment_ = std::move(centralized);
      break;
    }
    case TransportDesign::Direct:
      deployment_ = std::make_unique<DirectDeployment>(
          world_, study_.dict(), params_.costs, study_.reserved());
      break;
  }
}

std::size_t ExperimentRun::node_index_of(const std::string& nickname) const {
  // nodes order == MachineId order, so the dictionary is the index.
  const MachineId id = study_.dict().try_machine_index(nickname);
  if (id == kInvalidId || id >= params_.nodes.size())
    throw ConfigError("unknown node nickname: " + nickname);
  return id;
}

void ExperimentRun::spawn_node(const std::string& nickname, sim::HostId host,
                               bool restarted) {
  const std::size_t index = node_index_of(nickname);
  const NodeConfig& nc = params_.nodes[index];
  saw_any_node_ = true;

  LokiNode::Hooks hooks;
  // The node's truth slot is its node index (node order == slot order), so
  // the hot hooks append by slot; the nickname argument is only there for
  // the injection record, which keeps strings (injections are rare).
  hooks.truth_state_change = [this, index](const std::string& /*nick*/,
                                           const std::string& s) {
    result_.truth.state_seq[index].emplace_back(world_.now(), s);
  };
  hooks.truth_injection = [this](const std::string& nick, const std::string& f) {
    result_.truth.injections.push_back(TrueInjection{nick, f, world_.now()});
  };
  hooks.truth_crash = [this, index](const std::string& /*nick*/,
                                    CrashMode mode) {
    result_.truth.crashes[index].push_back(world_.now());
    // For unhandled/silent crashes the machine never reported CRASH itself;
    // the true state still becomes CRASH at the death instant.
    if (mode != CrashMode::HandledSignal)
      result_.truth.state_seq[index].emplace_back(
          world_.now(), std::string(spec::kStateCrash));
  };
  hooks.truth_exit = [this](const std::string& nick) {
    (void)nick;  // EXIT transitions are app-driven and already recorded.
  };

  const int incarnation = restarted ? restart_count_[nickname] : 0;
  Rng node_rng = world_.stream("node-" + nickname + "-" +
                               std::to_string(incarnation));

  auto node = std::make_unique<LokiNode>(
      world_, host, nickname, study_.machine_of(index), recorders_[index],
      *deployment_, directory_, params_.costs, node_rng, restarted,
      std::move(hooks));
  node->start(nc.app_factory());
  nodes_.push_back(std::move(node));
}

void ExperimentRun::handle_crash_report(const std::string& nickname,
                                        sim::HostId crash_host) {
  const NodeConfig& nc = params_.nodes[node_index_of(nickname)];
  if (!nc.restart.enabled) return;
  int& count = restart_count_[nickname];
  if (count >= nc.restart.max_restarts) return;
  ++count;
  ++pending_restarts_;

  sim::HostId target = crash_host;
  switch (nc.restart.placement) {
    case RestartPolicy::Placement::SameHost:
      break;
    case RestartPolicy::Placement::NextHost: {
      const auto it = std::find(host_ids_.begin(), host_ids_.end(), crash_host);
      const std::size_t idx =
          it == host_ids_.end() ? 0 : static_cast<std::size_t>(it - host_ids_.begin());
      target = host_ids_[(idx + 1) % host_ids_.size()];
      break;
    }
    case RestartPolicy::Placement::Fixed:
      target = world_.host_by_name(nc.restart.fixed_host);
      break;
  }

  world_.at(world_.now() + nc.restart.delay, [this, nickname, target] {
    --pending_restarts_;
    if (done_) return;
    spawn_node(nickname, target, /*restarted=*/true);
  });
}

void ExperimentRun::arm_harness_completion_watch() {
  // The Centralized/Direct designs have no central-daemon completion
  // protocol (one of their §3.4 shortcomings); the harness itself polls.
  // The poll body lives in the run (completion_watch_) and the scheduled
  // events capture only `this` — a closure owning itself via shared_ptr
  // would leak once per experiment.
  const Duration poll = milliseconds(10);
  completion_watch_ = [this, poll] {
    if (done_) return;
    const bool all_dead = std::all_of(
        nodes_.begin(), nodes_.end(),
        [](const std::unique_ptr<LokiNode>& n) { return !n->process_alive(); });
    if (saw_any_node_ && all_dead && pending_restarts_ == 0) {
      done_ = true;
      return;
    }
    world_.at(world_.now() + poll, [this] { completion_watch_(); });
  };
  world_.at(world_.now() + poll, [this] { completion_watch_(); });
}

ExperimentResult ExperimentRun::run() {
  build_hosts();

  // --- sync mini-phase 1 (§2.3) -------------------------------------------
  clocksync::run_sync_phase(world_, host_ids_, params_.sync, result_.sync_samples);

  // Ambient CPU load for the runtime phase.
  std::vector<sim::ProcessId> loads;
  for (std::size_t i = 0; i < params_.hosts.size(); ++i) {
    const HostConfig& hc = params_.hosts[i];
    if (hc.load_duty > 0.0) {
      loads.push_back(sim::add_cpu_load(
          world_, host_ids_[i], sim::LoadParams{hc.load_duty, hc.load_chunk}));
    }
  }

  // --- runtime phase --------------------------------------------------------
  result_.start_phys = world_.now();
  result_.start_local.reserve(params_.hosts.size());
  for (std::size_t i = 0; i < params_.hosts.size(); ++i)
    result_.start_local.push_back(world_.clock_read(host_ids_[i]));

  build_deployment();

  std::vector<std::pair<std::string, sim::HostId>> initial;
  for (const NodeConfig& nc : params_.nodes) {
    if (nc.initial_host.has_value())
      initial.emplace_back(nc.nickname, world_.host_by_name(*nc.initial_host));
    if (nc.enter_at.has_value()) {
      const sim::HostId host = world_.host_by_name(
          nc.enter_host.empty() ? params_.hosts.front().name : nc.enter_host);
      const std::string nick = nc.nickname;
      world_.at(result_.start_phys + *nc.enter_at,
                [this, nick, host] { spawn_node(nick, host, false); });
    }
  }

  // Host crash & reboot plans (§3.6.4).
  for (const HostCrashPlan& plan : params_.host_crashes) {
    const sim::HostId host = world_.host_by_name(plan.host);
    world_.at(result_.start_phys + plan.at, [this, host] {
      // Power failure: every process on the host dies at once, including
      // the local daemon, nodes, and load. The central daemon is exempt —
      // it runs on the operator's machine (the GUI host in real Loki),
      // which merely shares a nominal name with the first host here.
      for (const sim::ProcessId pid : world_.processes_on(host)) {
        if (central_ != nullptr && pid == central_->pid()) continue;
        // A node incarnation on this host dies as in a silent crash: nothing
        // escapes, the directory drops it, and the ground truth records its
        // crash time and CRASH state (once, as crash_app is one-shot).
        for (auto& node : nodes_) {
          if (node->pid() == pid) node->crash_app(CrashMode::Silent);
        }
        world_.kill(pid);
      }
    });
    world_.at(result_.start_phys + plan.at + plan.reboot_after, [this, host] {
      if (fabric_ != nullptr && !done_) {
        fabric_->daemon_on(host).restart_after_reboot();
      }
    });
  }

  if (params_.design == TransportDesign::PartiallyDistributed) {
    central_->start(initial);
  } else {
    for (const auto& [nick, host] : initial) spawn_node(nick, host, false);
    // Timeout for the non-central designs is enforced by the harness.
    world_.at(result_.start_phys + params_.central.experiment_timeout, [this] {
      if (!done_) {
        timed_out_ = true;
        done_ = true;
      }
    });
    arm_harness_completion_watch();
  }

  const SimTime hard_limit = result_.start_phys + params_.hard_limit;
  while (!done_ && world_.now() < hard_limit) {
    world_.run_until(std::min(hard_limit, world_.now() + milliseconds(50)));
  }
  if (!done_) timed_out_ = true;

  result_.end_phys = world_.now();
  result_.end_local.reserve(params_.hosts.size());
  for (std::size_t i = 0; i < params_.hosts.size(); ++i)
    result_.end_local.push_back(world_.clock_read(host_ids_[i]));

  // Tear down whatever still runs so phase 2 sees a quiet system (the sync
  // mini-phases run while the application is not, §2.5).
  for (const auto& node : nodes_)
    if (node->process_alive()) world_.kill(node->pid());
  for (const sim::ProcessId load : loads) world_.kill(load);

  // --- sync mini-phase 2 -----------------------------------------------------
  clocksync::run_sync_phase(world_, host_ids_, params_.sync, result_.sync_samples);

  // --- collect ---------------------------------------------------------------
  result_.timelines.reserve(params_.nodes.size());
  result_.user_messages.reserve(params_.nodes.size());
  for (std::size_t i = 0; i < params_.nodes.size(); ++i) {
    const Recorder& rec = *recorders_[i];
    result_.timelines.push_back(rec.timeline());
    result_.user_messages.push_back(rec.user_messages());
  }
  result_.completed = !timed_out_;
  result_.timed_out = timed_out_;
  result_.dropped_notifications =
      deployment_ != nullptr ? deployment_->dropped_notifications() : 0;
  result_.dropped_notifications += world_.dropped_deliveries();
  result_.control_messages = world_.lan(sim::Lan::Control).messages_sent();
  result_.app_messages = world_.lan(sim::Lan::App).messages_sent();
  result_.sim_events = world_.events().executed();
  // The run object dies with this call; hand the result over without a
  // deep copy.
  return std::move(result_);
}

}  // namespace

// --- ExperimentContext -------------------------------------------------------

ExperimentContext::ExperimentContext(std::shared_ptr<const CompiledStudy> study)
    : study_(std::move(study)) {}

void ExperimentContext::prepare(const ExperimentParams& params) {
  if (study_ == nullptr || !study_->compatible_with(params)) {
    // Structure changed (or first run): fall back to the full per-
    // experiment compile. Correctness never depends on the cache hitting.
    study_ = CompiledStudy::compile(params);
    ++recompiles_;
    recorders_.clear();
  }
  if (recorders_.size() != params.nodes.size()) {
    // Fresh compile, or first run of a context seeded with a pre-compiled
    // study: build the per-node recorders against the (new) dictionary.
    recorders_.clear();
    recorders_.reserve(params.nodes.size());
    for (const NodeConfig& nc : params.nodes)
      recorders_.push_back(std::make_shared<Recorder>(
          nc.nickname, recorder_host_of(nc, params), study_->dict()));
  } else {
    for (std::size_t i = 0; i < params.nodes.size(); ++i)
      recorders_[i]->reset(recorder_host_of(params.nodes[i], params));
  }

  sim::WorldParams wp;
  wp.seed = params.seed;
  wp.app_lan = params.app_lan;
  wp.control_lan = params.control_lan;
  if (world_ == nullptr)
    world_ = std::make_unique<sim::World>(wp);
  else
    world_->reset(wp);
}

ExperimentResult ExperimentContext::run(const ExperimentParams& params) {
  prepare(params);
  ++runs_;
  ExperimentRun run(params, *study_, *world_, recorders_);
  return run.run();
}

}  // namespace loki::runtime
