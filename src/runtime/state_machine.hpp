// The runtime state machine (§3.5.3), interned (§3.5.6).
//
// One per node. Tracks the node's local state (driven by probe event
// notifications) and the partial view of global state (driven by remote
// state notifications), records both local state changes and fault
// injections, and asks the probe to inject when the fault parser fires.
//
// Everything on the notification hot path trades in dense ids: the view is
// a std::vector<StateId> indexed by MachineId, the transition table is
// compiled to per-state arrays indexed by event index, notify lists are
// pre-interned MachineId vectors, and fault expressions are
// CompiledFaultPrograms. Names appear only at the probe boundary (the
// notifyEvent() string, interned with one hash lookup) and at the
// report/test boundary (current_state(), view()).
//
// The compiled tables themselves live in a CompiledMachine
// (runtime/compiled_study.hpp), built once per *study* and borrowed by
// every incarnation of the node across every experiment of a campaign —
// only the dynamic state (current state, partial view, parser edge state)
// is constructed per incarnation.
//
// Initial-state resolution for the *first* probe notification (§3.5.7 says
// "the first event notification that the probe sends is considered as a
// state and is used to initialize the state of the state machine"; the
// Ch. 5 example also sends the reserved event RESTART first on restart):
//   1. if the name is an event with a transition defined from BEGIN, take
//      that transition;
//   2. else if the name is a state, initialize to it directly;
//   3. else if the name is the reserved event RESTART and a state named
//      RESTART_SM exists, initialize there (the thesis example convention);
//   4. otherwise the notification is invalid (LogicError).
// Synthetic records that have no probe event use the reserved `default`
// event index, which the study dictionary guarantees to exist.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/compiled_study.hpp"
#include "runtime/dictionary.hpp"
#include "runtime/fault_parser.hpp"
#include "runtime/recorder.hpp"
#include "spec/state_machine_spec.hpp"

namespace loki::runtime {

class StateMachine {
 public:
  struct Hooks {
    /// Send a state notification to the given machines (the notify list of
    /// the state just entered). Wired to the state machine transport. The
    /// recipient list is a pre-interned vector owned by this machine and
    /// stable for its lifetime; entries may be kInvalidId for notify-list
    /// names outside the study (the transport counts them as drops).
    std::function<void(StateId new_state,
                       const std::vector<MachineId>& recipients)>
        send_notifications;
    /// Perform the actual fault injection (wired to the probe).
    std::function<void(const std::string& fault_name)> inject_fault;
    /// Read the local (host) clock.
    std::function<LocalTime()> clock;
    /// Ground-truth taps for the validation harness (may be empty).
    std::function<void(const std::string& new_state)> truth_state_change;
    std::function<void(const std::string& fault_name)> truth_injection;
  };

  /// Borrow the study-compiled tables (runtime/compiled_study.hpp): no
  /// compilation happens here, only the dynamic state (current state, view,
  /// parser edges) is initialized. `tables` must outlive the machine (it
  /// lives in the CompiledStudy the experiment context holds).
  StateMachine(const CompiledMachine& tables, std::shared_ptr<Recorder> recorder,
               Hooks hooks);

  /// Probe-facing notifyEvent() (§3.5.7). The one string->id interning
  /// point of the hot path.
  void notify_event(const std::string& name);

  /// Transport-facing: a remote machine reports its new state.
  void on_remote_state(MachineId machine, StateId state);

  /// Daemon-facing: bulk state update on restart (§3.6.3).
  void apply_state_updates(
      const std::vector<std::pair<MachineId, StateId>>& states);

  /// The local daemon detected this node crashed without notifying: write
  /// the crash into the timeline on the node's behalf (§3.5.2).
  void record_crash_detected_by_daemon(LocalTime when);

  const std::string& nickname() const { return tables_->spec().name(); }
  MachineId machine_id() const { return tables_->self(); }
  StateId current_state_id() const { return current_state_; }
  /// Report boundary: the current state's name.
  const std::string& current_state() const;
  bool initialized() const { return initialized_; }
  /// Report/test boundary: the dense view materialized as name -> name.
  std::map<std::string, std::string> view() const;
  const std::vector<StateId>& view_ids() const { return view_; }
  std::uint64_t ignored_events() const { return ignored_events_; }

 private:
  void enter_state(StateId new_state, std::uint32_t event_index);
  void run_fault_parser();
  std::uint32_t event_index_or_default(const std::string& event) const;
  const std::uint32_t* find_event(const std::string& name) const;

  /// The immutable compiled tables (transition matrix, notify lists, fault
  /// programs) — everything that used to be rebuilt per node per
  /// experiment, now compiled once per study.
  const CompiledMachine* tables_;
  std::shared_ptr<Recorder> recorder_;
  Hooks hooks_;
  FaultParser parser_;

  bool initialized_{false};
  StateId current_state_{kNoState};
  std::vector<StateId> view_;  // by MachineId; kNoState = unknown
  std::uint64_t ignored_events_{0};
};

}  // namespace loki::runtime
