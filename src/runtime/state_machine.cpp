#include "runtime/state_machine.hpp"

#include "spec/reserved.hpp"
#include "util/error.hpp"

namespace loki::runtime {

StateMachine::StateMachine(const CompiledMachine& tables,
                           std::shared_ptr<Recorder> recorder, Hooks hooks)
    : tables_(&tables),
      recorder_(std::move(recorder)),
      hooks_(std::move(hooks)),
      parser_(tables.fault_spec().entries, tables.fault_programs(),
              tables.fault_stack_depth()) {
  LOKI_REQUIRE(recorder_ != nullptr, "state machine needs a recorder");
  LOKI_REQUIRE(static_cast<bool>(hooks_.clock), "state machine needs a clock hook");
  current_state_ = tables_->begin_state();
  view_.assign(tables_->dict().machine_count(), kNoState);
}

const std::uint32_t* StateMachine::find_event(const std::string& name) const {
  const auto& ids = tables_->event_ids();
  const auto it = ids.find(name);
  return it == ids.end() ? nullptr : &it->second;
}

const std::string& StateMachine::current_state() const {
  return tables_->dict().state_name(current_state_);
}

std::map<std::string, std::string> StateMachine::view() const {
  const StudyDictionary& dict = tables_->dict();
  std::map<std::string, std::string> out;
  for (MachineId m = 0; m < view_.size(); ++m) {
    if (view_[m] != kNoState)
      out.emplace(dict.machine_name(m), dict.state_name(view_[m]));
  }
  return out;
}

std::uint32_t StateMachine::event_index_or_default(const std::string& event) const {
  const std::uint32_t* ev = find_event(event);
  return ev == nullptr ? tables_->default_event() : *ev;
}

void StateMachine::notify_event(const std::string& name) {
  if (!initialized_) {
    // First notification: resolve the initial state (see header comment).
    // Cold path — string resolution is fine here.
    const spec::StateMachineSpec& spec = tables_->spec();
    std::string initial;
    if (const auto next = spec.transition(std::string(spec::kStateBegin), name);
        next.has_value()) {
      initial = *next;
    } else if (spec.has_state(name)) {
      initial = name;
    } else if (name == spec::kEventRestart && spec.has_state("RESTART_SM")) {
      initial = "RESTART_SM";
    } else {
      throw LogicError("first probe notification '" + name + "' of machine " +
                       spec.name() + " does not resolve to an initial state");
    }
    initialized_ = true;
    enter_state(tables_->dict().state_index(initial),
                event_index_or_default(name));
    return;
  }

  const std::int32_t def = tables_->def_of(current_state_);
  const std::uint32_t* ev = find_event(name);
  StateId next = kNoState;
  if (def >= 0) {
    const auto d = static_cast<std::size_t>(def);
    if (ev != nullptr) next = tables_->next(d, *ev);
    if (next == kNoState) next = tables_->state(d).default_next;
  }
  if (next == kNoState) {
    // Event has no arc in the current state; the abstraction does not model
    // it here. Count and continue (strictness is a harness-level choice).
    ++ignored_events_;
    return;
  }
  // Record with the event's own index; an unknown name means the `default`
  // wildcard arc was taken, which records as the reserved default event.
  enter_state(next, ev != nullptr ? *ev : tables_->default_event());
}

void StateMachine::enter_state(StateId new_state, std::uint32_t event_index) {
  current_state_ = new_state;
  const LocalTime now = hooks_.clock();
  recorder_->record_state_change(event_index, new_state, now);
  if (hooks_.truth_state_change)
    hooks_.truth_state_change(tables_->dict().state_name(new_state));

  // Update own entry in the partial view before notifying others, so local
  // fault expressions see the new state immediately.
  view_[tables_->self()] = new_state;

  const std::int32_t def = tables_->def_of(new_state);
  if (def >= 0) {
    const CompiledMachine::CompiledState& cs =
        tables_->state(static_cast<std::size_t>(def));
    if (!cs.notify.empty() && hooks_.send_notifications)
      hooks_.send_notifications(new_state, cs.notify);
  }

  run_fault_parser();
}

void StateMachine::on_remote_state(MachineId machine, StateId state) {
  view_[machine] = state;
  run_fault_parser();
}

void StateMachine::apply_state_updates(
    const std::vector<std::pair<MachineId, StateId>>& states) {
  for (const auto& [machine, state] : states) {
    if (machine == tables_->self()) continue;  // own state is authoritative
    view_[machine] = state;
  }
  run_fault_parser();
}

void StateMachine::record_crash_detected_by_daemon(LocalTime when) {
  recorder_->record_state_change(
      event_index_or_default(std::string(spec::kEventCrash)),
      tables_->dict().state_index(std::string(spec::kStateCrash)), when);
}

void StateMachine::run_fault_parser() {
  const std::vector<std::uint32_t>& fired_ref = parser_.on_view_change(view_);
  if (fired_ref.empty()) return;  // steady state: no copy, no allocation
  // Copy before invoking hooks: an injection may re-enter notify_event()
  // (probe crashes the app synchronously), which reuses the parser buffer.
  const std::vector<std::uint32_t> fired = fired_ref;
  for (const std::uint32_t idx : fired) {
    const spec::FaultSpecEntry& entry = parser_.entries()[idx];
    if (hooks_.inject_fault) hooks_.inject_fault(entry.name);
    recorder_->record_fault_injection(
        tables_->dict().fault_index(nickname(), entry.name), hooks_.clock());
    if (hooks_.truth_injection) hooks_.truth_injection(entry.name);
  }
}

}  // namespace loki::runtime
