#include <gtest/gtest.h>

#include "runtime/dictionary.hpp"
#include "runtime/fault_parser.hpp"
#include "runtime/recorder.hpp"
#include "runtime/state_machine.hpp"
#include "runtime/timeline.hpp"
#include "spec/fault_spec.hpp"
#include "util/error.hpp"

namespace loki::runtime {
namespace {

spec::StateMachineSpec mini_spec(const std::string& name) {
  const char* text = R"(
global_state_list
  BEGIN
  A
  B
  CRASH
  EXIT
end_global_state_list
event_list
  start
  go
  back
  CRASH
end_event_list
state BEGIN
  start A
state A notify m2
  go B
  CRASH CRASH
state B notify
  back A
  CRASH CRASH
state CRASH notify m2
state EXIT
)";
  auto s = spec::parse_state_machine_spec(text, name + ".sm");
  s.set_name(name);
  return s;
}

StudyDictionary make_dict(const spec::StateMachineSpec& sm,
                          const spec::FaultSpec& faults) {
  return StudyDictionary::build({&sm}, {&faults});
}

TEST(Dictionary, IndexesAndReservedNames) {
  const auto sm = mini_spec("m1");
  const spec::FaultSpec faults =
      spec::parse_fault_spec("f1 (m1:B) once\n", "f");
  const StudyDictionary dict = make_dict(sm, faults);

  EXPECT_EQ(dict.machine_index("m1"), 0u);
  EXPECT_THROW(dict.machine_index("nope"), LogicError);
  EXPECT_LT(dict.state_index("A"), dict.states().size());
  // Reserved names are always present even if the spec omits them.
  EXPECT_NO_THROW(dict.state_index("CRASH"));
  EXPECT_NO_THROW(dict.event_index("m1", "default"));
  EXPECT_NO_THROW(dict.event_index("m1", "CRASH"));
  EXPECT_EQ(dict.faults_of("m1").size(), 1u);
  EXPECT_EQ(dict.fault_index("m1", "f1"), 0u);
}

TEST(Dictionary, NameIdNameRoundTripIdentity) {
  const auto sm1 = mini_spec("m1");
  const auto sm2 = mini_spec("m2");
  const spec::FaultSpec none;
  const StudyDictionary dict = StudyDictionary::build({&sm1, &sm2}, {&none, &none});

  for (const std::string& m : dict.machines())
    EXPECT_EQ(dict.machine_name(dict.machine_index(m)), m);
  for (const std::string& s : dict.states())
    EXPECT_EQ(dict.state_name(dict.state_index(s)), s);
  // Dense: ids cover [0, count) exactly.
  for (MachineId id = 0; id < dict.machine_count(); ++id)
    EXPECT_EQ(dict.machine_index(dict.machine_name(id)), id);
  for (StateId id = 0; id < dict.state_count(); ++id)
    EXPECT_EQ(dict.state_index(dict.state_name(id)), id);
}

TEST(Dictionary, StableOrderingAndTryLookups) {
  const auto sm1 = mini_spec("m1");
  const auto sm2 = mini_spec("m2");
  const spec::FaultSpec none;
  // Machine order follows the argument order; states are first-seen order.
  const StudyDictionary a = StudyDictionary::build({&sm1, &sm2}, {&none, &none});
  const StudyDictionary b = StudyDictionary::build({&sm1, &sm2}, {&none, &none});
  EXPECT_EQ(a.machines(), b.machines());
  EXPECT_EQ(a.states(), b.states());
  EXPECT_EQ(a.machines(), (std::vector<std::string>{"m1", "m2"}));

  EXPECT_EQ(a.try_machine_index("m2"), a.machine_index("m2"));
  EXPECT_EQ(a.try_machine_index("ghost"), kInvalidId);
  EXPECT_EQ(a.try_state_index("A"), a.state_index("A"));
  EXPECT_EQ(a.try_state_index("NO_SUCH_STATE"), kInvalidId);
}

TEST(Recorder, TimelineRoundTripThroughFileFormat) {
  const auto sm = mini_spec("m1");
  const spec::FaultSpec faults =
      spec::parse_fault_spec("f1 ((m1:B) & ~(m1:A)) always\n", "f");
  const StudyDictionary dict = make_dict(sm, faults);

  Recorder rec("m1", "hostA", dict);
  EXPECT_FALSE(rec.has_history());
  rec.record_state_change(dict.event_index("m1", "start"),
                          dict.state_index("A"), LocalTime{1000});
  rec.record_fault_injection(0, LocalTime{2000});
  rec.record_restart("hostB", LocalTime{3000});
  rec.record_state_change(dict.event_index("m1", "go"), dict.state_index("B"),
                          LocalTime{4000});
  EXPECT_TRUE(rec.has_history());
  rec.record_user_message("hello");
  EXPECT_EQ(rec.user_messages().size(), 1u);

  const std::string text = rec.serialize();
  const LocalTimeline tl = parse_local_timeline(text, "rt");
  EXPECT_EQ(tl.nickname, "m1");
  EXPECT_EQ(tl.initial_host, "hostA");
  ASSERT_EQ(tl.records.size(), 4u);
  EXPECT_EQ(tl.records[0].type, RecordType::StateChange);
  EXPECT_EQ(tl.state_name(tl.records[0].state_index), "A");
  EXPECT_EQ(tl.records[0].time.ns, 1000);
  EXPECT_EQ(tl.records[1].type, RecordType::FaultInjection);
  EXPECT_EQ(tl.fault_name(tl.records[1].fault_index), "f1");
  EXPECT_EQ(tl.records[2].type, RecordType::Restart);
  EXPECT_EQ(tl.records[2].host, "hostB");
  // Host tracking across the restart record.
  EXPECT_EQ(tl.host_at(0), "hostA");
  EXPECT_EQ(tl.host_at(3), "hostB");
  // The fault expression text survives the round trip.
  EXPECT_EQ(tl.faults[0].trigger, spec::Trigger::Always);
  EXPECT_NE(tl.faults[0].expr_text.find("m1:B"), std::string::npos);
}

TEST(Timeline, Large64BitTimesSurviveSplit) {
  const auto sm = mini_spec("m1");
  const spec::FaultSpec faults;
  const StudyDictionary dict = make_dict(sm, faults);
  Recorder rec("m1", "h", dict);
  const std::int64_t big = (123ll << 32) + 456;
  rec.record_state_change(0, 0, LocalTime{big});
  const LocalTimeline tl = parse_local_timeline(rec.serialize(), "rt");
  EXPECT_EQ(tl.records[0].time.ns, big);
}

TEST(Timeline, ParserRejectsGarbage) {
  EXPECT_THROW(parse_local_timeline("", "empty"), ParseError);
  EXPECT_THROW(parse_local_timeline("m1\nlocal_timeline\n9 1 2 3 4\n", "bad"),
               ParseError);
}

// --- fault parser ------------------------------------------------------------

/// Harness over the id-based parser API: owns the dictionary, the machine
/// compiled through the study path, and a dense view, with name-based
/// setters for test readability.
struct ParserHarness {
  spec::StateMachineSpec sm = mini_spec("m1");
  spec::FaultSpec faults;
  StudyDictionary dict;
  CompiledMachine tables;
  FaultParser parser;
  std::vector<StateId> view;

  explicit ParserHarness(const std::string& fault_text)
      : faults(spec::parse_fault_spec(fault_text, "f")),
        dict(StudyDictionary::build({&sm}, {&faults})),
        tables(CompiledMachine::compile(sm, faults, dict)),
        parser(faults.entries, tables.fault_programs(),
               tables.fault_stack_depth()),
        view(dict.machine_count(), kNoState) {}

  void set(const std::string& machine, const std::string& state) {
    view[dict.machine_index(machine)] = dict.state_index(state);
  }
  std::vector<std::uint32_t> fire() { return parser.on_view_change(view); }
};

TEST(FaultParser, PositiveEdgeTriggering) {
  ParserHarness h("once_f (m1:B) once\nalways_f (m1:B) always\n");

  h.set("m1", "A");
  EXPECT_TRUE(h.fire().empty());

  h.set("m1", "B");
  auto fired = h.fire();
  EXPECT_EQ(fired.size(), 2u);  // both rise

  // Staying in B: no new edge.
  EXPECT_TRUE(h.fire().empty());

  // Leave and re-enter: only `always` fires again.
  h.set("m1", "A");
  EXPECT_TRUE(h.fire().empty());
  h.set("m1", "B");
  fired = h.fire();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(h.parser.entries()[fired[0]].name, "always_f");
}

TEST(FaultParser, InitiallyTrueNegationDoesNotFire) {
  // ~(m1:B) is true against the empty view; it must not fire until it goes
  // false and comes back (documented initialization rule).
  ParserHarness h("neg ~(m1:B) always\n");
  h.set("m1", "A");  // still ~B: no edge
  EXPECT_TRUE(h.fire().empty());
  h.set("m1", "B");  // now false
  EXPECT_TRUE(h.fire().empty());
  h.set("m1", "A");  // false -> true: fire
  EXPECT_EQ(h.fire().size(), 1u);
}

TEST(FaultParser, ResetRearmsOnceFaults) {
  ParserHarness h("f (m1:B) once\n");
  h.set("m1", "B");
  EXPECT_EQ(h.fire().size(), 1u);
  h.parser.reset();
  h.set("m1", "A");
  h.fire();
  h.set("m1", "B");
  EXPECT_EQ(h.fire().size(), 1u);
}

TEST(FaultParser, TermsOutsideTheStudyNeverFire) {
  // (ghost:B) names a machine that is not in the study dictionary — it
  // compiles to constant false, so the conjunction can never rise.
  ParserHarness h("f ((m1:B) & (ghost:B)) always\ng (m1:B) always\n");
  h.set("m1", "B");
  const auto fired = h.fire();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(h.parser.entries()[fired[0]].name, "g");
}

// --- state machine -----------------------------------------------------------

struct SmHarness {
  spec::StateMachineSpec sm_spec = mini_spec("m1");
  spec::StateMachineSpec peer_spec = mini_spec("m2");
  spec::FaultSpec faults;
  spec::FaultSpec peer_faults;
  StudyDictionary dict;
  CompiledMachine tables;
  std::shared_ptr<Recorder> recorder;
  std::vector<std::string> injected;
  std::vector<std::pair<std::string, std::vector<std::string>>> notified;
  LocalTime clock{1000};
  std::unique_ptr<StateMachine> sm;

  explicit SmHarness(const std::string& fault_text = "")
      : faults(fault_text.empty()
                   ? spec::FaultSpec{}
                   : spec::parse_fault_spec(fault_text, "f")),
        dict(StudyDictionary::build({&sm_spec, &peer_spec},
                                    {&faults, &peer_faults})),
        tables(CompiledMachine::compile(sm_spec, faults, dict)),
        recorder(std::make_shared<Recorder>("m1", "hostA", dict)) {
    StateMachine::Hooks hooks;
    hooks.clock = [this] {
      clock = clock + Duration{10};
      return clock;
    };
    hooks.send_notifications = [this](StateId state,
                                      const std::vector<MachineId>& to) {
      std::vector<std::string> names;
      for (const MachineId m : to)
        names.push_back(m == kInvalidId ? "<invalid>" : dict.machine_name(m));
      notified.emplace_back(dict.state_name(state), std::move(names));
    };
    hooks.inject_fault = [this](const std::string& f) { injected.push_back(f); };
    sm = std::make_unique<StateMachine>(tables, recorder, std::move(hooks));
  }

  MachineId mid(const std::string& name) const { return dict.machine_index(name); }
  StateId sid(const std::string& name) const { return dict.state_index(name); }
};

TEST(StateMachine, InitializationViaBeginTransition) {
  SmHarness h;
  EXPECT_FALSE(h.sm->initialized());
  EXPECT_EQ(h.sm->current_state(), "BEGIN");
  h.sm->notify_event("start");  // BEGIN -start-> A
  EXPECT_TRUE(h.sm->initialized());
  EXPECT_EQ(h.sm->current_state(), "A");
}

TEST(StateMachine, InitializationViaStateName) {
  SmHarness h;
  h.sm->notify_event("B");  // B is a state, not an event
  EXPECT_EQ(h.sm->current_state(), "B");
  // Recorded with the reserved `default` event index.
  const auto& rec = h.recorder->timeline().records;
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(h.recorder->timeline().event_name(rec[0].event_index), "default");
}

TEST(StateMachine, InvalidFirstNotificationThrows) {
  SmHarness h;
  EXPECT_THROW(h.sm->notify_event("go"), LogicError);  // no BEGIN arc, not a state
}

TEST(StateMachine, TransitionsNotifyAndRecord) {
  SmHarness h;
  h.sm->notify_event("start");
  ASSERT_EQ(h.notified.size(), 1u);  // entering A notifies "m2"
  EXPECT_EQ(h.notified[0].first, "A");
  EXPECT_EQ(h.notified[0].second, (std::vector<std::string>{"m2"}));

  h.sm->notify_event("go");
  EXPECT_EQ(h.sm->current_state(), "B");
  // B's notify list is empty: no new notification.
  EXPECT_EQ(h.notified.size(), 1u);
  EXPECT_EQ(h.recorder->timeline().records.size(), 2u);
}

TEST(StateMachine, UnmodeledEventIgnoredAndCounted) {
  SmHarness h;
  h.sm->notify_event("start");
  h.sm->notify_event("back");  // no arc from A
  EXPECT_EQ(h.sm->current_state(), "A");
  EXPECT_EQ(h.sm->ignored_events(), 1u);
}

TEST(StateMachine, LocalFaultFiresOnOwnTransition) {
  SmHarness h("f1 (m1:B) once\n");
  h.sm->notify_event("start");
  EXPECT_TRUE(h.injected.empty());
  h.sm->notify_event("go");
  ASSERT_EQ(h.injected.size(), 1u);
  EXPECT_EQ(h.injected[0], "f1");
  // Injection recorded after the state change.
  const auto& rec = h.recorder->timeline().records;
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec[2].type, RecordType::FaultInjection);
}

TEST(StateMachine, RemoteStateTriggersFault) {
  SmHarness h("f2 ((m1:A) & (m2:B)) once\n");
  h.sm->notify_event("start");
  EXPECT_TRUE(h.injected.empty());
  h.sm->on_remote_state(h.mid("m2"), h.sid("B"));
  ASSERT_EQ(h.injected.size(), 1u);
  EXPECT_EQ(h.sm->view().at("m2"), "B");
}

TEST(StateMachine, StateUpdatesDoNotOverrideOwnState) {
  SmHarness h;
  h.sm->notify_event("start");
  h.sm->apply_state_updates(
      {{h.mid("m1"), h.sid("B")}, {h.mid("m2"), h.sid("CRASH")}});
  EXPECT_EQ(h.sm->view().at("m1"), "A");  // own state authoritative
  EXPECT_EQ(h.sm->view().at("m2"), "CRASH");
}

TEST(StateMachine, DaemonCrashRecordUsesReservedIndices) {
  SmHarness h;
  h.sm->notify_event("start");
  h.sm->record_crash_detected_by_daemon(LocalTime{5555});
  const auto& tl = h.recorder->timeline();
  const auto& rec = tl.records.back();
  EXPECT_EQ(tl.state_name(rec.state_index), "CRASH");
  EXPECT_EQ(tl.event_name(rec.event_index), "CRASH");
  EXPECT_EQ(rec.time.ns, 5555);
}

}  // namespace
}  // namespace loki::runtime
