#include "analysis/global_timeline.hpp"

#include <algorithm>
#include <cstdio>

#include "analysis/projection_walk.hpp"

namespace loki::analysis {

std::vector<const GlobalEvent*> GlobalTimeline::of_machine(
    const std::string& machine) const {
  std::vector<const GlobalEvent*> out;
  for (const GlobalEvent& e : events)
    if (e.machine == machine) out.push_back(&e);
  return out;
}

namespace {

GlobalEvent to_global_event(const std::string& machine,
                            const ProjectedRecord& p) {
  GlobalEvent e;
  e.machine = machine;
  e.host = *p.host;
  e.local = p.local;
  e.when = p.when;
  switch (p.type) {
    case runtime::RecordType::StateChange:
      e.kind = EventKind::StateChange;
      e.state = *p.state;
      e.event = *p.event;
      break;
    case runtime::RecordType::FaultInjection:
      e.kind = EventKind::FaultInjection;
      e.fault = *p.fault;
      break;
    case runtime::RecordType::Restart:
      e.kind = EventKind::Restart;
      break;
  }
  return e;
}

}  // namespace

std::vector<GlobalEvent> project_timeline(const runtime::LocalTimeline& tl,
                                          const clocksync::AlphaBetaFile& ab) {
  std::vector<GlobalEvent> out;
  out.reserve(tl.records.size());
  for_each_projected(tl, ab, [&](const ProjectedRecord& p) {
    out.push_back(to_global_event(tl.nickname, p));
  });
  return out;
}

GlobalTimeline build_global_timeline(
    const std::vector<const runtime::LocalTimeline*>& timelines,
    const clocksync::AlphaBetaFile& alphabeta) {
  struct Projected {
    const std::string* machine;
    ProjectedRecord record;
  };
  std::size_t records = 0;
  for (const runtime::LocalTimeline* tl : timelines) records += tl->records.size();
  std::vector<Projected> projected;
  projected.reserve(records);
  for (const runtime::LocalTimeline* tl : timelines)
    for_each_projected(*tl, alphabeta, [&](const ProjectedRecord& p) {
      projected.push_back(Projected{&tl->nickname, p});
    });

  // Sort (midpoint, position) keys rather than 200-byte events, then build
  // each event once, in sorted order. The sort is stable, so events with
  // equal midpoints keep record order.
  struct Key {
    double mid;
    std::size_t position;
  };
  std::vector<Key> keys;
  keys.reserve(projected.size());
  for (std::size_t i = 0; i < projected.size(); ++i)
    keys.push_back(Key{projected[i].record.when.mid(), i});
  std::stable_sort(keys.begin(), keys.end(),
                   [](const Key& a, const Key& b) { return a.mid < b.mid; });

  GlobalTimeline out;
  out.reference = alphabeta.reference;
  out.events.reserve(keys.size());
  for (const Key& k : keys) {
    const Projected& p = projected[k.position];
    out.events.push_back(to_global_event(*p.machine, p.record));
  }
  return out;
}

std::string serialize_global_timeline(const GlobalTimeline& t) {
  std::string out = "reference " + t.reference + "\n";
  char buf[128];
  for (const GlobalEvent& e : t.events) {
    out += e.machine;
    switch (e.kind) {
      case EventKind::StateChange:
        out += " STATE_CHANGE " + e.event + " " + e.state;
        break;
      case EventKind::FaultInjection:
        out += " FAULT_INJECTION " + e.fault;
        break;
      case EventKind::Restart:
        out += " RESTART -";
        break;
    }
    std::snprintf(buf, sizeof buf, " %s %lld %.3f %.3f\n", e.host.c_str(),
                  static_cast<long long>(e.local.ns), e.when.lo, e.when.hi);
    out += buf;
  }
  return out;
}

}  // namespace loki::analysis
