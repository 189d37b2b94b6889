#include "runtime/experiment.hpp"

#include <algorithm>

#include "runtime/experiment_context.hpp"
#include "util/error.hpp"

namespace loki::runtime {

namespace {

/// Linear scan over a dense name table. The tables hold a handful of
/// entries (one per machine or host), so this beats a map at the report
/// boundary and costs nothing on the population path, which indexes by
/// slot directly.
std::size_t find_name(const std::vector<std::string>& names,
                      std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  return names.size();
}

}  // namespace

std::size_t GroundTruth::slot_of(std::string_view machine) {
  const std::size_t i = find_name(machines, machine);
  if (i < machines.size()) return i;
  machines.emplace_back(machine);
  state_seq.emplace_back();
  crashes.emplace_back();
  return machines.size() - 1;
}

const TrueStateSeq* GroundTruth::find_state_seq(std::string_view machine) const {
  const std::size_t i = find_name(machines, machine);
  return i < machines.size() ? &state_seq[i] : nullptr;
}

const std::vector<SimTime>* GroundTruth::find_crashes(
    std::string_view machine) const {
  const std::size_t i = find_name(machines, machine);
  return i < machines.size() ? &crashes[i] : nullptr;
}

bool GroundTruth::in_state(const std::string& machine, const std::string& state,
                           SimTime t) const {
  const TrueStateSeq* seq_ptr = find_state_seq(machine);
  if (seq_ptr == nullptr) return false;
  const TrueStateSeq& seq = *seq_ptr;
  // The sequence is ordered by enter time (entries are appended as the
  // simulation clock advances), so the entry in force at `t` is the last
  // one with enter <= t — found by binary search instead of a linear scan
  // (this query runs once per verdict per injection in the analysis phase).
  const auto after = std::upper_bound(
      seq.begin(), seq.end(), t,
      [](SimTime t, const std::pair<SimTime, std::string>& entry) {
        return t < entry.first;
      });
  if (after == seq.begin()) return false;  // t precedes the first entry
  return std::prev(after)->second == state;
}

const LocalTimeline* ExperimentResult::find_timeline(
    std::string_view nickname) const {
  for (const LocalTimeline& tl : timelines)
    if (tl.nickname == nickname) return &tl;
  return nullptr;
}

const LocalTimeline& ExperimentResult::timeline_of(
    std::string_view nickname) const {
  const LocalTimeline* tl = find_timeline(nickname);
  if (tl == nullptr)
    throw LogicError("experiment result: no timeline for node '" +
                     std::string(nickname) + "'");
  return *tl;
}

const std::vector<std::string>* ExperimentResult::find_user_messages(
    std::string_view nickname) const {
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    if (timelines[i].nickname != nickname) continue;
    if (i < user_messages.size() && !user_messages[i].empty())
      return &user_messages[i];
    return nullptr;
  }
  return nullptr;
}

std::size_t ExperimentResult::host_slot(std::string_view host) const {
  const std::size_t i = find_name(hosts, host);
  if (i == hosts.size())
    throw LogicError("experiment result: unknown host '" + std::string(host) +
                     "'");
  return i;
}

std::size_t ExperimentResult::add_host(std::string_view host) {
  const std::size_t i = find_name(hosts, host);
  if (i < hosts.size()) return i;
  hosts.emplace_back(host);
  start_local.emplace_back();
  end_local.emplace_back();
  true_clocks.emplace_back();
  return hosts.size() - 1;
}

ExperimentResult run_experiment(const ExperimentParams& params) {
  // One-shot compatibility wrapper: compile + single run. Campaign loops
  // hold an ExperimentContext instead and amortize the compile
  // (runtime/experiment_context.hpp).
  ExperimentContext context;
  return context.run(params);
}

}  // namespace loki::runtime
