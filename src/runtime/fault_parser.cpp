#include "runtime/fault_parser.hpp"

namespace loki::runtime {

FaultParser::FaultParser(const std::vector<spec::FaultSpecEntry>& entries,
                         const std::vector<CompiledFaultProgram>& programs,
                         std::size_t stack_depth)
    : entries_(&entries), programs_(&programs) {
  scratch_.resize(stack_depth);
  edges_.resize(entries.size());
  reset();
}

void FaultParser::reset() {
  const std::vector<CompiledFaultProgram>& programs = *programs_;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    edges_[i].prev = programs[i].eval_empty(scratch_.data());
    edges_[i].fired_once = false;
  }
}

const std::vector<std::uint32_t>& FaultParser::on_view_change(
    const std::vector<StateId>& view) {
  fired_.clear();
  const std::vector<spec::FaultSpecEntry>& entries = *entries_;
  const std::vector<CompiledFaultProgram>& programs = *programs_;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const bool value = programs[i].eval(view, scratch_.data());
    ++evaluations_;
    EdgeState& edge = edges_[i];
    const bool rising = value && !edge.prev;
    edge.prev = value;
    if (!rising) continue;
    if (entries[i].trigger == spec::Trigger::Once && edge.fired_once) continue;
    edge.fired_once = true;
    fired_.push_back(static_cast<std::uint32_t>(i));
  }
  return fired_;
}

}  // namespace loki::runtime
