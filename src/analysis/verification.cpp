#include "analysis/verification.hpp"

#include <deque>
#include <limits>

#include "analysis/projection_walk.hpp"
#include "util/error.hpp"

namespace loki::analysis {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// An instant as one host's clock recorded it: exact on that clock, an
/// interval on the reference clock. `clock` identifies the host.
struct Stamp {
  const clocksync::ClockBounds* clock{nullptr};
  LocalTime local{};
  clocksync::TimeBounds when;
};

/// One machine's stay in one state, its name borrowed from the timeline.
/// Without an exit the machine held the state to the end of the experiment.
struct Occupancy {
  const std::string* state{nullptr};
  Stamp entry;
  bool has_exit{false};
  Stamp exit;
};

/// A machine by ordinal. Timelines that share a nickname pool their
/// occupancies here, and the last of them supplies the fault entries.
struct Machine {
  const std::string* name{nullptr};
  const runtime::LocalTimeline* last{nullptr};
  std::vector<Occupancy> occupancies;
};

/// The (interval-valued) instant of one injection.
struct InjectionSite {
  std::size_t machine{0};
  const std::string* fault{nullptr};
  Stamp at;
};

/// How many injections of one machine's fault the verdicts have counted.
struct InjectionCount {
  std::size_t machine{0};
  const std::string* fault{nullptr};
  std::size_t count{0};
};

std::size_t machine_ordinal(const std::vector<Machine>& machines,
                            const std::string& name) {
  for (std::size_t m = 0; m < machines.size(); ++m)
    if (*machines[m].name == name) return m;
  return machines.size();
}

InjectionCount* find_count(std::vector<InjectionCount>& counts,
                           std::size_t machine, const std::string& fault) {
  for (InjectionCount& c : counts)
    if (c.machine == machine && *c.fault == fault) return &c;
  return nullptr;
}

/// Evaluate a term (machine:state), given the occupancies of that state by
/// that machine, over the injection interval.
Tri eval_term(const std::vector<const Occupancy*>& occupancies,
              const Stamp& site) {
  bool any_possible = false;
  for (const Occupancy* occ : occupancies) {
    // Same-clock fast path: exact ordering by local time.
    const bool entry_same = occ->entry.clock == site.clock;
    const bool exit_same = !occ->has_exit || occ->exit.clock == site.clock;
    if (entry_same && exit_same) {
      const bool inside = occ->entry.local <= site.local &&
                          (!occ->has_exit || site.local < occ->exit.local);
      if (inside) return Tri::True;
      continue;  // exactly outside: cannot overlap
    }

    // Cross-clock: thesis containment rule on projected bounds.
    const double exit_lo = occ->has_exit ? occ->exit.when.lo : kInf;
    const double exit_hi = occ->has_exit ? occ->exit.when.hi : kInf;
    const bool certain =
        occ->entry.when.hi <= site.when.lo && site.when.hi <= exit_lo;
    if (certain) return Tri::True;
    const bool possible =
        occ->entry.when.lo <= site.when.hi && site.when.lo <= exit_hi;
    if (possible) any_possible = true;
  }
  return any_possible ? Tri::Unknown : Tri::False;
}

/// A fault expression in postfix form, every distinct (machine:state) term
/// resolved to its slot and each slot to that term's occupancies.
struct CompiledExpr {
  const std::string* text{nullptr};
  std::vector<spec::PostfixOp::Kind> ops;
  std::vector<std::size_t> slot;  // per op; meaningful for Term ops
  std::vector<std::vector<const Occupancy*>> terms;
};

/// Tri-valued evaluation of the fault expressions of one verify_experiment
/// call, each parsed and flattened once, on first use.
///
/// Tri-valued evaluation by structural recursion over the term list is not
/// possible through the FaultExpr interface (it is Boolean). Instead each
/// distinct term is pre-evaluated to True/False/Unknown over the injection
/// bounds, and the (at most 2^u for u Unknown terms, capped) assignments
/// are enumerated — expr is monotone in term values only if negation-free,
/// so with NOT present the two-pass optimistic/pessimistic trick would be
/// unsound. Multiple states of the same machine are naturally exclusive in
/// real views, but an assignment may propose impossible combinations — that
/// only widens Unknown, keeping the check conservative.
class ExprEvaluator {
 public:
  explicit ExprEvaluator(const std::vector<Machine>& machines)
      : machines_(machines) {}

  const CompiledExpr& compiled(const std::string& text) {
    for (const CompiledExpr& e : exprs_)
      if (*e.text == text) return e;
    const std::vector<spec::PostfixOp> postfix =
        spec::expr_postfix(*spec::parse_fault_expr(text, "fault_list", 0));
    CompiledExpr& e = exprs_.emplace_back();
    e.text = &text;
    std::vector<const spec::PostfixOp*> uniq;
    for (const spec::PostfixOp& op : postfix) {
      e.ops.push_back(op.kind);
      e.slot.push_back(0);
      if (op.kind != spec::PostfixOp::Kind::Term) continue;
      std::size_t s = 0;
      while (s < uniq.size() &&
             (uniq[s]->machine != op.machine || uniq[s]->state != op.state))
        ++s;
      e.slot.back() = s;
      if (s < uniq.size()) continue;
      uniq.push_back(&op);
      std::vector<const Occupancy*>& occs = e.terms.emplace_back();
      const std::size_t m = machine_ordinal(machines_, op.machine);
      if (m == machines_.size()) continue;  // machine never reported
      for (const Occupancy& occ : machines_[m].occupancies)
        if (*occ.state == op.state) occs.push_back(&occ);
    }
    return e;
  }

  Tri eval(const CompiledExpr& e, const Stamp& site) {
    unknown_.clear();
    assignment_.resize(e.terms.size());
    for (std::size_t i = 0; i < e.terms.size(); ++i) {
      const Tri value = eval_term(e.terms[i], site);
      assignment_[i] = value == Tri::True;
      if (value == Tri::Unknown) unknown_.push_back(i);
    }
    // With many unknowns, give up early: Unknown (conservatively incorrect).
    if (unknown_.size() > 16) return Tri::Unknown;

    stack_.resize(e.ops.size());
    bool seen_true = false;
    bool seen_false = false;
    const std::size_t combos = std::size_t{1} << unknown_.size();
    for (std::size_t mask = 0; mask < combos; ++mask) {
      for (std::size_t b = 0; b < unknown_.size(); ++b)
        assignment_[unknown_[b]] = (mask >> b) & 1;

      char* sp = stack_.data();
      for (std::size_t p = 0; p < e.ops.size(); ++p) {
        switch (e.ops[p]) {
          case spec::PostfixOp::Kind::Term:
            *sp++ = assignment_[e.slot[p]];
            break;
          case spec::PostfixOp::Kind::And:
            --sp;
            sp[-1] = sp[-1] & sp[0];
            break;
          case spec::PostfixOp::Kind::Or:
            --sp;
            sp[-1] = sp[-1] | sp[0];
            break;
          case spec::PostfixOp::Kind::Not:
            sp[-1] = static_cast<char>(!sp[-1]);
            break;
        }
      }
      if (sp[-1] != 0)
        seen_true = true;
      else
        seen_false = true;
      if (seen_true && seen_false) return Tri::Unknown;
    }
    if (seen_true && !seen_false) return Tri::True;
    if (seen_false && !seen_true) return Tri::False;
    return Tri::Unknown;
  }

 private:
  const std::vector<Machine>& machines_;
  std::deque<CompiledExpr> exprs_;  // deque: references stay valid
  std::vector<std::size_t> unknown_;
  std::vector<char> assignment_;
  std::vector<char> stack_;
};

}  // namespace

VerificationResult verify_experiment(
    const std::vector<const runtime::LocalTimeline*>& timelines,
    const clocksync::AlphaBetaFile& alphabeta,
    const VerificationOptions& options) {
  VerificationResult result;

  // Build occupancies and injection sites per machine, in record order.
  std::vector<Machine> machines;
  std::vector<InjectionSite> sites;
  for (const runtime::LocalTimeline* tl : timelines) {
    const std::size_t m = machine_ordinal(machines, tl->nickname);
    if (m == machines.size()) machines.emplace_back().name = &tl->nickname;
    machines[m].last = tl;
    std::vector<Occupancy>& occs = machines[m].occupancies;
    for_each_projected(*tl, alphabeta, [&](const ProjectedRecord& p) {
      const Stamp at{p.clock, p.local, p.when};
      if (p.type == runtime::RecordType::FaultInjection) {
        sites.push_back(InjectionSite{m, p.fault, at});
        return;
      }
      // A state change ends the open occupancy, and so does a RESTART: the
      // state between a restart and the first notification is BEGIN, and
      // the previous occupancy (normally CRASH) ends there.
      if (!occs.empty() && !occs.back().has_exit) {
        occs.back().has_exit = true;
        occs.back().exit = at;
      }
      if (p.type == runtime::RecordType::StateChange) {
        Occupancy& occ = occs.emplace_back();
        occ.state = p.state;
        occ.entry = at;
      }
    });
  }

  // Check each injection against its fault expression.
  ExprEvaluator exprs(machines);
  std::vector<InjectionCount> counts;
  for (const InjectionSite& site : sites) {
    const Machine& machine = machines[site.machine];
    const runtime::TimelineFaultEntry* entry = nullptr;
    for (const auto& f : machine.last->faults)
      if (f.name == *site.fault) entry = &f;
    LOKI_REQUIRE(entry != nullptr, "injection for unknown fault " + *site.fault);

    const CompiledExpr& expr = exprs.compiled(entry->expr_text);

    InjectionVerdict verdict;
    verdict.machine = *machine.name;
    verdict.fault = *site.fault;
    InjectionCount* count = find_count(counts, site.machine, *site.fault);
    if (count == nullptr)
      count = &counts.emplace_back(InjectionCount{site.machine, site.fault, 0});
    verdict.injection_index = count->count++;

    const Tri value = exprs.eval(expr, site.at);
    verdict.correct = value == Tri::True;
    if (value == Tri::Unknown)
      verdict.reason = "expression not certainly true over the injection bounds";
    else if (value == Tri::False)
      verdict.reason = "expression certainly false at the injection";
    result.verdicts.push_back(std::move(verdict));
    if (value != Tri::True) result.all_injections_correct = false;
  }

  // Missed `once` faults: the expression certainly became true at some
  // sampled instant, yet no injection was recorded.
  if (options.strict_missed_once) {
    for (const runtime::LocalTimeline* tl : timelines) {
      const std::size_t m = machine_ordinal(machines, tl->nickname);
      for (const auto& f : tl->faults) {
        if (f.trigger != spec::Trigger::Once) continue;
        if (find_count(counts, m, f.name) != nullptr) continue;
        const CompiledExpr& expr = exprs.compiled(f.expr_text);
        // Sample at every machine's state-entry instant (the only times the
        // global state changes); whether any certifies it is independent
        // of the order they are tried in.
        bool certainly_true = false;
        for (const Machine& sampled : machines) {
          for (const Occupancy& occ : sampled.occupancies) {
            if (exprs.eval(expr, occ.entry) == Tri::True) {
              certainly_true = true;
              break;
            }
          }
          if (certainly_true) break;
        }
        if (certainly_true)
          result.missed.push_back(MissedFault{tl->nickname, f.name});
      }
    }
  }

  result.accepted = result.all_injections_correct && result.missed.empty();
  return result;
}

}  // namespace loki::analysis
