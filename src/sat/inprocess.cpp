#include "sat/inprocess.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "sat/preprocessor.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace ril::sat {

bool Inprocessor::run() {
  assert(s_.decision_level() == 0);
  ++s_.ipc_stats_.passes;
  if (!vivify_pass()) return false;
  if (!subsume_pass()) return false;
  return probe_pass();
}

bool Inprocessor::is_reason_locked(std::uint32_t cref) const {
  const auto c = s_.view(cref);
  const Lit l0 = c.lit(0);
  return s_.reason_[l0.var()] == cref && s_.value(l0) != LBool::kUndef;
}

bool Inprocessor::binary_exists(Lit a, Lit b) const {
  // A live binary watching `a` sits in the list indexed by ~a's negation.
  const auto& list = s_.watches_[(~a).code];
  for (const auto& w : list) {
    const auto c = s_.view(w.cref);
    if (c.size() != 2) continue;
    const Lit l0 = c.lit(0);
    const Lit l1 = c.lit(1);
    if ((l0 == a && l1 == b) || (l0 == b && l1 == a)) return true;
  }
  return false;
}

void Inprocessor::delete_clause(std::uint32_t cref) {
  auto c = s_.view(cref);
  if (s_.proof_) {
    Clause removed;
    removed.reserve(c.size());
    for (std::uint32_t i = 0; i < c.size(); ++i) removed.push_back(c.lit(i));
    // The stored literal set can differ from any clause the checker holds:
    // add_clause logs the as-given clause but stores a root-simplified
    // version, and preprocessed formulas are fed silently. Deriving the
    // stored set first (RUP from its parent plus root units, all of which
    // the checker replays) guarantees the deletion line always matches.
    if (!c.learned()) s_.proof_->derive(removed);
    s_.proof_->erase(removed);
  }
  s_.detach(cref);
  c.mark_deleted();
  s_.garbage_words_ += c.size() + 2;
}

std::uint32_t Inprocessor::replace_clause(std::uint32_t cref,
                                          const Clause& kept,
                                          std::vector<std::uint32_t>& list,
                                          bool learned, bool& unsat) {
  const std::uint32_t old_lbd = s_.view(cref).lbd();
  delete_clause(cref);
  if (kept.empty()) {
    s_.ok_ = false;
    if (s_.proof_) s_.proof_->derive({});
    unsat = true;
    return Solver::kNoClause;
  }
  if (kept.size() == 1) {
    // Collapsed to a root unit; the derive step is already in the trace.
    const LBool v = s_.value(kept[0]);
    if (v == LBool::kTrue) return Solver::kNoClause;
    if (v == LBool::kFalse || [&] {
          s_.enqueue(kept[0], Solver::kNoClause);
          return s_.propagate() != Solver::kNoClause;
        }()) {
      s_.ok_ = false;
      if (s_.proof_) s_.proof_->derive({});
      unsat = true;
    }
    return Solver::kNoClause;
  }
  // Install exactly the derived literals (so a future erase matches the
  // checker's database), but order undefined literals first: root
  // propagation during this pass may have falsified some of them, and
  // watches want the live ones.
  Clause ordered = kept;
  std::stable_partition(ordered.begin(), ordered.end(), [this](Lit l) {
    return s_.value(l) != LBool::kFalse;
  });
  if (s_.value(ordered[0]) == LBool::kFalse) {
    // Every literal is already root-false: the formula is refuted.
    s_.ok_ = false;
    if (s_.proof_) s_.proof_->derive({});
    unsat = true;
    return Solver::kNoClause;
  }
  if (s_.value(ordered[1]) == LBool::kFalse) {
    // Effectively unit under the root assignment: propagate instead of
    // installing a clause whose second watch is already dead.
    if (s_.value(ordered[0]) == LBool::kUndef) {
      s_.enqueue(ordered[0], Solver::kNoClause);
      if (s_.propagate() != Solver::kNoClause) {
        s_.ok_ = false;
        if (s_.proof_) s_.proof_->derive({});
        unsat = true;
      }
    }
    return Solver::kNoClause;
  }
  const std::uint32_t replacement = s_.alloc_clause(ordered, learned);
  auto nc = s_.view(replacement);
  if (learned) {
    const std::uint32_t size = static_cast<std::uint32_t>(ordered.size());
    nc.set_lbd(old_lbd > 0 ? std::min(old_lbd, size) : size);
  }
  list.push_back(replacement);
  s_.attach(replacement);
  return replacement;
}

// ---------------------------------------------------------------------------
// Vivification
// ---------------------------------------------------------------------------

bool Inprocessor::vivify_pass() {
  bool unsat = false;
  // Split the budget between learned and long problem clauses so a large
  // learned DB cannot starve the originals.
  auto sweep = [&](std::vector<std::uint32_t>& list, std::size_t& cursor,
                   bool learned, std::uint32_t budget) -> std::uint32_t {
    if (list.empty()) return budget;
    std::size_t attempts = list.size();
    while (budget > 0 && attempts-- > 0 && !unsat) {
      if (cursor >= list.size()) cursor = 0;
      const std::uint32_t cref = list[cursor++];
      const auto c = s_.view(cref);
      if (c.deleted()) continue;
      if (c.size() < 3 || c.size() > s_.ipc_.vivify_max_size) continue;
      if (is_reason_locked(cref)) continue;
      --budget;
      ++s_.ipc_stats_.vivify_checked;
      vivify_clause(cref, learned, unsat);
    }
    return budget;
  };
  const std::uint32_t total = s_.ipc_.vivify_budget;
  std::uint32_t left = sweep(s_.learned_clauses_, s_.ipc_viv_learned_cursor_,
                             /*learned=*/true, total - total / 2);
  left = sweep(s_.problem_clauses_, s_.ipc_viv_problem_cursor_,
               /*learned=*/false, total / 2 + left);
  if (left > 0 && !unsat) {
    sweep(s_.learned_clauses_, s_.ipc_viv_learned_cursor_, /*learned=*/true,
          left);
  }
  return !unsat;
}

void Inprocessor::vivify_clause(std::uint32_t cref, bool learned,
                                bool& unsat) {
  auto c = s_.view(cref);
  // Root filter: a root-true literal satisfies the clause forever; drop
  // it outright. Root-false literals are dropped from the clause.
  Clause lits;
  lits.reserve(c.size());
  bool satisfied = false;
  for (std::uint32_t i = 0; i < c.size() && !satisfied; ++i) {
    const Lit l = c.lit(i);
    const LBool v = s_.value(l);
    if (v == LBool::kTrue) satisfied = true;
    if (v == LBool::kUndef) lits.push_back(l);
  }
  if (satisfied) {
    delete_clause(cref);
    return;
  }
  bool shrunk = lits.size() < c.size();
  // Assume the negation of each surviving literal in turn. An implied or
  // conflicting step proves the kept prefix and truncates the clause;
  // literals falsified by the prefix are dropped (they cannot help).
  // Detach first so propagation cannot use the clause under inspection.
  s_.detach(cref);
  Clause kept;
  kept.reserve(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    const LBool v = s_.value(l);
    if (v == LBool::kTrue) {
      // The negated prefix implies l: prefix + l replaces the clause.
      kept.push_back(l);
      if (i + 1 < lits.size()) shrunk = true;
      break;
    }
    if (v == LBool::kFalse) {
      shrunk = true;
      continue;
    }
    kept.push_back(l);
    s_.new_decision_level();
    s_.enqueue(~l, Solver::kNoClause);
    if (s_.propagate() != Solver::kNoClause) {
      // The negated prefix is contradictory: the prefix is implied.
      if (i + 1 < lits.size()) shrunk = true;
      break;
    }
  }
  s_.cancel_until(0);
  if (!shrunk) {
    s_.attach(cref);
    return;
  }
  ++s_.ipc_stats_.vivified_clauses;
  s_.ipc_stats_.vivified_literals += c.size() - kept.size();
  // Derive the shrunken clause while the parent still sits in the
  // checker's database (the parent anchors the RUP check), then retire
  // the parent.
  if (s_.proof_) s_.proof_->derive(kept);
  replace_clause(cref, kept,
                 learned ? s_.learned_clauses_ : s_.problem_clauses_,
                 learned, unsat);
}

// ---------------------------------------------------------------------------
// Window subsumption
// ---------------------------------------------------------------------------

namespace {

/// One clause snapshotted into the subsumption window.
struct WindowEntry {
  std::uint32_t cref = 0;
  Clause lits;  // sorted by literal code
  std::uint64_t sig = 0;
  bool learned = false;
  bool dead = false;
};

}  // namespace

bool Inprocessor::subsume_pass() {
  // Snapshot a rotating window of live clauses (learned and problem
  // alike, so learned clauses subsume and strengthen originals too).
  const auto& learned = s_.learned_clauses_;
  const auto& problem = s_.problem_clauses_;
  const std::size_t nl = learned.size();
  const std::size_t total = nl + problem.size();
  if (total < 2) return true;
  std::vector<WindowEntry> window;
  window.reserve(std::min<std::size_t>(s_.ipc_.subsume_budget, total));
  std::size_t scanned = 0;
  for (; scanned < total && window.size() < s_.ipc_.subsume_budget;
       ++scanned) {
    const std::size_t pos = (s_.ipc_subsume_cursor_ + scanned) % total;
    const std::uint32_t cref = pos < nl ? learned[pos] : problem[pos - nl];
    const auto c = s_.view(cref);
    if (c.deleted() || c.size() > 64) continue;
    WindowEntry e;
    e.cref = cref;
    e.learned = pos < nl;
    e.lits.reserve(c.size());
    bool clean = true;
    for (std::uint32_t i = 0; i < c.size() && clean; ++i) {
      const Lit l = c.lit(i);
      clean = s_.value(l) == LBool::kUndef;
      e.lits.push_back(l);
    }
    // Root-touched clauses are vivification's job; keep the window free
    // of assigned literals so subset semantics stay textbook.
    if (!clean) continue;
    std::sort(e.lits.begin(), e.lits.end(),
              [](Lit a, Lit b) { return a.code < b.code; });
    e.sig = Preprocessor::signature(e.lits);
    window.push_back(std::move(e));
  }
  s_.ipc_subsume_cursor_ = (s_.ipc_subsume_cursor_ + scanned) % total;
  if (window.size() < 2) return true;

  // Occurrence index: (literal code, window index), sorted for range
  // lookup. Entries go stale as clauses shrink or die; every candidate
  // is re-checked against its current literals, so staleness only costs
  // wasted scans.
  std::vector<std::pair<std::int32_t, std::uint32_t>> occ;
  std::size_t occ_size = 0;
  for (const auto& e : window) occ_size += e.lits.size();
  occ.reserve(occ_size);
  for (std::uint32_t i = 0; i < window.size(); ++i) {
    for (const Lit l : window[i].lits) occ.emplace_back(l.code, i);
  }
  std::sort(occ.begin(), occ.end());
  const auto occ_range = [&occ](Lit l) {
    return std::equal_range(
        occ.begin(), occ.end(), std::make_pair(l.code, std::uint32_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
  };

  bool unsat = false;
  std::uint32_t steps = s_.ipc_.subsume_steps;
  for (std::uint32_t idx = 0; idx < window.size() && steps > 0 && !unsat;
       ++idx) {
    WindowEntry& e = window[idx];
    bool again = true;
    while (again && steps > 0 && !unsat && !e.dead) {
      again = false;
      if (is_reason_locked(e.cref)) break;
      for (std::size_t li = 0; li < e.lits.size() && !e.dead && !again;
           ++li) {
        const Lit l = e.lits[li];
        // Subsumers contain only literals of e, so scanning the
        // occurrence lists of e's own literals finds them all.
        auto [lo, hi] = occ_range(l);
        for (auto it = lo; it != hi && steps > 0; ++it) {
          const std::uint32_t di = it->second;
          if (di == idx) continue;
          const WindowEntry& d = window[di];
          if (d.dead || d.lits.size() > e.lits.size()) continue;
          if ((d.sig & ~e.sig) != 0) continue;
          --steps;
          ++s_.ipc_stats_.subsume_checked;
          if (!Preprocessor::subset_except(d.lits, e.lits, kLitUndef)) {
            continue;
          }
          delete_clause(e.cref);
          e.dead = true;
          ++s_.ipc_stats_.subsumed_clauses;
          break;
        }
        if (e.dead) break;
        // Self-subsumption: d contains ~l and d \ {~l} is a subset of e,
        // so resolving on l's variable strengthens e to e \ {l}.
        auto [flo, fhi] = occ_range(~l);
        for (auto it = flo; it != fhi && steps > 0; ++it) {
          const std::uint32_t di = it->second;
          if (di == idx) continue;
          const WindowEntry& d = window[di];
          if (d.dead || d.lits.size() > e.lits.size() + 1) continue;
          if ((d.sig & ~(e.sig | (1ull << (l.var() & 63)))) != 0) continue;
          if (std::find(d.lits.begin(), d.lits.end(), ~l) == d.lits.end()) {
            continue;  // stale occurrence entry
          }
          --steps;
          ++s_.ipc_stats_.subsume_checked;
          if (!Preprocessor::subset_except(d.lits, e.lits, ~l)) continue;
          Clause kept;
          kept.reserve(e.lits.size() - 1);
          for (const Lit k : e.lits) {
            if (k != l) kept.push_back(k);
          }
          if (s_.proof_) s_.proof_->derive(kept);
          const std::uint32_t replacement = replace_clause(
              e.cref, kept,
              e.learned ? s_.learned_clauses_ : s_.problem_clauses_,
              e.learned, unsat);
          ++s_.ipc_stats_.strengthened_clauses;
          if (replacement == Solver::kNoClause) {
            e.dead = true;  // collapsed to a unit (or refuted)
          } else {
            e.cref = replacement;
            e.lits = std::move(kept);  // still sorted
            e.sig = Preprocessor::signature(e.lits);
            again = true;
          }
          break;
        }
      }
    }
  }
  return !unsat;
}

// ---------------------------------------------------------------------------
// Failed-literal probing with hyper-binary resolution
// ---------------------------------------------------------------------------

bool Inprocessor::probe_pass() {
  // Highest-activity unassigned variables; frozen vars (attack-driven
  // assumption/key vars) are never probed.
  std::vector<Var> cands;
  cands.reserve(s_.heap_.size());
  for (const auto& entry : s_.heap_) {
    if (!s_.assigned(entry.var) && !s_.ipc_is_frozen(entry.var)) {
      cands.push_back(entry.var);
    }
  }
  const std::size_t k =
      std::min<std::size_t>(s_.ipc_.probe_budget, cands.size());
  std::partial_sort(cands.begin(), cands.begin() + k, cands.end(),
                    [this](Var a, Var b) {
                      return s_.activity_[a] > s_.activity_[b];
                    });
  cands.resize(k);
  std::uint32_t hbr_left = s_.ipc_.hbr_limit;
  std::vector<Lit> implied;
  for (const Var v : cands) {
    for (int pol = 0; pol < 2; ++pol) {
      const Lit l = Lit::make(v, pol == 1);
      // An earlier probe's root unit may have fixed this variable.
      if (s_.value(l) != LBool::kUndef) break;
      ++s_.ipc_stats_.probed_literals;
      const std::size_t trail_start = s_.trail_.size();
      s_.new_decision_level();
      s_.enqueue(l, Solver::kNoClause);
      if (s_.propagate() != Solver::kNoClause) {
        // Failed literal: ~l is a root unit (RUP -- the checker replays
        // this very propagation against a superset of our clauses).
        ++s_.ipc_stats_.failed_literals;
        s_.cancel_until(0);
        if (s_.proof_) s_.proof_->derive({~l});
        s_.enqueue(~l, Solver::kNoClause);
        if (s_.propagate() != Solver::kNoClause) {
          s_.ok_ = false;
          if (s_.proof_) s_.proof_->derive({});
          return false;
        }
        continue;
      }
      // Hyper-binary resolution: a literal x propagated through a reason
      // of >= 3 literals gives the binary (~l \/ x) -- one hop instead of
      // the whole chain next time.
      implied.clear();
      if (hbr_left > 0) {
        for (std::size_t t = trail_start + 1;
             t < s_.trail_.size() && implied.size() < hbr_left; ++t) {
          const Lit x = s_.trail_[t];
          const std::uint32_t r = s_.reason_[x.var()];
          if (r == Solver::kNoClause) continue;
          if (s_.view(r).size() < 3) continue;
          implied.push_back(x);
        }
      }
      s_.cancel_until(0);
      for (const Lit x : implied) {
        if (hbr_left == 0) break;
        if (binary_exists(~l, x)) continue;
        const Clause bin{~l, x};
        if (s_.proof_) s_.proof_->derive(bin);
        const std::uint32_t cref = s_.alloc_clause(bin, /*learned=*/true);
        s_.view(cref).set_lbd(2);
        s_.learned_clauses_.push_back(cref);
        s_.attach(cref);
        ++s_.ipc_stats_.hyper_binaries;
        --hbr_left;
      }
    }
  }
  return true;
}

}  // namespace ril::sat
