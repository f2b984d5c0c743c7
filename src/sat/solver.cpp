#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sat/proof.hpp"

namespace ril::sat {

namespace {
constexpr double kActivityRescale = 1e100;
}  // namespace

Solver::Solver() { arena_.reserve(1 << 16); }

void Solver::set_config(const SolverConfig& config) {
  config_ = config;
  max_learned_ = config.max_learned;
  // A zero xorshift state would be absorbing; mix the seed instead.
  rng_state_ = config.seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
}

void Solver::set_inprocess(const InprocessConfig& config) {
  ipc_ = config;
  ipc_next_conflicts_ = stats_.conflicts + config.interval_base;
}

void Solver::freeze_inprocess(Var v) {
  if (static_cast<std::size_t>(v) >= ipc_frozen_.size()) {
    ipc_frozen_.resize(static_cast<std::size_t>(v) + 1, false);
  }
  ipc_frozen_[v] = true;
}

void Solver::freeze_inprocess(const std::vector<Var>& vars) {
  for (Var v : vars) freeze_inprocess(v);
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(num_vars());
  values_.push_back(LBool::kUndef);
  values_.push_back(LBool::kUndef);
  model_.push_back(LBool::kUndef);
  level_.push_back(0);
  reason_.push_back(kNoClause);
  activity_.push_back(0.0);
  heap_index_.push_back(-1);
  polarity_.push_back(config_.init_phase_true);
  seen_.push_back(false);
  lbd_stamp_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

void Solver::ensure_var(Var v) {
  while (static_cast<Var>(num_vars()) <= v) new_var();
}

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> lits,
                                       bool learned) {
  const ClauseRef cref = static_cast<ClauseRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 2) |
                   (learned ? 2u : 0u));
  arena_.push_back(0);  // lbd
  for (Lit l : lits) {
    arena_.push_back(static_cast<std::uint32_t>(l.code));
  }
  return cref;
}

void Solver::attach(ClauseRef cref) {
  ClauseView c = view(cref);
  assert(c.size() >= 2);
  watches_[(~c.lit(0)).code].push_back({cref, c.lit(1)});
  watches_[(~c.lit(1)).code].push_back({cref, c.lit(0)});
}

void Solver::detach(ClauseRef cref) {
  ClauseView c = view(cref);
  for (int i = 0; i < 2; ++i) {
    auto& list = watches_[(~c.lit(i)).code];
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (list[j].cref == cref) {
        list[j] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(Clause lits) {
  const auto end = static_cast<std::uint32_t>(lits.size());
  return insert_clauses(lits, {&end, 1});
}

bool Solver::add_clauses(const ClauseBatch& batch) {
  return insert_clauses(batch.lits, batch.ends);
}

bool Solver::insert_clauses(std::span<const Lit> lits,
                            std::span<const std::uint32_t> ends) {
  assert(decision_level() == 0);
  Clause& c = insert_buffer_;
  std::uint32_t begin = 0;
  for (const std::uint32_t end : ends) {
    if (!ok_) break;
    c.assign(lits.begin() + begin, lits.begin() + end);
    begin = end;
    // The as-given clause is an axiom of the trace; the checker replays
    // the same root simplification through its own unit propagation.
    if (proof_) proof_->original(c);
    // Root-level simplification, in place: sort, dedup, drop false
    // literals, detect tautologies and satisfied clauses.
    std::sort(c.begin(), c.end(),
              [](Lit a, Lit b) { return a.code < b.code; });
    std::size_t size = 0;
    bool satisfied = false;
    Lit prev = kLitUndef;
    for (const Lit l : c) {
      if (l.var() >= static_cast<Var>(num_vars())) ensure_var(l.var());
      if (value(l) == LBool::kTrue || l == ~prev) {  // satisfied/taut
        satisfied = true;
        break;
      }
      if (value(l) == LBool::kFalse || l == prev) continue;  // drop
      c[size++] = l;
      prev = l;
    }
    if (satisfied) continue;
    ++n_problem_clauses_;
    if (size >= 2) {
      const ClauseRef cref = alloc_clause({c.data(), size}, /*learned=*/false);
      problem_clauses_.push_back(cref);
      pending_attach_.push_back(cref);
      continue;
    }
    // A unit propagates through exactly the clauses stored before it.
    flush_attaches();
    if (size == 1) {
      enqueue(c[0], kNoClause);
      ok_ = (propagate() == kNoClause);
    } else {
      ok_ = false;
    }
    if (!ok_ && proof_) proof_->derive({});
  }
  flush_attaches();
  return ends.empty() || ok_;
}

void Solver::flush_attaches() {
  if (pending_attach_.empty()) return;
  // Reserve each touched list once, geometrically: an exact reserve would
  // re-copy a list on every batch that touches it.
  if (watch_growth_.size() < watches_.size()) {
    watch_growth_.resize(watches_.size(), 0);
  }
  for (const ClauseRef cref : pending_attach_) {
    const ClauseView c = view(cref);
    ++watch_growth_[(~c.lit(0)).code];
    ++watch_growth_[(~c.lit(1)).code];
  }
  for (const ClauseRef cref : pending_attach_) {
    const ClauseView c = view(cref);
    for (int i = 0; i < 2; ++i) {
      const std::int32_t code = (~c.lit(i)).code;
      if (watch_growth_[code] == 0) continue;
      auto& list = watches_[code];
      const std::size_t need = list.size() + watch_growth_[code];
      if (need > list.capacity()) {
        list.reserve(std::max(need, 2 * list.capacity()));
      }
      watch_growth_[code] = 0;
    }
  }
  for (const ClauseRef cref : pending_attach_) attach(cref);
  pending_attach_.clear();
}

bool Solver::verify_model(const std::vector<Lit>& assumptions) const {
  // Replays the last model against the stored problem clauses. Clauses
  // dropped at add_clause time were satisfied by root-level assignments,
  // which the model snapshot includes, so checking the stored set plus
  // the assumptions covers the full formula.
  auto model_true = [this](Lit l) {
    if (l.var() >= static_cast<Var>(model_.size())) return false;
    const LBool v = model_[l.var()];
    return (l.sign() ? negate(v) : v) == LBool::kTrue;
  };
  for (Lit a : assumptions) {
    if (!model_true(a)) return false;
  }
  for (const ClauseRef cref : problem_clauses_) {
    const ClauseView c = ClauseView{
        const_cast<std::uint32_t*>(arena_.data()) + cref};
    if (c.deleted()) continue;
    bool satisfied = false;
    for (std::uint32_t i = 0; i < c.size() && !satisfied; ++i) {
      satisfied = model_true(c.lit(i));
    }
    if (!satisfied) return false;
  }
  return true;
}

Solver::ClauseRef Solver::propagate() {
  // Neither array grows while propagating: enqueue() only writes values_,
  // and a moved watch is pushed onto another literal's list.
  const LBool* const vals = values_.data();
  std::uint32_t* const arena = arena_.data();
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    std::vector<Watcher>& list = watches_[p.code];
    Watcher* read = list.data();
    Watcher* keep = read;
    Watcher* const end = read + list.size();
    const std::uint32_t not_p = static_cast<std::uint32_t>((~p).code);
    while (read != end) {
      const Watcher w = *read++;
      if (vals[w.blocker.code] == LBool::kTrue) {
        *keep++ = w;
        continue;
      }
      // Literal codes of the clause; normalize the false literal (~p) to
      // position 1.
      std::uint32_t* const lits = arena + w.cref + 2;
      if (lits[0] == not_p) {
        lits[0] = lits[1];
        lits[1] = not_p;
      }
      assert(lits[1] == not_p);
      const Lit first = lit_from_code(static_cast<std::int32_t>(lits[0]));
      if (first != w.blocker && vals[first.code] == LBool::kTrue) {
        *keep++ = {w.cref, first};
        continue;
      }
      // Look for a replacement watch.
      const std::uint32_t size = arena[w.cref] >> 2;
      std::uint32_t k = 2;
      while (k < size && vals[lits[k]] == LBool::kFalse) ++k;
      if (k < size) {
        lits[1] = lits[k];
        lits[k] = not_p;
        watches_[lits[1] ^ 1].push_back({w.cref, first});
        continue;
      }
      // Clause is unit or conflicting.
      *keep++ = {w.cref, first};
      if (vals[first.code] == LBool::kFalse) {
        propagate_head_ = trail_.size();
        // Keep the remaining watchers.
        while (read != end) *keep++ = *read++;
        list.resize(static_cast<std::size_t>(keep - list.data()));
        return w.cref;
      }
      enqueue(first, w.cref);
    }
    list.resize(static_cast<std::size_t>(keep - list.data()));
  }
  return kNoClause;
}

void Solver::cancel_until(int target_level) {
  if (decision_level() <= target_level) return;
  const std::uint32_t bound = trail_limits_[target_level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const Lit l = trail_[i];
    const Var v = l.var();
    polarity_[v] = !l.sign();  // l is the true literal of v
    values_[l.code] = LBool::kUndef;
    values_[l.code ^ 1] = LBool::kUndef;
    reason_[v] = kNoClause;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(bound);
  trail_limits_.resize(target_level);
  propagate_head_ = trail_.size();
}

void Solver::analyze(ClauseRef conflict, Clause& out_learned, int& out_level,
                     std::uint32_t& out_lbd) {
  out_learned.clear();
  out_learned.push_back(kLitUndef);  // slot for the asserting literal
  int path_count = 0;
  Lit p = kLitUndef;
  std::size_t index = trail_.size();

  ClauseRef cref = conflict;
  do {
    assert(cref != kNoClause);
    ClauseView c = view(cref);
    if (c.learned()) clause_bump(c);
    for (std::uint32_t j = (p == kLitUndef) ? 0 : 1; j < c.size(); ++j) {
      const Lit q = c.lit(j);
      const Var v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        var_bump(v);
        seen_[v] = true;
        analyze_to_clear_.push_back(q);
        if (level_[v] >= decision_level()) {
          ++path_count;
        } else {
          out_learned.push_back(q);
        }
      }
    }
    while (!seen_[trail_[index - 1].var()]) --index;
    --index;
    p = trail_[index];
    cref = reason_[p.var()];
    seen_[p.var()] = false;
    --path_count;
  } while (path_count > 0);
  out_learned[0] = ~p;

  // Recursive minimization.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learned.size(); ++i) {
    abstract_levels |= 1u << (level_[out_learned[i].var()] & 31);
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < out_learned.size(); ++i) {
    const Lit l = out_learned[i];
    if (reason_[l.var()] == kNoClause ||
        !literal_redundant(l, abstract_levels)) {
      out_learned[kept++] = l;
    } else {
      ++stats_.minimized_literals;
    }
  }
  out_learned.resize(kept);

  // Find backtrack level and move that literal to slot 1.
  if (out_learned.size() == 1) {
    out_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learned.size(); ++i) {
      if (level_[out_learned[i].var()] > level_[out_learned[max_i].var()]) {
        max_i = i;
      }
    }
    std::swap(out_learned[1], out_learned[max_i]);
    out_level = level_[out_learned[1].var()];
  }

  // LBD = number of distinct decision levels in the learned clause.
  ++lbd_stamp_counter_;
  out_lbd = 0;
  for (Lit l : out_learned) {
    const int lvl = level_[l.var()];
    if (lvl > 0 &&
        lbd_stamp_[static_cast<std::size_t>(lvl) % lbd_stamp_.size()] !=
            lbd_stamp_counter_) {
      lbd_stamp_[static_cast<std::size_t>(lvl) % lbd_stamp_.size()] =
          lbd_stamp_counter_;
      ++out_lbd;
    }
  }

  for (Lit l : analyze_to_clear_) seen_[l.var()] = false;
  analyze_to_clear_.clear();
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_to_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit current = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(reason_[current.var()] != kNoClause);
    ClauseView c = view(reason_[current.var()]);
    for (std::uint32_t i = 1; i < c.size(); ++i) {
      const Lit p = c.lit(i);
      const Var v = p.var();
      if (!seen_[v] && level_[v] > 0) {
        if (reason_[v] != kNoClause &&
            ((1u << (level_[v] & 31)) & abstract_levels) != 0) {
          seen_[v] = true;
          analyze_stack_.push_back(p);
          analyze_to_clear_.push_back(p);
        } else {
          for (std::size_t j = top; j < analyze_to_clear_.size(); ++j) {
            seen_[analyze_to_clear_[j].var()] = false;
          }
          analyze_to_clear_.resize(top);
          return false;
        }
      }
    }
  }
  return true;
}

void Solver::emit_assumption_core(ClauseRef conflict, Lit failed) {
  if (!proof_) return;
  Clause out;
  std::size_t pending = 0;
  const auto mark = [&](Lit l) {
    const Var v = l.var();
    if (level_[v] > 0 && !seen_[v]) {
      seen_[v] = true;
      ++pending;
    }
  };
  if (conflict != kNoClause) {
    ClauseView c = view(conflict);
    for (std::uint32_t i = 0; i < c.size(); ++i) mark(c.lit(i));
  } else {
    out.push_back(~failed);
    mark(failed);
  }
  // Every marked variable is assigned above level 0, so it sits on the
  // trail at or past the first decision mark; walk top-down, swapping
  // marks for either an assumption (pseudo-decisions are the only
  // decisions at these levels) or the antecedent's literals.
  const std::size_t bottom =
      trail_limits_.empty() ? trail_.size() : trail_limits_[0];
  for (std::size_t i = trail_.size(); pending > 0 && i-- > bottom;) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    seen_[v] = false;
    --pending;
    const ClauseRef r = reason_[v];
    if (r == kNoClause) {
      out.push_back(~trail_[i]);
    } else {
      ClauseView c = view(r);
      for (std::uint32_t k = 0; k < c.size(); ++k) {
        if (c.lit(k).var() != v) mark(c.lit(k));
      }
    }
  }
  // An empty core would read as a refutation of the formula itself;
  // structurally unreachable (the conflict involves some assumption),
  // but never emit it.
  if (!out.empty()) proof_->derive(out);
}

void Solver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kActivityRescale) {
    for (double& a : activity_) a *= 1.0 / kActivityRescale;
    for (HeapEntry& e : heap_) e.activity *= 1.0 / kActivityRescale;
    var_inc_ *= 1.0 / kActivityRescale;
  }
  if (heap_contains(v)) {
    const auto slot = static_cast<std::size_t>(heap_index_[v]);
    heap_[slot].activity = activity_[v];
    heap_up(slot);
  }
}

void Solver::var_decay() { var_inc_ *= 1.0 / config_.var_decay; }

void Solver::clause_bump(ClauseView c) {
  // LBD refresh: recompute is costly; we just age via a small decrement.
  if (c.lbd() > 2) c.set_lbd(c.lbd() - 1);
}

void Solver::heap_insert(Var v) {
  heap_index_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back({activity_[v], v});
  heap_up(heap_.size() - 1);
}

Var Solver::heap_pop() {
  const Var top = heap_[0].var;
  heap_index_[top] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_index_[heap_[0].var] = 0;
    heap_.pop_back();
    heap_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void Solver::heap_up(std::size_t idx) {
  HeapEntry* const heap = heap_.data();
  const HeapEntry e = heap[idx];
  while (idx > 0) {
    const std::size_t parent = (idx - 1) / 2;
    if (heap[parent].activity >= e.activity) break;
    heap[idx] = heap[parent];
    heap_index_[heap[idx].var] = static_cast<std::int32_t>(idx);
    idx = parent;
  }
  heap[idx] = e;
  heap_index_[e.var] = static_cast<std::int32_t>(idx);
}

void Solver::heap_down(std::size_t idx) {
  HeapEntry* const heap = heap_.data();
  const std::size_t size = heap_.size();
  const HeapEntry e = heap[idx];
  while (true) {
    const std::size_t left = 2 * idx + 1;
    if (left >= size) break;
    const std::size_t right = left + 1;
    const std::size_t best =
        (right < size && heap[right].activity > heap[left].activity) ? right
                                                                     : left;
    if (heap[best].activity <= e.activity) break;
    heap[idx] = heap[best];
    heap_index_[heap[idx].var] = static_cast<std::int32_t>(idx);
    idx = best;
  }
  heap[idx] = e;
  heap_index_[e.var] = static_cast<std::int32_t>(idx);
}

Lit Solver::pick_branch_literal() {
  Var v = kNoVar;
  // Diversification: occasionally branch on a random heap entry instead of
  // the VSIDS maximum. The entry stays in the heap; later pops skip it
  // while it is assigned, and backtracking re-inserts only if absent.
  if (config_.random_branch_freq > 0 && !heap_.empty() &&
      random_chance(config_.random_branch_freq)) {
    const Var candidate = heap_[next_random() % heap_.size()].var;
    if (!assigned(candidate)) {
      v = candidate;
      ++stats_.random_decisions;
    }
  }
  while (v == kNoVar && !heap_.empty()) {
    const Var top = heap_pop();
    if (!assigned(top)) v = top;
  }
  if (v == kNoVar) return kLitUndef;
  bool phase = polarity_[v] != 0;
  if (config_.random_polarity_freq > 0 &&
      random_chance(config_.random_polarity_freq)) {
    phase = next_random() & 1;
  }
  return Lit::make(v, !phase);
}

std::uint64_t Solver::next_random() {
  // xorshift64* (Marsaglia / Vigna).
  std::uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return x * 0x2545f4914f6cdd1dull;
}

bool Solver::random_chance(double freq) {
  return static_cast<double>(next_random() >> 11) *
             (1.0 / 9007199254740992.0) <
         freq;
}

void Solver::reduce_learned_db() {
  // Keep the better half by (low LBD, then recency implied by order). The
  // list is sorted and compacted in place: a kept clause moves to a slot
  // at or before its own.
  std::stable_sort(learned_clauses_.begin(), learned_clauses_.end(),
                   [this](ClauseRef a, ClauseRef b) {
                     return view(a).lbd() < view(b).lbd();
                   });
  const std::size_t keep_target = learned_clauses_.size() / 2;
  std::size_t kept = 0;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < learned_clauses_.size(); ++i) {
    const ClauseRef cref = learned_clauses_[i];
    ClauseView c = view(cref);
    // Inprocessing deletes learned clauses without pruning this list;
    // re-erasing one here would double-delete it in the proof trace.
    if (c.deleted()) continue;
    // A clause is locked if it is the reason of its first literal.
    const Lit l0 = c.lit(0);
    const bool is_reason =
        reason_[l0.var()] == cref && value(l0) != LBool::kUndef;
    if (i < keep_target || is_reason || c.lbd() <= 2 || c.size() <= 2) {
      learned_clauses_[kept++] = cref;
    } else {
      if (proof_) {
        proof_lits_.clear();
        for (std::uint32_t j = 0; j < c.size(); ++j) {
          proof_lits_.push_back(c.lit(j));
        }
        proof_->erase(proof_lits_);
      }
      detach(cref);
      c.mark_deleted();
      garbage_words_ += c.size() + 2;
      ++removed;
    }
  }
  learned_clauses_.resize(kept);
  stats_.removed_clauses += removed;
}

void Solver::garbage_collect() {
  assert(decision_level() == 0);
  // Level-0 reasons may name deleted clauses; those lose their reason.
  // Every other reason is forwarded below through its old slot.
  for (const Lit l : trail_) {
    ClauseRef& reason = reason_[l.var()];
    if (reason != kNoClause && view(reason).deleted()) reason = kNoClause;
  }
  std::vector<std::uint32_t> fresh;
  fresh.reserve(arena_.size() - garbage_words_);
  // Copies each live clause of `list` (literal order kept, so watch
  // positions survive) and rewrites `list` to the new refs in place.
  const auto relocate = [&](std::vector<ClauseRef>& list) {
    std::size_t live = 0;
    for (const ClauseRef cref : list) {
      const ClauseView c = view(cref);
      if (c.deleted()) continue;
      const auto moved = static_cast<ClauseRef>(fresh.size());
      fresh.insert(fresh.end(), c.raw, c.raw + c.size() + 2);
      c.raw[1] = moved;  // forwarding ref in the old lbd word
      list[live++] = moved;
    }
    list.resize(live);
  };
  relocate(problem_clauses_);
  relocate(learned_clauses_);
  for (const Lit l : trail_) {
    ClauseRef& reason = reason_[l.var()];
    if (reason != kNoClause) reason = arena_[reason + 1];
  }
  arena_ = std::move(fresh);
  garbage_words_ = 0;
  // Rebuild the watch lists.
  for (auto& list : watches_) list.clear();
  for (ClauseRef cref : problem_clauses_) attach(cref);
  for (ClauseRef cref : learned_clauses_) attach(cref);
}

bool Solver::time_exhausted() {
  if (limits_.time_limit_seconds <= 0) return false;
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - solve_start_).count();
  return elapsed >= limits_.time_limit_seconds;
}

bool Solver::should_stop() {
  if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
    cancelled_ = true;
    return true;
  }
  return time_exhausted();
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // Knuth's formulation of the Luby sequence (1-indexed).
  std::uint64_t k = 1;
  while ((std::uint64_t{1} << (k + 1)) <= i + 2) ++k;
  while (true) {
    if (i + 2 == (std::uint64_t{1} << k)) {
      return std::uint64_t{1} << (k - 1);
    }
    if (i + 2 < (std::uint64_t{1} << k)) {
      --k;
      continue;
    }
    i -= (std::uint64_t{1} << k) - 1;
    k = 1;
    while ((std::uint64_t{1} << (k + 1)) <= i + 2) ++k;
  }
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  limit_fired_ = false;
  cancelled_ = false;
  if (!ok_) return Result::kUnsat;
  if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
    cancelled_ = true;
    limit_fired_ = true;
    return Result::kUnknown;
  }
  for (Lit a : assumptions) ensure_var(a.var());

  solve_start_ = std::chrono::steady_clock::now();
  conflicts_at_solve_start_ = stats_.conflicts;
  std::uint64_t restart_index = 0;
  std::uint64_t conflicts_until_restart = luby(0) * config_.restart_base;
  std::uint64_t conflicts_this_restart = 0;
  time_check_countdown_ = 1024;

  Clause learned;
  const auto assumption_count = static_cast<int>(assumptions.size());

  while (true) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (decision_level() == 0) {
        ok_ = false;
        if (proof_) proof_->derive({});
        cancel_until(0);
        return Result::kUnsat;
      }
      if (decision_level() <= assumption_count) {
        // Conflict entirely under assumptions: UNSAT under assumptions.
        // The verdict is relative to the assumptions, not a refutation of
        // the formula, so instead of the empty clause we derive the
        // failed-assumption core -- the clause of negated assumptions this
        // conflict follows from -- which closes the certificate for this
        // solve while leaving the trace extendable.
        emit_assumption_core(conflict, kLitUndef);
        cancel_until(0);
        return Result::kUnsat;
      }
      int backtrack_level = 0;
      std::uint32_t lbd = 0;
      analyze(conflict, learned, backtrack_level, lbd);
      // The 1-UIP clause (after minimization) is RUP by construction.
      if (proof_) proof_->derive(learned);
      // Never undo assumption decisions on learning.
      cancel_until(std::max(backtrack_level, 0));
      if (learned.size() == 1) {
        if (decision_level() > 0 && value(learned[0]) == LBool::kUndef) {
          enqueue(learned[0], kNoClause);
        } else if (decision_level() == 0) {
          if (value(learned[0]) == LBool::kFalse) {
            ok_ = false;
            if (proof_) proof_->derive({});
            return Result::kUnsat;
          }
          if (value(learned[0]) == LBool::kUndef) {
            enqueue(learned[0], kNoClause);
          }
        }
      } else {
        const ClauseRef cref = alloc_clause(learned, /*learned=*/true);
        view(cref).set_lbd(lbd);
        learned_clauses_.push_back(cref);
        attach(cref);
        enqueue(learned[0], cref);
      }
      stats_.learned_clauses += 1;
      stats_.learned_literals += learned.size();
      var_decay();

      if (limits_.conflict_limit != 0 &&
          stats_.conflicts - conflicts_at_solve_start_ >=
              limits_.conflict_limit) {
        limit_fired_ = true;
        cancel_until(0);
        return Result::kUnknown;
      }
      if (--time_check_countdown_ == 0) {
        time_check_countdown_ = 1024;
        if (should_stop()) {
          limit_fired_ = true;
          cancel_until(0);
          return Result::kUnknown;
        }
      }
      continue;
    }

    // Restart?
    if (conflicts_this_restart >= conflicts_until_restart) {
      ++stats_.restarts;
      ++restart_index;
      conflicts_until_restart = luby(restart_index) * config_.restart_base;
      conflicts_this_restart = 0;
      cancel_until(0);
      if (learned_clauses_.size() > max_learned_) {
        reduce_learned_db();
        max_learned_ = max_learned_ + max_learned_ / 10;
      }
      if (garbage_words_ > arena_.size() / 2 && garbage_words_ > (1u << 16)) {
        garbage_collect();
      }
      // Bounded inprocessing pass once enough conflicts accumulated. The
      // threshold spans solve() calls, but a pass additionally requires
      // the *current* solve to have contributed its share of conflicts --
      // without the gate, an attack issuing hundreds of cheap incremental
      // solves crosses every cumulative interval and eats perturbation it
      // can never amortize. Runs at level 0, before assumptions are
      // re-established, so every derivation is formula-implied.
      const std::uint64_t solve_gate =
          ipc_.solve_gate_divisor == 0
              ? 0
              : ipc_.interval_base / ipc_.solve_gate_divisor;
      if (ipc_.enabled && stats_.conflicts >= ipc_next_conflicts_ &&
          stats_.conflicts - conflicts_at_solve_start_ >= solve_gate) {
        const std::uint64_t yield_before =
            ipc_stats_.vivified_clauses + ipc_stats_.subsumed_clauses +
            ipc_stats_.strengthened_clauses + ipc_stats_.failed_literals +
            ipc_stats_.hyper_binaries;
        Inprocessor inprocessor(*this);
        if (!inprocessor.run()) {
          // The pass derived the empty clause; ok_ is already false.
          return Result::kUnsat;
        }
        const std::uint64_t yield_after =
            ipc_stats_.vivified_clauses + ipc_stats_.subsumed_clauses +
            ipc_stats_.strengthened_clauses + ipc_stats_.failed_literals +
            ipc_stats_.hyper_binaries;
        // A pass that derived nothing doubles the spacing (up to the cap);
        // any yield snaps the cadence back to the base schedule.
        ipc_backoff_ = yield_after == yield_before
                           ? std::min(ipc_backoff_ * 2,
                                      std::max<std::uint64_t>(
                                          ipc_.stale_backoff_max, 1))
                           : 1;
        ipc_next_conflicts_ =
            stats_.conflicts +
            (ipc_.interval_base + ipc_stats_.passes * ipc_.interval_growth) *
                ipc_backoff_;
      }
      continue;
    }

    // Periodic stop check on long conflict-free stretches.
    if (--time_check_countdown_ == 0) {
      time_check_countdown_ = 1024;
      if (should_stop()) {
        limit_fired_ = true;
        cancel_until(0);
        return Result::kUnknown;
      }
    }

    // Establish assumptions as pseudo-decisions.
    Lit next = kLitUndef;
    while (decision_level() < assumption_count) {
      const Lit a = assumptions[decision_level()];
      if (value(a) == LBool::kTrue) {
        new_decision_level();  // dummy level keeps indices aligned
      } else if (value(a) == LBool::kFalse) {
        // The assumption is already falsified by propagation from the
        // ones established so far; derive the responsible core.
        emit_assumption_core(kNoClause, a);
        cancel_until(0);
        return Result::kUnsat;
      } else {
        next = a;
        break;
      }
    }

    if (next == kLitUndef) {
      next = pick_branch_literal();
      if (next == kLitUndef) {
        // All variables assigned: SAT.
        for (std::size_t v = 0; v < model_.size(); ++v) {
          model_[v] = values_[2 * v];
        }
        cancel_until(0);
        return Result::kSat;
      }
      ++stats_.decisions;
    }
    new_decision_level();
    enqueue(next, kNoClause);
  }
}

}  // namespace ril::sat
