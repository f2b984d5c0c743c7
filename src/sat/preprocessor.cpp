#include "sat/preprocessor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace ril::sat {

namespace {

bool lit_less(Lit a, Lit b) { return a.code < b.code; }

/// Resolution outcome for one (C \/ v, D \/ ~v) pair.
enum class ResolveStatus { kOk, kTautology, kTooWide };

/// Merges two sorted clauses, dropping both literals of `pivot`, and
/// hands each kept literal to `keep`. Duplicate literals collapse;
/// opposite literals of any other variable make the resolvent a
/// tautology. `size` is the resolvent's size (valid for kOk).
template <typename Keep>
ResolveStatus merge(std::span<const Lit> a, std::span<const Lit> b, Var pivot,
                    std::size_t width_limit, std::size_t& size, Keep keep) {
  size = 0;
  std::int32_t last = -1;  // code of the last kept literal
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    Lit next;
    if (j >= b.size() || (i < a.size() && a[i].code <= b[j].code)) {
      next = a[i++];
    } else {
      next = b[j++];
    }
    if (next.var() == pivot || next.code == last) continue;
    if (size > 0 && next.code == (last ^ 1)) return ResolveStatus::kTautology;
    last = next.code;
    keep(next);
    if (++size > width_limit) return ResolveStatus::kTooWide;
  }
  return ResolveStatus::kOk;
}

/// Frees a container's storage (clear() keeps the capacity).
template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

Preprocessor::Preprocessor(PreprocessConfig config)
    : config_(config) {}

std::uint64_t Preprocessor::signature(std::span<const Lit> lits) {
  std::uint64_t sig = 0;
  for (const Lit l : lits) sig |= 1ull << (l.var() & 63);
  return sig;
}

Var Preprocessor::new_var() {
  const Var v = static_cast<Var>(frozen_.size());
  ensure_var(v);
  return v;
}

void Preprocessor::ensure_var(Var v) {
  if (v < 0) throw std::invalid_argument("Preprocessor: negative variable");
  if (static_cast<std::size_t>(v) < frozen_.size()) return;
  frozen_.resize(v + 1, false);
  eliminated_.resize(v + 1, false);
}

void Preprocessor::freeze(Var v) {
  ensure_var(v);
  frozen_[v] = true;
}

void Preprocessor::freeze(const std::vector<Var>& vars) {
  for (const Var v : vars) freeze(v);
}

void Preprocessor::set_contradiction() {
  contradiction_ = true;
  if (!proof_.closed) record_step(ProofStepKind::kDerive, {});
}

void Preprocessor::record_step(ProofStepKind kind,
                               std::span<const Lit> lits) {
  if (!proof_enabled_) return;
  proof_.clauses.lits.insert(proof_.clauses.lits.end(), lits.begin(),
                             lits.end());
  proof_.clauses.seal();
  proof_.kinds.push_back(kind);
  proof_.closed = proof_.closed ||
                  (kind == ProofStepKind::kDerive && lits.empty());
}

bool Preprocessor::add_clause(Clause lits) { return stage_clause(lits); }

bool Preprocessor::add_clauses(const ClauseBatch& batch) {
  bool ok = true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!stage_clause(batch.clause(i))) ok = false;
  }
  return ok;
}

bool Preprocessor::stage_clause(std::span<const Lit> lits) {
  if (ran_) {
    throw std::logic_error("Preprocessor::add_clause after run()");
  }
  for (const Lit l : lits) ensure_var(l.var());
  originals_.lits.insert(originals_.lits.end(), lits.begin(), lits.end());
  originals_.seal();
  if (contradiction_) return false;
  return stage_entry(lits);
}

bool Preprocessor::stage_entry(std::span<const Lit> in) {
  const std::size_t offset = lits_.size();
  if (offset + in.size() > UINT32_MAX) {
    throw std::length_error("Preprocessor: more than 2^32 staged literals");
  }
  lits_.insert(lits_.end(), in.begin(), in.end());
  const auto first = lits_.begin() + static_cast<std::ptrdiff_t>(offset);
  // Resolvents and strengthened clauses arrive strictly sorted already.
  const auto unsorted = [](Lit a, Lit b) { return a.code >= b.code; };
  if (std::adjacent_find(first, lits_.end(), unsorted) != lits_.end()) {
    std::sort(first, lits_.end(), lit_less);
    lits_.erase(std::unique(first, lits_.end()), lits_.end());
  }
  for (std::size_t i = offset + 1; i < lits_.size(); ++i) {
    if (lits_[i].code == (lits_[i - 1].code ^ 1)) {  // tautology
      lits_.resize(offset);
      return true;
    }
  }
  if (lits_.size() == offset) {
    set_contradiction();
    return false;
  }
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  Entry entry;
  entry.offset = static_cast<std::uint32_t>(offset);
  entry.size = static_cast<std::uint32_t>(lits_.size() - offset);
  entries_.push_back(entry);
  const std::span<const Lit> staged = lits(idx);
  entries_.back().sig = signature(staged);
  live_literals_ += staged.size();
  if (!ran_) return true;  // build_occurrences() indexes it
  const Occ occ{idx, lit_signature(staged)};
  for (const Lit l : staged) occ_push(l, occ);
  touch(staged);
  queue_.push_back(idx);
  return true;
}

void Preprocessor::build_occurrences() {
  occ_.assign(2 * frozen_.size(), OccList{});
  for (const Lit l : lits_) ++occ_[l.code].capacity;
  // Room to grow: resolvents and strengthened clauses add occurrences.
  std::size_t total = 0;
  for (OccList& list : occ_) {
    list.capacity += list.capacity / 2 + 2;
    list.offset = static_cast<std::uint32_t>(total);
    total += list.capacity;
    if (total > UINT32_MAX) {
      throw std::length_error("Preprocessor: occurrence pool exceeds 2^32");
    }
  }
  occ_pool_.resize(total);
  // Entry order within each list matches one push per staged clause.
  for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) {
    const Occ occ{idx, lit_signature(lits(idx))};
    for (const Lit l : lits(idx)) {
      OccList& list = occ_[l.code];
      occ_pool_[list.offset + list.size++] = occ;
    }
  }
  // Popped from the back: newest entry first, as if queued at staging.
  queue_.resize(entries_.size());
  for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) queue_[idx] = idx;
  retry_.assign(frozen_.size(), true);
}

void Preprocessor::occ_push(Lit l, Occ occ) {
  OccList& list = occ_[l.code];
  if (list.size == list.capacity) {
    const std::size_t at = occ_pool_.size();
    const std::uint32_t capacity = 2 * list.capacity + 2;
    if (at + capacity > UINT32_MAX) {
      throw std::length_error("Preprocessor: occurrence pool exceeds 2^32");
    }
    occ_pool_.resize(at + capacity);
    std::copy_n(occ_pool_.begin() + list.offset, list.size,
                occ_pool_.begin() + static_cast<std::ptrdiff_t>(at));
    list.offset = static_cast<std::uint32_t>(at);
    list.capacity = capacity;
  }
  occ_pool_[list.offset + list.size++] = occ;
}

void Preprocessor::touch(std::span<const Lit> lits) {
  for (const Lit l : lits) retry_[l.var()] = true;
}

void Preprocessor::occ_remove(Lit l, std::uint32_t idx) {
  OccList& list = occ_[l.code];
  Occ* const occ = occ_pool_.data() + list.offset;
  for (std::uint32_t i = 0; i < list.size; ++i) {
    if (occ[i].idx == idx) {
      occ[i] = occ[--list.size];
      return;
    }
  }
}

void Preprocessor::delete_entry(std::uint32_t idx) {
  Entry& entry = entries_[idx];
  if (entry.deleted) return;
  entry.deleted = 1;
  live_literals_ -= entry.size;
  const std::span<const Lit> removed = lits(idx);
  for (const Lit l : removed) occ_remove(l, idx);
  touch(removed);
}

bool Preprocessor::subset_except(std::span<const Lit> small,
                                 std::span<const Lit> big, Lit skip) {
  std::size_t j = 0;
  for (const Lit l : small) {
    if (l == skip) continue;
    while (j < big.size() && big[j].code < l.code) ++j;
    if (j >= big.size() || big[j] != l) return false;
    ++j;
  }
  return true;
}

bool Preprocessor::subsume_round() {
  bool changed = false;
  while (!queue_.empty() && !contradiction_) {
    const std::uint32_t idx = queue_.back();
    queue_.pop_back();
    if (entries_[idx].deleted) continue;
    if (process_subsumption(idx)) changed = true;
  }
  return changed;
}

bool Preprocessor::process_subsumption(std::uint32_t idx) {
  bool changed = false;
  // Snapshot: staging a strengthened clause below grows (and may move)
  // the arena.
  pivot_.assign(lits(idx).begin(), lits(idx).end());
  const std::span<const Lit> c = pivot_;
  const std::uint64_t c_sig = entries_[idx].sig;
  const std::uint32_t c_lit_sig = lit_signature(c);
  // Each loop walks a live occurrence list until its first edit, then
  // the rest of it as snapshotted just before that edit -- the order a
  // snapshot of the whole list would give, without copying lists that
  // are never edited. Deleting an entry reorders its lists, and staging
  // one may move the pool.
  const auto detach = [this](std::span<const Occ>& list, std::size_t& i) {
    if (list.data() == candidates_.data()) return;
    candidates_.assign(list.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       list.end());
    list = candidates_;
    i = static_cast<std::size_t>(-1);  // the loop's ++i starts the copy
  };

  if (config_.subsumption) {
    // Backward subsumption: delete every strict superset of c. Scanning
    // only the occurrence list of c's rarest literal keeps this near
    // linear; the signature test rejects most candidates without a merge.
    Lit best = c.front();
    for (const Lit l : c) {
      if (occ_[l.code].size < occ_[best.code].size) best = l;
    }
    std::span<const Occ> list = occs(best);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint32_t d_idx = list[i].idx;
      if (d_idx == idx || (c_lit_sig & ~list[i].lit_sig) != 0) continue;
      const Entry& d = entries_[d_idx];
      if (d.deleted || d.size < c.size()) continue;
      if ((c_sig & ~d.sig) != 0) continue;
      if (!subset_except(c, lits(d_idx), kLitUndef)) continue;
      detach(list, i);
      record_step(ProofStepKind::kErase, lits(d_idx));
      delete_entry(d_idx);
      ++stats_.subsumed_clauses;
      changed = true;
    }
  }

  if (config_.self_subsumption) {
    // Self-subsuming resolution: for l in c, if c with l flipped is a
    // subset of d, the resolvent of c and d on l.var() subsumes d, so ~l
    // can be removed from d (strengthening).
    for (const Lit l : c) {
      std::span<const Occ> list = occs(~l);
      if (list.size() > config_.bve_occurrence_limit * 16) continue;
      // Every d in occs(~l) has ~l; the rest of c must be in d too.
      std::uint32_t rest_sig = 0;
      for (const Lit other : c) {
        if (other != l) rest_sig |= lit_bit(other);
      }
      for (std::size_t i = 0; i < list.size(); ++i) {
        const std::uint32_t d_idx = list[i].idx;
        if ((rest_sig & ~list[i].lit_sig) != 0) continue;
        const Entry& d = entries_[d_idx];
        if (d.deleted || d.size < c.size()) continue;
        if ((c_sig & ~d.sig) != 0) continue;
        if (!subset_except(c, lits(d_idx), l)) continue;
        detach(list, i);
        // Strengthen d: drop ~l. Proof order: the strengthened clause is
        // RUP while both parents are live, so 'a' precedes the 'd'.
        strengthened_.clear();
        for (const Lit dl : lits(d_idx)) {
          if (dl != ~l) strengthened_.push_back(dl);
        }
        record_step(ProofStepKind::kDerive, strengthened_);
        record_step(ProofStepKind::kErase, lits(d_idx));
        delete_entry(d_idx);
        ++stats_.strengthened_literals;
        changed = true;
        if (strengthened_.empty()) {
          set_contradiction();
          return true;
        }
        stage_entry(strengthened_);
      }
    }
  }
  return changed;
}

bool Preprocessor::eliminate_round() {
  // Cheapest variables first: elimination cost is the number of
  // resolvent candidates |P| * |N|, ties in variable order. The order
  // keeps variables whose last attempt failed: an earlier elimination
  // this round may still touch them before their turn, and try_eliminate
  // decides at that point.
  order_.clear();
  std::size_t max_cost = 0;
  for (Var v = 0; static_cast<std::size_t>(v) < frozen_.size(); ++v) {
    if (frozen_[v] || eliminated_[v]) continue;
    const std::size_t pos = occ_[Lit::make(v, false).code].size;
    const std::size_t neg = occ_[Lit::make(v, true).code].size;
    if (pos + neg == 0 || pos + neg > occ_limit_) continue;
    order_.push_back({pos * neg, v});
    max_cost = std::max(max_cost, pos * neg);
  }
  // Stable LSD radix sort on the cost, a byte per pass: variables enter
  // in ascending order, so equal costs stay in variable order.
  for (unsigned shift = 0; shift < 64 && (max_cost >> shift) != 0;
       shift += 8) {
    std::size_t start[257] = {};
    for (const Candidate& c : order_) ++start[((c.cost >> shift) & 255) + 1];
    for (std::size_t b = 1; b < 257; ++b) start[b] += start[b - 1];
    order_scratch_.resize(order_.size());
    for (const Candidate& c : order_) {
      order_scratch_[start[(c.cost >> shift) & 255]++] = c;
    }
    order_.swap(order_scratch_);
  }
  bool changed = false;
  for (const Candidate& c : order_) {
    if (contradiction_) break;
    if (try_eliminate(c.var)) changed = true;
  }
  return changed;
}

bool Preprocessor::try_eliminate(Var v) {
  // An untouched variable whose dry run failed would fail again.
  if (frozen_[v] || eliminated_[v] || !retry_[v]) return false;
  const std::span<const Occ> pos = occs(Lit::make(v, false));
  const std::span<const Occ> neg = occs(Lit::make(v, true));
  if (pos.empty() && neg.empty()) return false;
  if (pos.size() + neg.size() > occ_limit_) return false;

  // Dry run: count all non-tautological resolvents, aborting if one is
  // too wide or the clause count would grow beyond the bound. The literal
  // count is bounded separately: narrow parents can resolve into wide
  // resolvents, shrinking the clause count while growing the formula --
  // exactly the pattern that slowed the xor workload down.
  const std::size_t budget =
      pos.size() + neg.size() +
      static_cast<std::size_t>(config_.bve_growth > 0 ? config_.bve_growth
                                                      : 0);
  std::size_t removed_literals = 0;
  for (const Occ p : pos) removed_literals += entries_[p.idx].size;
  for (const Occ n : neg) removed_literals += entries_[n.idx].size;
  const std::size_t literal_budget =
      removed_literals +
      static_cast<std::size_t>(
          config_.bve_literal_growth > 0 ? config_.bve_literal_growth : 0);
  // The dry run only measures; resolvents are built once it succeeds.
  std::size_t resolvent_count = 0;
  std::size_t resolvent_literals = 0;
  for (const Occ p : pos) {
    for (const Occ n : neg) {
      std::size_t size = 0;
      const ResolveStatus status =
          merge(lits(p.idx), lits(n.idx), v, config_.bve_resolvent_limit,
                size, [](Lit) {});
      if (status == ResolveStatus::kTautology) continue;
      resolvent_literals += size;
      if (status == ResolveStatus::kTooWide || ++resolvent_count > budget ||
          resolvent_literals > literal_budget) {
        retry_[v] = false;
        return false;
      }
    }
  }

  // Commit. Additions go into the proof before the parent deletions so
  // each resolvent is RUP while both parents are still live. The parent
  // lists are snapshotted because deleting a parent edits them (and
  // staging a resolvent may move them).
  resolvents_.clear();
  for (const Occ p : pos) {
    for (const Occ n : neg) {
      std::size_t size = 0;
      const auto keep = [this](Lit l) { resolvents_.push(l); };
      if (merge(lits(p.idx), lits(n.idx), v, config_.bve_resolvent_limit,
                size, keep) == ResolveStatus::kOk) {
        resolvents_.seal();
      } else {
        resolvents_.lits.resize(resolvents_.ends.empty()
                                    ? 0
                                    : resolvents_.ends.back());
      }
    }
  }
  for (std::size_t i = 0; i < resolvents_.size(); ++i) {
    record_step(ProofStepKind::kDerive, resolvents_.clause(i));
  }
  parents_.clear();
  for (const Occ p : pos) parents_.push_back(p.idx);
  for (const Occ n : neg) parents_.push_back(n.idx);
  for (const std::uint32_t idx : parents_) {
    const std::span<const Lit> parent = lits(idx);
    elim_clauses_.lits.insert(elim_clauses_.lits.end(), parent.begin(),
                              parent.end());
    elim_clauses_.seal();
  }
  for (const std::uint32_t idx : parents_) {
    record_step(ProofStepKind::kErase, lits(idx));
    delete_entry(idx);
  }
  elim_stack_.push_back(
      {v, static_cast<std::uint32_t>(elim_clauses_.size())});
  eliminated_[v] = true;
  ++stats_.eliminated_vars;
  stats_.resolvents_added += resolvents_.size();
  for (std::size_t i = 0; i < resolvents_.size(); ++i) {
    const std::span<const Lit> r = resolvents_.clause(i);
    if (r.empty()) {
      set_contradiction();
      return true;
    }
    stage_entry(r);
  }
  return true;
}

void Preprocessor::run() {
  if (ran_) return;
  const auto start = std::chrono::steady_clock::now();
  ran_ = true;
  stats_.vars_before = frozen_.size();
  // Nothing is deleted before run(): every staged entry is live.
  stats_.clauses_before = entries_.size();
  stats_.literals_before = live_literals_;
  occ_limit_ = config_.bve_occurrence_limit;

  if (!contradiction_) {
    build_occurrences();
    for (std::size_t round = 0; round < config_.max_rounds; ++round) {
      ++stats_.rounds;
      const std::size_t literals_at_start = live_literals_;
      bool changed = false;
      if (config_.subsumption || config_.self_subsumption) {
        changed = subsume_round();
      }
      if (!contradiction_ && config_.variable_elimination) {
        if (eliminate_round()) changed = true;
      }
      if (contradiction_ || !changed) break;
      if (config_.self_tuning && config_.variable_elimination) {
        // Formula-driven bound tuning: while a round keeps shrinking the
        // literal count by >= ~1.5%, the formula responds well and the
        // occurrence limit doubles (deeper eliminations next round, up
        // to 8x the configured base); once progress stalls the limit
        // decays back toward the base. Purely a function of the staged
        // formula, so runs stay deterministic.
        const std::size_t literals_now = live_literals_;
        if (literals_now + literals_at_start / 64 < literals_at_start) {
          occ_limit_ =
              std::min(occ_limit_ * 2, config_.bve_occurrence_limit * 8);
        } else if (occ_limit_ > config_.bve_occurrence_limit) {
          occ_limit_ =
              std::max(occ_limit_ / 2, config_.bve_occurrence_limit);
        }
      }
    }
    // Clean up resolvents queued by a final elimination round.
    if (!contradiction_ && !queue_.empty()) subsume_round();
  }
  stats_.tuned_occurrence_limit = occ_limit_;

  if (contradiction_ && !proof_.closed) {
    record_step(ProofStepKind::kDerive, {});
  }
  stats_.vars_after = stats_.vars_before - stats_.eliminated_vars;
  simplified_.lits.reserve(live_literals_);
  for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) {
    if (entries_[idx].deleted) continue;
    const std::span<const Lit> live = lits(idx);
    simplified_.lits.insert(simplified_.lits.end(), live.begin(), live.end());
    simplified_.seal();
  }
  stats_.clauses_after = simplified_.size();
  stats_.literals_after = simplified_.lit_count();

  // The working state is never read again; only the results stay.
  release(lits_);
  release(entries_);
  release(occ_);
  release(occ_pool_);
  release(queue_);
  release(retry_);
  release(pivot_);
  release(candidates_);
  release(strengthened_);
  release(resolvents_.lits);
  release(resolvents_.ends);
  release(parents_);
  release(order_);
  release(order_scratch_);
  stats_.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
}

void Preprocessor::extend_model(std::vector<LBool>& model) const {
  const auto lit_true = [&model](Lit l) {
    const LBool v = model[l.var()];
    if (v == LBool::kUndef) return false;
    return (v == LBool::kTrue) != l.sign();
  };
  // Reverse order: each record's variable may feed clauses of records
  // eliminated earlier (already replayed later in this loop's view).
  for (std::size_t r = elim_stack_.size(); r-- > 0;) {
    const Var var = elim_stack_[r].var;
    const std::uint32_t begin = r == 0 ? 0 : elim_stack_[r - 1].end;
    bool need_true = false;
    for (std::uint32_t i = begin; i < elim_stack_[r].end && !need_true; ++i) {
      bool satisfied = false;
      bool positive = false;
      for (const Lit l : elim_clauses_.clause(i)) {
        if (l.var() == var) {
          positive = positive || !l.sign();
          continue;
        }
        if (lit_true(l)) {
          satisfied = true;
          break;
        }
      }
      need_true = !satisfied && positive;
    }
    model[var] = need_true ? LBool::kTrue : LBool::kFalse;
  }
}

bool Preprocessor::verify_model(const std::vector<LBool>& model) const {
  const auto lit_true = [&model](Lit l) {
    if (static_cast<std::size_t>(l.var()) >= model.size()) return false;
    const LBool v = model[l.var()];
    if (v == LBool::kUndef) return false;
    return (v == LBool::kTrue) != l.sign();
  };
  for (std::size_t i = 0; i < originals_.size(); ++i) {
    const std::span<const Lit> c = originals_.clause(i);
    bool satisfied = false;
    for (const Lit l : c) {
      if (lit_true(l)) {
        satisfied = true;
        break;
      }
    }
    if (satisfied) continue;
    // A tautological original is satisfied by any total assignment; it
    // can still read "unsatisfied" here if its variable never got a
    // value (it was dropped at staging, so nothing constrains it).
    bool tautology = false;
    for (std::size_t a = 0; a < c.size() && !tautology; ++a) {
      for (std::size_t b = a + 1; b < c.size(); ++b) {
        if (c[a].code == (c[b].code ^ 1)) {
          tautology = true;
          break;
        }
      }
    }
    if (!tautology) return false;
  }
  return true;
}

}  // namespace ril::sat
