#include "sat/drat_check.hpp"

#include <algorithm>
#include <vector>

namespace ril::sat {

namespace {

bool lit_less(Lit a, Lit b) { return a.code < b.code; }

/// Self-contained clause database + unit propagation engine. Deliberately
/// independent of Solver: flat arrays, eager watch removal, no activity
/// or restart machinery -- just enough to decide RUP queries. The layout
/// (arena, open-addressing deletion index, binary watches carrying the
/// other literal) and its bit-identity invariant are described in
/// drat_check.hpp.
class Checker {
 public:
  /// Ingests one step; returns false (with error() set) when the step
  /// fails to check. Steps arriving after the empty clause has been
  /// derived are ignored -- the certificate is already complete.
  bool step(const ProofStep& s) {
    ++index_;
    if (refuted_) return true;
    switch (s.kind) {
      case ProofStepKind::kOriginal:
        ++stats_.originals;
        insert_clause(s.lits);
        return true;
      case ProofStepKind::kDerive: {
        ++stats_.derivations;
        if (!rup(s.lits)) {
          error_ = "step " + std::to_string(index_) +
                   ": derived clause is not RUP";
          return false;
        }
        if (s.lits.empty()) {
          refuted_ = true;
        } else {
          insert_clause(s.lits);
        }
        return true;
      }
      case ProofStepKind::kErase: {
        std::string error;
        if (!erase_clause(s.lits, &error)) {
          error_ = "step " + std::to_string(index_) + ": " + error;
          return false;
        }
        return true;
      }
    }
    error_ = "step " + std::to_string(index_) + ": unknown step kind";
    return false;
  }

  bool refuted() const { return refuted_; }
  const std::string& error() const { return error_; }

  /// Packages the verdict. `require_refutation` demands empty-clause
  /// closure (check_refutation_file); without it any fully-checked trace is
  /// valid (check_derivations_file).
  DratCheckResult finish(bool require_refutation) const {
    DratCheckResult out;
    out.stats = stats_;
    if (!error_.empty()) {
      out.error = error_;
      return out;
    }
    if (!require_refutation || refuted_) {
      out.valid = true;
      return out;
    }
    out.error = index_ == 0 ? "empty trace"
                            : "trace never derives the empty clause";
    return out;
  }

 private:
  /// A clause is live while the index holds it.
  struct ClauseMeta {
    std::size_t offset;  ///< first literal in arena_; watch moves permute
    std::uint32_t size;
    bool watched;
  };

  struct Watch {
    int cid;
    Lit other;  ///< binary clause: its other literal; else kLitUndef
  };

  struct Slot {
    std::uint32_t hash;  ///< hash_of the literal set; its low bits pick
                         ///< the home slot
    int cid;             ///< kEmptySlot when free
  };

  static constexpr int kNoReason = -1;
  static constexpr int kEmptySlot = -1;

  // --- assignment --------------------------------------------------------
  void ensure_var(Var v) {
    if (static_cast<std::size_t>(v) < assigns_.size()) return;
    assigns_.resize(v + 1, 0);
    reason_.resize(v + 1, kNoReason);
    watches_.resize(2 * static_cast<std::size_t>(v + 1));
    marks_.resize(2 * static_cast<std::size_t>(v + 1), 0);
  }

  int value(Lit l) const {
    const int v = assigns_[l.var()];
    return l.sign() ? -v : v;
  }

  void assign(Lit l, int reason) {
    assigns_[l.var()] = l.sign() ? -1 : 1;
    reason_[l.var()] = reason;
    trail_.push_back(l);
  }

  Lit* lits_of(int cid) { return arena_.data() + clauses_[cid].offset; }

  /// Propagates to fixpoint from the current head; true on conflict.
  /// Clauses watching literal w live in watches_[(~w).code], so assigning
  /// p true visits watches_[p.code] -- the clauses whose watch ~p just
  /// became false.
  bool propagate() {
    while (head_ < trail_.size()) {
      const Lit p = trail_[head_++];
      ++stats_.propagations;
      auto& list = watches_[p.code];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < list.size(); ++i) {
        const Watch w = list[i];
        // A binary watch names the literal it implies; a long clause first
        // tries to move its watch off ~p.
        Lit implied = w.other;
        if (implied == kLitUndef) {
          Lit* c = lits_of(w.cid);
          if (c[0] == ~p) std::swap(c[0], c[1]);
          if (value(c[0]) <= 0) {
            const std::uint32_t size = clauses_[w.cid].size;
            std::uint32_t k = 2;
            while (k < size && value(c[k]) < 0) ++k;
            if (k < size) {
              std::swap(c[1], c[k]);
              watches_[(~c[1]).code].push_back(w);
              continue;
            }
          }
          implied = c[0];
        }
        list[keep++] = w;
        const int v = value(implied);
        if (v > 0) continue;
        if (v < 0) {
          for (++i; i < list.size(); ++i) list[keep++] = list[i];
          list.resize(keep);
          head_ = trail_.size();
          return true;
        }
        assign(implied, w.cid);
      }
      list.resize(keep);
    }
    return false;
  }

  // --- clause database ---------------------------------------------------
  /// FNV-1a over the sorted literal codes, finished with a 64-bit mixer so
  /// the low bits that pick a slot depend on every literal.
  static std::uint32_t hash_of(const std::vector<Lit>& sorted) {
    std::uint64_t h = 1469598103934665603ull;
    for (Lit l : sorted) {
      h ^= static_cast<std::uint32_t>(l.code);
      h *= 1099511628211ull;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return static_cast<std::uint32_t>(h ^ (h >> 33));
  }

  /// Sorts + dedups `in` into scratch_; returns false for tautologies.
  bool canonicalize(const Clause& in) {
    scratch_.assign(in.begin(), in.end());
    std::sort(scratch_.begin(), scratch_.end(), lit_less);
    scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                   scratch_.end());
    for (std::size_t i = 1; i < scratch_.size(); ++i) {
      if (scratch_[i] == ~scratch_[i - 1]) return false;
    }
    return true;
  }

  void index_insert(std::uint32_t hash, int cid) {
    if (2 * (slots_used_ + 1) > slots_.size()) {
      std::vector<Slot> old(std::max<std::size_t>(1024, 2 * slots_.size()),
                            Slot{0, kEmptySlot});
      old.swap(slots_);
      for (const Slot& s : old) {
        if (s.cid != kEmptySlot) place(s);
      }
    }
    place({hash, cid});
    ++slots_used_;
  }

  void place(const Slot& slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = slot.hash & mask;
    while (slots_[at].cid != kEmptySlot) at = (at + 1) & mask;
    slots_[at] = slot;
  }

  /// Frees slot `at`, shifting later members of its probe run back so
  /// every entry stays reachable from its home slot (no tombstones).
  void index_erase(std::size_t at) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = at;
    for (std::size_t j = (hole + 1) & mask; slots_[j].cid != kEmptySlot;
         j = (j + 1) & mask) {
      const std::size_t home = slots_[j].hash & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].cid = kEmptySlot;
    --slots_used_;
  }

  /// Slot of the lowest-id live clause whose literal set is scratch_
  /// (sorted, deduplicated), or slots_.size() when there is none.
  std::size_t find_live(std::uint32_t hash) {
    if (slots_.empty()) return slots_.size();
    for (Lit l : scratch_) {
      // A variable no clause mentions: nothing can match.
      if (static_cast<std::size_t>(l.var()) >= assigns_.size()) {
        return slots_.size();
      }
    }
    if (++stamp_ == 0) {
      std::fill(marks_.begin(), marks_.end(), 0);
      stamp_ = 1;
    }
    for (Lit l : scratch_) marks_[l.code] = stamp_;
    const std::size_t mask = slots_.size() - 1;
    std::size_t best = slots_.size();
    for (std::size_t at = hash & mask; slots_[at].cid != kEmptySlot;
         at = (at + 1) & mask) {
      const Slot& s = slots_[at];
      if (s.hash != hash) continue;
      if (best != slots_.size() && slots_[best].cid < s.cid) continue;
      if (same_clause(s.cid)) best = at;
    }
    return best;
  }

  /// True iff clause `cid` (any order, deduplicated) holds exactly the
  /// literals marked with the current stamp, i.e. those of scratch_.
  bool same_clause(int cid) {
    if (clauses_[cid].size != scratch_.size()) return false;
    const Lit* c = lits_of(cid);
    for (std::uint32_t k = 0; k < clauses_[cid].size; ++k) {
      if (marks_[c[k].code] != stamp_) return false;
    }
    return true;
  }

  void insert_clause(const Clause& lits) {
    const bool proper = canonicalize(lits);
    if (!scratch_.empty()) ensure_var(scratch_.back().var());  // sorted
    const int cid = static_cast<int>(clauses_.size());
    const auto size = static_cast<std::uint32_t>(scratch_.size());
    clauses_.push_back({arena_.size(), size, /*watched=*/false});
    arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
    index_insert(hash_of(scratch_), cid);
    // Tautologies are inert (but stay findable for deletion lines), and
    // once the database is refuted nothing further can matter.
    if (!proper || refuted_by_db_) return;
    Lit* c = lits_of(cid);
    // Persistent assignments only ever grow, so a clause satisfied now is
    // satisfied forever and never needs watches.
    for (std::uint32_t i = 0; i < size; ++i) {
      if (value(c[i]) > 0) return;
    }
    // Pull the (up to 2) unassigned literals into the watch slots.
    std::uint32_t free_count = 0;
    for (std::uint32_t i = 0; i < size && free_count < 2; ++i) {
      if (value(c[i]) == 0) std::swap(c[free_count++], c[i]);
    }
    if (free_count == 0) {
      refuted_by_db_ = true;  // every literal false under the fixpoint
      return;
    }
    if (free_count == 1) {
      assign(c[0], cid);
      if (propagate()) refuted_by_db_ = true;
      return;
    }
    clauses_[cid].watched = true;
    const bool binary = size == 2;
    watches_[(~c[0]).code].push_back({cid, binary ? c[1] : kLitUndef});
    watches_[(~c[1]).code].push_back({cid, binary ? c[0] : kLitUndef});
  }

  /// RUP query: does asserting the negation of `lits` on top of the
  /// persistent fixpoint propagate to a conflict?
  bool rup(const Clause& lits) {
    if (refuted_by_db_) return true;
    const std::size_t mark = trail_.size();
    bool conflict = false;
    for (Lit l : lits) {
      ensure_var(l.var());
      const int v = value(l);
      if (v > 0) {
        conflict = true;  // negation contradicts the fixpoint outright
        break;
      }
      if (v == 0) assign(~l, kNoReason);
    }
    if (!conflict) conflict = propagate();
    for (std::size_t i = trail_.size(); i-- > mark;) {
      const Var v = trail_[i].var();
      assigns_[v] = 0;
      reason_[v] = kNoReason;
    }
    trail_.resize(mark);
    head_ = mark;
    return conflict;
  }

  bool erase_clause(const Clause& lits, std::string* error) {
    canonicalize(lits);
    const std::size_t at = find_live(hash_of(scratch_));
    if (at == slots_.size()) {
      *error = "deletion of a clause not in the database";
      return false;
    }
    const int cid = slots_[at].cid;
    ClauseMeta& c = clauses_[cid];
    const Lit* cl = lits_of(cid);
    // Keep clauses that anchor a persistent unit: removing them would let
    // later RUP checks lean on assignments with no surviving antecedent.
    for (std::uint32_t k = 0; k < c.size; ++k) {
      if (value(cl[k]) > 0 && reason_[cl[k].var()] == cid) {
        ++stats_.ignored_deletions;
        return true;
      }
    }
    ++stats_.deletions;
    index_erase(at);
    if (c.watched) {
      detach_watch(cid, cl[0]);
      detach_watch(cid, cl[1]);
      c.watched = false;
    }
    return true;
  }

  void detach_watch(int cid, Lit watched) {
    auto& list = watches_[(~watched).code];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].cid == cid) {
        list[i] = list.back();
        list.pop_back();
        return;
      }
    }
  }

  std::vector<ClauseMeta> clauses_;          // indexed by clause id
  std::vector<Lit> arena_;                   // all clauses' literals
  std::vector<Slot> slots_;                  // live-clause index, 2^k slots
  std::size_t slots_used_ = 0;               // occupied slots
  std::vector<Lit> scratch_;                 // canonicalized step literals
  std::vector<std::uint32_t> marks_;         // indexed by lit code
  std::uint32_t stamp_ = 0;                  // current same_clause mark
  std::vector<std::vector<Watch>> watches_;  // indexed by lit code
  std::vector<std::int8_t> assigns_;         // indexed by var: -1 / 0 / +1
  std::vector<int> reason_;                  // clause id or kNoReason
  std::vector<Lit> trail_;
  std::size_t head_ = 0;
  bool refuted_by_db_ = false;
  bool refuted_ = false;
  std::size_t index_ = 0;
  std::string error_;
  DratCheckStats stats_;
};

DratCheckResult run_on_file(const std::string& path, bool require_refutation) {
  Checker checker;
  try {
    TraceReader reader(path);
    ProofStep step;
    // Once the empty clause checks, the certificate is complete and the
    // remaining steps need no semantic checking -- but the file must still frame correctly end to end, so
    // drain the reader: a torn tail, tampered end marker, or wrong
    // declared step count is rejected even when the refutation checked.
    bool steps_ok = true;
    while (!checker.refuted() && reader.next(step)) {
      if (!checker.step(step)) {
        steps_ok = false;
        break;
      }
    }
    if (steps_ok) {
      while (reader.next(step)) {
      }
    }
  } catch (const std::exception& e) {
    DratCheckResult out = checker.finish(require_refutation);
    out.valid = false;
    out.malformed = true;
    out.error = e.what();
    return out;
  }
  return checker.finish(require_refutation);
}

}  // namespace

DratCheckResult check_refutation_file(const std::string& path) {
  return run_on_file(path, /*require_refutation=*/true);
}

DratCheckResult check_derivations_file(const std::string& path) {
  return run_on_file(path, /*require_refutation=*/false);
}

}  // namespace ril::sat
