// SatELite-style CNF preprocessor: subsumption, self-subsuming resolution,
// and bounded variable elimination (BVE), with model reconstruction and
// optional DRAT step recording.
//
// The preprocessor is a ClauseSink staging area: callers feed it the
// problem formula (clause by clause or in whole ClauseBatch chunks), mark
// the variables that must survive (assumption vars, key vars, any var
// referenced after solving -- see freeze()), then call run(). Afterwards
// the simplified clause set is read back via clauses(), and a model of
// the *simplified* formula is completed into a model of the *original*
// formula with extend_model(), which replays the elimination stack in
// reverse (the MiniSat SimpSolver invariant: each eliminated variable is
// set so every clause removed on its behalf is satisfied).
//
// Techniques, applied to a fixpoint over bounded rounds:
//  * subsumption          -- if C \subseteq D, delete D;
//  * self-subsumption     -- if C \ {l} \cup {~l} \subseteq D for some
//                            l in C, remove ~l from D (strengthening);
//  * variable elimination -- replace the occurrences of a non-frozen var v
//                            by all non-tautological resolvents on v,
//                            when that does not grow the clause count
//                            beyond the configured bound. A var with
//                            single-polarity occurrences (pure literal)
//                            eliminates for free: no resolvents exist.
//
// Layout: every staged clause lives in one literal arena and is immutable
// once staged (strengthening stages a new clause and deletes the old);
// an entry is {offset, size, signature, deleted}, occurrence lists hold
// 32-bit entry indices, and the originals, the elimination stack and the
// simplified result are flat ClauseBatches. Elimination is retry-driven:
// a variable whose dry run failed is not tried again until a clause
// containing it is staged or deleted. The skip is exact -- a dry run reads
// only the variable's occurrence lists, the immutable entries behind them
// and budgets derived from their sizes, so an untouched variable that
// failed once fails again. (The occurrence limit, which self-tuning moves
// between rounds, only gates a size check that never clears the flag.)
//
// Proof compatibility (certification must survive preprocessing): with
// enable_proof() on, every transformation is recorded as a DRAT step in
// proof_steps(), flat like the originals: one ClauseBatch of step clauses
// plus one ProofStepKind per step. All additions are RUP with respect to
// the live clause set at their position -- a resolvent of C \/ v and
// D \/ ~v follows by assuming its negation and propagating v through C; a
// strengthened clause follows the same way from its self-subsumption
// partner -- and deletions are emitted only after the additions that
// supersede them, so a forward checker (sat/drat_check.hpp) accepts the
// stream. The portfolio replays originals() then proof_steps() into each
// member's FileProofTracer before feeding the simplified clauses with
// proof logging detached, keeping the trace's axiom ('o') set exactly the
// original formula.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/clause_sink.hpp"
#include "sat/proof.hpp"
#include "sat/types.hpp"

namespace ril::sat {

struct PreprocessConfig {
  bool subsumption = true;           ///< clause subsumption
  bool self_subsumption = true;      ///< strengthening via self-subsumption
  bool variable_elimination = true;  ///< bounded variable elimination
  /// BVE may grow the clause count by at most this many clauses per
  /// eliminated variable (0 = never grow, the SatELite default).
  int bve_growth = 0;
  /// BVE may grow the *literal* count by at most this many literals per
  /// eliminated variable (0 = never grow). The clause-count rule alone
  /// lets narrow parents resolve into wide resolvents -- fewer clauses,
  /// more literals, a slower solve (the table5/xor regression).
  int bve_literal_growth = 0;
  /// Skip elimination of vars occurring in more than this many clauses.
  /// With `self_tuning` this is the starting point, not a constant.
  std::size_t bve_occurrence_limit = 32;
  /// Abort an elimination that would create a resolvent wider than this.
  std::size_t bve_resolvent_limit = 8;
  /// Maximum subsume/eliminate rounds before declaring a fixpoint.
  std::size_t max_rounds = 8;
  /// Per-formula autotuning of the elimination bounds: after each round
  /// the occurrence limit doubles (up to 8x the configured base) while
  /// the observed literal count keeps shrinking, and decays back toward
  /// the base when progress stalls. Deterministic -- driven only by the
  /// staged formula.
  bool self_tuning = true;
};

/// DRAT steps recorded by Preprocessor::run(): step i is kinds[i] over
/// clauses.clause(i).
struct PreprocessProof {
  ClauseBatch clauses;
  std::vector<ProofStepKind> kinds;
  /// True once the empty clause has been derived.
  bool closed = false;
};

struct PreprocessStats {
  std::size_t vars_before = 0;
  std::size_t vars_after = 0;  ///< non-eliminated vars
  std::size_t clauses_before = 0;
  std::size_t clauses_after = 0;
  std::size_t literals_before = 0;
  std::size_t literals_after = 0;
  std::size_t eliminated_vars = 0;
  std::size_t subsumed_clauses = 0;
  std::size_t strengthened_literals = 0;  ///< literals removed by self-subs.
  std::size_t resolvents_added = 0;
  std::size_t rounds = 0;
  /// Final self-tuned occurrence limit (== the configured base when
  /// self_tuning is off or never adjusted).
  std::size_t tuned_occurrence_limit = 0;
  /// Wall time of run() in seconds (the only non-deterministic field).
  double seconds = 0.0;
};

class Preprocessor final : public ClauseSink {
 public:
  explicit Preprocessor(PreprocessConfig config = PreprocessConfig{});

  // --- staging (before run) ---------------------------------------------
  Var new_var() override;
  void ensure_var(Var v) override;
  std::size_t num_vars() const { return frozen_.size(); }
  /// Stages a problem clause. Returns false once the formula is trivially
  /// contradictory (empty clause staged, or derived later by run()).
  bool add_clause(Clause lits) override;
  /// Stages every clause of `batch` in order; bit-identical to calling
  /// add_clause() on each, without a Clause per clause.
  bool add_clauses(const ClauseBatch& batch) override;
  using ClauseSink::add_clause;
  /// Protects a variable from elimination. Assumption variables, key
  /// variables, and any variable mentioned by clauses or model queries
  /// after preprocessing must be frozen before run().
  void freeze(Var v);
  void freeze(const std::vector<Var>& vars);
  bool frozen(Var v) const {
    return v >= 0 && static_cast<std::size_t>(v) < frozen_.size() &&
           frozen_[v];
  }
  /// Starts recording DRAT steps for run(); call before run().
  void enable_proof() { proof_enabled_ = true; }

  // --- simplification ----------------------------------------------------
  /// Runs subsumption / strengthening / elimination to a bounded fixpoint.
  /// Idempotent; after the first call the staged formula is simplified.
  void run();

  // --- results (after run) -----------------------------------------------
  bool contradiction() const { return contradiction_; }
  bool is_eliminated(Var v) const {
    return v >= 0 && static_cast<std::size_t>(v) < eliminated_.size() &&
           eliminated_[v];
  }
  /// Simplified clause set (live clauses, in stable insertion order, each
  /// sorted by literal code). Empty until run().
  const ClauseBatch& clauses() const { return simplified_; }
  /// Original formula as staged (including clauses later simplified away).
  const ClauseBatch& originals() const { return originals_; }
  /// DRAT steps recorded by run() ('a' resolvents/strengthenings before
  /// the 'd' lines of the clauses they supersede). Empty unless
  /// enable_proof() was called before run().
  const PreprocessProof& proof_steps() const { return proof_; }

  /// Completes a model of the simplified formula (indexed by the
  /// preprocessor's variable numbering, kUndef allowed for eliminated
  /// vars) into a model of the original formula by replaying the
  /// elimination stack in reverse. `model` must have num_vars() entries.
  void extend_model(std::vector<LBool>& model) const;
  /// Checks a (extended) model against every original clause.
  bool verify_model(const std::vector<LBool>& model) const;

  const PreprocessStats& stats() const { return stats_; }

  // --- shared subsumption machinery (also used by sat/inprocess.cpp) ----
  /// Bloom signature over the clause's variables: a 64-bit superset
  /// filter -- sig(C) & ~sig(D) != 0 proves C is not a subset of D.
  static std::uint64_t signature(std::span<const Lit> lits);
  /// True iff every literal of `small` except `skip` occurs in `big`.
  /// Both clauses must be sorted by literal code.
  static bool subset_except(std::span<const Lit> small,
                            std::span<const Lit> big, Lit skip);

 private:
  /// A staged clause: lits_[offset, offset + size), sorted by literal
  /// code. Immutable once staged.
  struct Entry {
    std::uint64_t sig = 0;  // bloom signature over vars
    std::uint32_t offset = 0;
    std::uint32_t size : 31 = 0;
    std::uint32_t deleted : 1 = 0;
  };
  /// One occurrence: an entry index plus the entry's literal signature,
  /// which lets the subsumption loops reject most candidates without
  /// touching entries_ or the arena.
  struct Occ {
    std::uint32_t idx;
    std::uint32_t lit_sig;
  };
  /// One literal's occurrence list: occ_pool_[offset, offset + size) with
  /// room for `capacity` occurrences. A full list moves to the pool's end
  /// with twice the room.
  struct OccList {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };
  /// One eliminated variable; its removed clauses are
  /// elim_clauses_[previous record's end, end).
  struct ElimRecord {
    Var var;
    std::uint32_t end;
  };
  /// An elimination candidate of the current round.
  struct Candidate {
    std::size_t cost;  // |P| * |N| at the start of the round
    Var var;
  };

  std::span<const Lit> lits(std::uint32_t idx) const {
    return {lits_.data() + entries_[idx].offset, entries_[idx].size};
  }
  /// 32-bit Bloom filter over literals (signature() is over variables).
  /// Polarity-aware, so it separates the clauses of one Tseitin gate,
  /// which share every variable: lit_sig(C) & ~lit_sig(D) != 0 proves C
  /// is not a subset of D.
  static std::uint32_t lit_bit(Lit l) {
    return 1u << ((static_cast<std::uint32_t>(l.code) * 0x9e3779b1u) >> 27);
  }
  static std::uint32_t lit_signature(std::span<const Lit> lits) {
    std::uint32_t sig = 0;
    for (const Lit l : lits) sig |= lit_bit(l);
    return sig;
  }
  std::span<const Occ> occs(Lit l) const {
    const OccList& list = occ_[l.code];
    return {occ_pool_.data() + list.offset, list.size};
  }
  /// Indexes the staged formula (occurrence lists, subsumption queue,
  /// retry flags) in one pass at the start of run().
  void build_occurrences();
  void occ_push(Lit l, Occ occ);
  bool stage_clause(std::span<const Lit> lits);  // original -> staging
  /// Sorts, dedups and tautology-checks `lits` into the arena; during
  /// run() also indexes the new entry. `lits` must not point into the
  /// arena itself.
  bool stage_entry(std::span<const Lit> lits);
  void delete_entry(std::uint32_t idx);
  void occ_remove(Lit l, std::uint32_t idx);
  /// Marks every variable of `lits` for another elimination attempt.
  void touch(std::span<const Lit> lits);
  /// Records a DRAT step for `lits` (no-op unless proof logging is on).
  void record_step(ProofStepKind kind, std::span<const Lit> lits);

  bool subsume_round();
  bool process_subsumption(std::uint32_t idx);
  bool eliminate_round();
  bool try_eliminate(Var v);
  void set_contradiction();

  PreprocessConfig config_;
  /// Effective BVE occurrence limit (self-tuned between rounds).
  std::size_t occ_limit_ = 0;
  PreprocessStats stats_;
  std::vector<Lit> lits_;  // literal arena behind entries_
  std::vector<Entry> entries_;
  std::vector<OccList> occ_;  // lit code -> its list in occ_pool_
  std::vector<Occ> occ_pool_;
  std::size_t live_literals_ = 0;
  std::vector<bool> frozen_;
  std::vector<bool> eliminated_;
  /// Per variable: a clause containing it was staged or deleted since its
  /// last failed elimination attempt.
  std::vector<bool> retry_;
  std::vector<ElimRecord> elim_stack_;
  ClauseBatch elim_clauses_;
  ClauseBatch originals_;
  ClauseBatch simplified_;
  std::vector<std::uint32_t> queue_;  // entries pending subsumption checks
  PreprocessProof proof_;
  bool proof_enabled_ = false;
  bool contradiction_ = false;
  bool ran_ = false;

  // Reused scratch: no allocation per subsumption check or elimination
  // attempt once these reach their working size.
  std::vector<Lit> pivot_;       // process_subsumption's clause snapshot
  std::vector<Occ> candidates_;  // occurrence-list snapshot
  std::vector<Lit> strengthened_;
  ClauseBatch resolvents_;       // a committed elimination's resolvents
  std::vector<std::uint32_t> parents_;  // committed elimination's parents
  std::vector<Candidate> order_;         // eliminate_round's try order
  std::vector<Candidate> order_scratch_;
};

}  // namespace ril::sat
