// Parallel portfolio execution layer over the CDCL solver.
//
// A SolverPortfolio keeps N diversified Solver instances in lock-step:
// every variable and clause added through the ClauseSink interface is
// mirrored into all members, so at any point each member holds the same
// formula (plus its own private learned clauses) and a solve() can race
// them. solve() runs the members on std::threads with first-to-finish-wins
// semantics: the first decisive (SAT/UNSAT) member raises a shared
// std::atomic<bool> cancellation token that the losers observe on their
// periodic stop-check path and unwind. Because members are incremental,
// learned clauses survive across calls — each DIP iteration of the SAT
// attack resumes N warm solvers, not N cold ones.
//
// Job 0 always runs the deterministic baseline configuration, and with
// jobs == 1 solve() calls it synchronously on the caller's thread, so a
// single-job portfolio is bit-identical to the historical serial code.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sat/clause_sink.hpp"
#include "sat/preprocessor.hpp"
#include "sat/proof.hpp"
#include "sat/remapper.hpp"
#include "sat/solver.hpp"

namespace ril::runtime {

/// A named solver configuration for one portfolio member.
struct PortfolioJobConfig {
  std::string name;
  sat::SolverConfig config;
};

/// Diversified configuration for job `index`. Index 0 is the deterministic
/// baseline; 1..5 are hand-picked classic portfolio roles (rapid/slow
/// restarts, phase inversion, random walk, clause hoarding/purging);
/// higher indices derive seeded random mixtures from `base_seed`.
PortfolioJobConfig diversified_config(unsigned index,
                                      std::uint64_t base_seed);

/// Outcome of one portfolio solve call.
struct SolveOutcome {
  sat::Result result = sat::Result::kUnknown;
  /// Member that decided the call (-1 when no member finished in time).
  int winner = -1;
  std::string winner_config;
  std::uint64_t winner_seed = 0;
  /// Conflicts spent by the winner on this call.
  std::uint64_t conflicts = 0;
  /// Conflicts spent across all members on this call (total work).
  std::uint64_t total_conflicts = 0;
  double seconds = 0.0;
  /// Steps in the winner's streamed proof trace after this call (0 unless
  /// proof logging is enabled via SolverPortfolio::enable_proof).
  std::uint64_t proof_steps = 0;
  /// Model self-check verdict for a kSat result when proof logging is on:
  /// 1 = model replays against every problem clause, 0 = it does not
  /// (solver unsoundness), -1 = not checked.
  int model_verified = -1;
};

/// Serializes an outcome as a JSON object (stable key order).
std::string to_json(const SolveOutcome& outcome);

class SolverPortfolio : public sat::ClauseSink {
 public:
  /// `jobs` is clamped to [1, 64]; `base_seed` diversifies members >= 1.
  explicit SolverPortfolio(unsigned jobs = 1, std::uint64_t base_seed = 1);

  unsigned jobs() const { return static_cast<unsigned>(solvers_.size()); }

  // ClauseSink: mirrored into every member.
  sat::Var new_var() override;
  void ensure_var(sat::Var v) override;
  bool add_clause(sat::Clause lits) override;
  /// Feeds the whole batch to each member through Solver::add_clauses --
  /// after preprocessing, remapped once into member numbering. A large
  /// batch is fed from one worker thread per member (each member is an
  /// independent solver, including its private proof trace, so the
  /// fan-out needs no locking); small ones member after member. Before
  /// preprocessing runs, the whole batch is staged in the preprocessor.
  bool add_clauses(const sat::ClauseBatch& batch) override;
  using sat::ClauseSink::add_clause;

  /// Per-call resource limits, applied to every member at the next solve.
  void set_limits(const sat::SolverLimits& limits) { limits_ = limits; }

  /// Optional external stop flag (e.g. an attack-level cancellation token).
  /// When the flag becomes true, an in-flight solve() unwinds cooperatively
  /// and returns kUnknown, and the portfolio stays usable afterwards.
  /// Pass nullptr (the default) to clear it.
  void set_external_stop(const std::atomic<bool>* stop) {
    external_stop_ = stop;
  }

  /// Turns on per-member DRAT proof logging plus the post-SAT model
  /// self-check. Each member streams its trace into
  /// `stem + ".m<i>.drat.tmp"` through a sat::FileProofTracer, so no
  /// member ever buffers its proof in memory; each records originals as
  /// the mirrored add_clause reaches it, and its own private learned
  /// clauses, so the winner's trace is self-contained.
  /// promote_winner_trace() seals the winning member's file and
  /// atomically renames it to the requested path (after a decisive UNSAT
  /// the published trace is a closed refutation; earlier it is an open
  /// certificate -- see sat::check_derivations_file); the losers' temps
  /// are unlinked. Call before the first add_clause. Idempotent.
  void enable_proof(const std::string& stem);
  bool proof_enabled() const { return !file_traces_.empty(); }

  /// Turns on SatELite-style preprocessing (sat/preprocessor.hpp). Must be
  /// called before the first new_var/add_clause. Variables and clauses are
  /// then staged in a Preprocessor instead of the members; the first
  /// solve() freezes its assumption variables, simplifies the staged
  /// formula, and feeds the result (variables packed by a sat::Remapper)
  /// into every member. Callers own the freeze obligation: every variable
  /// referenced by later add_clause / assumption / model_value calls must
  /// be frozen before that first solve, or those calls throw
  /// std::logic_error when they hit an eliminated variable.
  ///
  /// Composes with enable_proof(): the preprocessor's elimination and
  /// strengthening steps are replayed into each member's streamed trace
  /// (originals first, so the axiom set stays the unsimplified formula),
  /// variable numbering stays identity, and the simplified clauses are fed
  /// with member-side logging detached -- the resulting traces still pass
  /// sat::check_refutation_file. Models are reconstructed against the original
  /// formula via Preprocessor::extend_model before the self-check runs.
  void enable_preprocessing(
      const sat::PreprocessConfig& config = sat::PreprocessConfig{});
  bool preprocessing_enabled() const { return prep_ != nullptr; }
  /// Protects a variable from elimination; only meaningful between
  /// enable_preprocessing() and the first solve().
  void freeze(sat::Var v);
  void freeze(const std::vector<sat::Var>& vars);
  /// Preprocessing statistics; nullptr until the first solve() after
  /// enable_preprocessing() has run the simplifier.
  const sat::PreprocessStats* preprocess_stats() const {
    return prep_ && prep_done_ ? &prep_->stats() : nullptr;
  }

  /// Turns on restart-time inprocessing (sat/inprocess.hpp) in every
  /// member, with diversified cadences: member 0 runs the exact base
  /// config (deterministic baseline), members >= 1 stagger the conflict
  /// interval and rotate budget emphasis between vivification, probing,
  /// and subsumption so the members never pause in lock-step. May be
  /// called at any time; variables passed to freeze() are forwarded to
  /// the members as probing exemptions (mapped through the preprocessor's
  /// numbering when preprocessing is also enabled). Orthogonal to
  /// enable_preprocessing().
  void enable_inprocessing(
      const sat::InprocessConfig& config = sat::InprocessConfig{});
  bool inprocessing_enabled() const { return ipc_.enabled; }
  /// Sum of the members' inprocessing counters (every member inprocesses
  /// its own clause database, not just the winner).
  sat::InprocessStats inprocess_stats_total() const;
  /// The decisive member's on-disk tracer after solve() (nullptr when
  /// proof logging is off or the trace was already promoted).
  const sat::FileProofTracer* winner_file_trace() const;
  /// Seals the winning member's streamed trace and publishes it under
  /// `path` (atomic rename); the losing members' temp files are removed
  /// and proof logging detaches, so later solves on this portfolio are
  /// uncertified. Returns the published trace's size in bytes. Throws
  /// std::logic_error when proof logging is off.
  std::uint64_t promote_winner_trace(const std::string& path);

  /// Races the members under the current limits. First decisive member
  /// wins and cancels the rest; if every member hits its limit the result
  /// is kUnknown (deadline/conflict budget expired).
  SolveOutcome solve(const std::vector<sat::Lit>& assumptions = {});

  /// Model access, valid after solve() returned kSat (winner's model).
  sat::LBool model_value(sat::Var v) const;
  bool model_bool(sat::Var v) const;

  std::size_t num_vars() const {
    return prep_ ? prep_->num_vars() : solvers_.front()->num_vars();
  }
  std::uint64_t total_conflicts() const;
  const sat::Solver& member(unsigned index) const { return *solvers_[index]; }
  const std::string& member_name(unsigned index) const {
    return names_[index];
  }

 private:
  /// Runs the staged preprocessor and feeds the members (first solve()).
  void finish_preprocessing(const std::vector<sat::Lit>& assumptions);
  /// Throws if a literal of `lits` lost its variable to elimination.
  void check_not_eliminated(std::span<const sat::Lit> lits) const;

  std::vector<std::unique_ptr<sat::Solver>> solvers_;
  std::vector<std::unique_ptr<sat::FileProofTracer>> file_traces_;
  std::vector<std::string> names_;
  sat::SolverLimits limits_;
  const std::atomic<bool>* external_stop_ = nullptr;
  int last_winner_ = 0;
  bool proven_unsat_ = false;

  /// Base inprocessing config (enabled == false until
  /// enable_inprocessing); members run diversified variants of it.
  sat::InprocessConfig ipc_;
  /// Outer-numbered freeze() vars awaiting the preprocessing remap before
  /// they can be forwarded to the members as probing exemptions.
  std::vector<sat::Var> ipc_frozen_outer_;

  std::unique_ptr<sat::Preprocessor> prep_;
  sat::Remapper remap_;
  /// Model over the outer (pre-preprocessing) numbering, reconstructed
  /// after a kSat solve with preprocessing on.
  std::vector<sat::LBool> ext_model_;
  bool prep_done_ = false;
  /// add_clauses() scratch: a post-preprocessing batch in member numbering.
  sat::ClauseBatch remapped_;
};

}  // namespace ril::runtime
