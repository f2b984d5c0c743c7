// CDCL SAT solver.
//
// Feature set (in the spirit of MiniSat/CaDiCaL-class solvers):
//  * two-watched-literal propagation with blocker literals
//  * first-UIP conflict analysis with recursive clause minimization
//  * VSIDS decision heuristic with phase saving
//  * Luby restarts
//  * LBD-guided learned-clause database reduction
//  * incremental use: clauses may be added between solve() calls, and
//    solve() accepts assumption literals
//  * resource limits: wall-clock time and conflict budget; when a limit
//    fires solve() returns Result::kUnknown
//
// Hot-path layout (docs/SOLVER.md): assignments live in one value array
// indexed by literal code, so value(l) is a single load; propagate() walks
// each watch list with raw read/keep pointers over the arena words; the
// VSIDS heap stores {activity, var} entries so sifting compares adjacent
// slots. These layouts change only the cost of each step: every decision,
// propagation, learned clause and proof step is the same as with the plain
// per-variable layout, which SolverPins (tests/test_sat_solver.cpp) pins.
//
// The solver is deliberately self-contained (no third-party code) since the
// paper's SAT-hardness claims are about CDCL search behaviour, which this
// class reproduces.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sat/clause_sink.hpp"
#include "sat/inprocess.hpp"
#include "sat/types.hpp"

namespace ril::sat {

class ProofTracer;

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t random_decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t removed_clauses = 0;
  std::uint64_t minimized_literals = 0;
};

struct SolverLimits {
  /// Wall-clock budget in seconds; <=0 means unlimited.
  double time_limit_seconds = 0.0;
  /// Conflict budget; 0 means unlimited.
  std::uint64_t conflict_limit = 0;
};

/// Diversification knobs for portfolio solving. The default-constructed
/// config is the deterministic baseline: it consumes no randomness and
/// reproduces the solver's historical behaviour bit-for-bit, which is what
/// keeps `--jobs 1` runs identical to the pre-portfolio serial code.
struct SolverConfig {
  /// Seed for the solver-local xorshift RNG (only consumed when one of the
  /// random frequencies below is non-zero).
  std::uint64_t seed = 0;
  /// Probability of branching on a uniformly random unassigned variable
  /// instead of the VSIDS maximum (MiniSat's random_var_freq).
  double random_branch_freq = 0.0;
  /// Probability of choosing a random phase instead of the saved one.
  double random_polarity_freq = 0.0;
  /// Luby restart unit in conflicts.
  std::uint64_t restart_base = 128;
  /// VSIDS activity decay factor (0 < decay < 1).
  double var_decay = 0.95;
  /// Initial learned-clause cap before the first DB reduction.
  std::uint64_t max_learned = 8192;
  /// Initial saved phase for fresh variables: true = branch true first.
  bool init_phase_true = false;
};

class Solver : public ClauseSink {
 public:
  Solver();

  /// Creates a fresh variable and returns it.
  Var new_var() override;
  /// Ensures variables [0, v] exist.
  void ensure_var(Var v) override;
  std::size_t num_vars() const { return values_.size() / 2; }
  std::size_t num_clauses() const { return n_problem_clauses_; }

  /// Adds a problem clause: a one-clause add_clauses(). Returns false if
  /// the formula became trivially unsatisfiable at the root level (the
  /// solver is then dead).
  bool add_clause(Clause lits) override;
  /// Adds every clause of `batch` in order; the one routine through which
  /// problem clauses enter the solver. Each clause is root-simplified in a
  /// reused scratch buffer and appended to the arena; the watches of the
  /// batch's clauses are attached after the batch, except that pending
  /// attaches are flushed before a root unit propagates or the empty
  /// clause is reached. Arena, clause lists, watch order, and proof stream
  /// are therefore identical to adding the clauses one at a time.
  bool add_clauses(const ClauseBatch& batch) override;
  using ClauseSink::add_clause;

  /// Solves under the given assumptions. Repeatable; clauses may be added
  /// between calls.
  Result solve(const std::vector<Lit>& assumptions = {});

  /// Model access, valid after solve() returned kSat.
  LBool model_value(Var v) const { return model_[v]; }
  bool model_bool(Var v) const { return model_[v] == LBool::kTrue; }

  const SolverStats& stats() const { return stats_; }
  /// Clause-arena footprint in 32-bit words (diagnostics / GC tests).
  std::size_t arena_words() const { return arena_.size(); }
  void set_limits(const SolverLimits& limits) { limits_ = limits; }
  /// Installs diversification knobs. Call before the first new_var() so
  /// `init_phase_true` applies to every variable.
  void set_config(const SolverConfig& config);
  const SolverConfig& config() const { return config_; }
  /// Installs a cooperative cancellation token. While solving, the flag is
  /// polled on the same countdown path as the wall-clock check; when it
  /// reads true, solve() unwinds to the root level and returns kUnknown.
  /// Pass nullptr to detach. The pointee must outlive the solve.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_ = flag; }
  /// True if the last solve() stopped due to a resource limit.
  bool limit_fired() const { return limit_fired_; }
  /// True if the last solve() stopped because the cancel flag was raised.
  bool cancelled() const { return cancelled_; }
  bool okay() const { return ok_; }

  /// Installs a proof sink (see sat/proof.hpp). Every problem clause,
  /// learned clause, root-level unit, DB deletion, and the empty clause of
  /// a refutation is emitted into it, in order. Attach before the first
  /// add_clause so the trace carries the complete axiom stream. Pass
  /// nullptr (the default) to disable; a null sink costs nothing -- no
  /// emission site sits on the propagation hot path, and the search
  /// itself is bit-identical with tracing on or off.
  void set_proof(ProofTracer* proof) { proof_ = proof; }
  ProofTracer* proof() const { return proof_; }

  /// Cheap post-SAT self-check: replays the last model against every
  /// stored problem clause (and the given assumptions). A sound solver
  /// always returns true; call it after solve() == kSat.
  bool verify_model(const std::vector<Lit>& assumptions = {}) const;

  /// Installs inprocessing knobs (sat/inprocess.hpp). Off by default;
  /// with `config.enabled` the restart path runs bounded
  /// vivification / subsumption / probing passes at conflict-count
  /// intervals. May be called between solves; takes effect at the next
  /// eligible restart. Composes with set_proof(): every inprocessing
  /// derivation and deletion is emitted into the trace.
  void set_inprocess(const InprocessConfig& config);
  const InprocessConfig& inprocess_config() const { return ipc_; }
  const InprocessStats& inprocess_stats() const { return ipc_stats_; }
  /// Marks `v` as off-limits for failed-literal probing (inprocessing
  /// never eliminates variables, so this is the whole freeze contract).
  /// Attack code freezes its assumption/key variables so probing-derived
  /// root units never pin a variable the caller still drives.
  void freeze_inprocess(Var v);
  void freeze_inprocess(const std::vector<Var>& vars);

 private:
  friend class Inprocessor;
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoClause =
      std::numeric_limits<ClauseRef>::max();

  // --- clause arena -----------------------------------------------------
  // Layout per clause: [header][lbd][lit0 ... litN-1]
  //   header = size << 2 | learned << 1 | deleted
  struct ClauseView {
    std::uint32_t* raw;
    std::uint32_t size() const { return raw[0] >> 2; }
    bool learned() const { return raw[0] & 2; }
    bool deleted() const { return raw[0] & 1; }
    void mark_deleted() { raw[0] |= 1; }
    std::uint32_t lbd() const { return raw[1]; }
    void set_lbd(std::uint32_t v) { raw[1] = v; }
    Lit lit(std::uint32_t i) const {
      return lit_from_code(static_cast<std::int32_t>(raw[2 + i]));
    }
    void set_lit(std::uint32_t i, Lit l) {
      raw[2 + i] = static_cast<std::uint32_t>(l.code);
    }
  };

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  ClauseRef alloc_clause(std::span<const Lit> lits, bool learned);
  ClauseView view(ClauseRef cref) {
    return ClauseView{arena_.data() + cref};
  }
  void attach(ClauseRef cref);
  void detach(ClauseRef cref);
  /// Root-simplifies and stores the clauses lits[ends[i-1] .. ends[i]).
  bool insert_clauses(std::span<const Lit> lits,
                      std::span<const std::uint32_t> ends);
  /// Attaches the clauses insert_clauses() has stored but not yet watched,
  /// in insertion order, reserving each touched watch list once.
  void flush_attaches();

  // --- assignment / trail ------------------------------------------------
  LBool value(Lit l) const { return values_[l.code]; }
  bool assigned(Var v) const {
    return values_[2 * static_cast<std::size_t>(v)] != LBool::kUndef;
  }
  int decision_level() const {
    return static_cast<int>(trail_limits_.size());
  }
  void enqueue(Lit l, ClauseRef reason) {
    assert(value(l) == LBool::kUndef);
    values_[l.code] = LBool::kTrue;
    values_[l.code ^ 1] = LBool::kFalse;
    const Var v = l.var();
    level_[v] = decision_level();
    reason_[v] = reason;
    trail_.push_back(l);
  }
  ClauseRef propagate();
  void new_decision_level() {
    trail_limits_.push_back(static_cast<std::uint32_t>(trail_.size()));
  }
  void cancel_until(int target_level);

  // --- conflict analysis ---------------------------------------------------
  void analyze(ClauseRef conflict, Clause& out_learned, int& out_level,
               std::uint32_t& out_lbd);
  bool literal_redundant(Lit l, std::uint32_t abstract_levels);
  /// MiniSat-style analyzeFinal for assumption-UNSAT exits: traces the
  /// conflict (`conflict`, or the already-false assumption `failed` when
  /// conflict == kNoClause) back through reasons to the responsible
  /// assumption pseudo-decisions and emits their negations as a derived
  /// clause, closing the certificate for this solve. The clause is RUP
  /// against the live database because the whole chain is one unit
  /// propagation from the assumptions. No-op without a proof sink.
  void emit_assumption_core(ClauseRef conflict, Lit failed);

  // --- heuristics -----------------------------------------------------------
  void var_bump(Var v);
  void var_decay();
  void clause_bump(ClauseView c);
  Lit pick_branch_literal();
  // A heap slot carries its variable's activity, so sifting compares
  // adjacent slots instead of chasing activity_[var]. var_bump() and the
  // rescale keep each copy equal to activity_[var].
  struct HeapEntry {
    double activity;
    Var var;
  };
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(std::size_t idx);
  void heap_down(std::size_t idx);
  bool heap_contains(Var v) const { return heap_index_[v] != -1; }

  void reduce_learned_db();
  /// Compacts the clause arena, dropping deleted clauses (called at
  /// restarts when more than half the arena is garbage). Each moved clause
  /// leaves its new ref in its old slot's lbd word, through which the
  /// root-level reasons are forwarded; the clause lists are rewritten and
  /// the watch lists rebuilt.
  void garbage_collect();
  bool time_exhausted();
  /// Combined stop check: cancellation token, then wall clock.
  bool should_stop();
  /// Solver-local xorshift64* step; only invoked when a random frequency
  /// is enabled, so the deterministic baseline consumes no randomness.
  std::uint64_t next_random();
  bool random_chance(double freq);

  static std::uint64_t luby(std::uint64_t i);

  // --- state -----------------------------------------------------------------
  bool ok_ = true;
  std::vector<std::uint32_t> arena_;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learned_clauses_;
  std::size_t n_problem_clauses_ = 0;
  // insert_clauses() scratch, reused across calls.
  Clause insert_buffer_;
  std::vector<ClauseRef> pending_attach_;
  std::vector<std::uint32_t> watch_growth_;  // indexed by lit code

  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code
  // Indexed by lit code: values_[l.code] is the value of l, so enqueue()
  // writes both polarities and cancel_until() clears both.
  std::vector<LBool> values_;
  std::vector<LBool> model_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_limits_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<std::int32_t> heap_index_;  // var -> heap slot or -1
  std::vector<HeapEntry> heap_;
  std::vector<std::uint8_t> polarity_;  // saved phase; 1 = branch true first

  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_to_clear_;
  std::vector<std::uint32_t> lbd_stamp_;
  std::uint32_t lbd_stamp_counter_ = 0;
  Clause proof_lits_;  // reduce_learned_db() deletion scratch

  std::size_t garbage_words_ = 0;
  SolverStats stats_;
  SolverLimits limits_;
  SolverConfig config_;
  bool limit_fired_ = false;
  bool cancelled_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;
  std::chrono::steady_clock::time_point solve_start_;
  std::uint64_t conflicts_at_solve_start_ = 0;
  std::uint64_t time_check_countdown_ = 0;

  std::uint64_t max_learned_ = 8192;
  ProofTracer* proof_ = nullptr;

  // --- inprocessing (sat/inprocess.hpp drives these through friendship) --
  bool ipc_is_frozen(Var v) const {
    return static_cast<std::size_t>(v) < ipc_frozen_.size() &&
           ipc_frozen_[v];
  }
  InprocessConfig ipc_;
  InprocessStats ipc_stats_;
  /// Cumulative-conflict threshold for the next pass (spans solve calls).
  std::uint64_t ipc_next_conflicts_ = 0;
  /// Stale-pass spacing multiplier (doubles on zero-yield passes up to
  /// InprocessConfig::stale_backoff_max, resets to 1 on any yield).
  std::uint64_t ipc_backoff_ = 1;
  /// Rotating vivification cursors into the clause lists.
  std::size_t ipc_viv_learned_cursor_ = 0;
  std::size_t ipc_viv_problem_cursor_ = 0;
  /// Rotating start offset for the subsumption window.
  std::size_t ipc_subsume_cursor_ = 0;
  std::vector<bool> ipc_frozen_;  // indexed by var, lazily sized
};

}  // namespace ril::sat
