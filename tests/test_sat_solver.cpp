#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "attacks/engine/dip_encoder.hpp"
#include "attacks/engine/miter_context.hpp"
#include "attacks/oracle.hpp"
#include "benchgen/suite.hpp"
#include "locking/schemes.hpp"
#include "proof_files.hpp"
#include "sat/dimacs.hpp"
#include "sat/proof.hpp"

namespace ril::sat {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

TEST(SatSolver, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(a), LBool::kTrue);
}

TEST(SatSolver, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_FALSE(s.add_clause({neg(a)}));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, EmptyClauseUnsat) {
  Solver s;
  EXPECT_FALSE(s.add_clause(Clause{}));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, TautologyDropped) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, ImplicationChainPropagates) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 50; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i) {
    s.add_clause({neg(v[i]), pos(v[i + 1])});  // v[i] -> v[i+1]
  }
  s.add_clause({pos(v[0])});
  EXPECT_EQ(s.solve(), Result::kSat);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s.model_value(v[i]), LBool::kTrue);
  }
}

TEST(SatSolver, XorChainBothParities) {
  // x0 ^ x1 ^ ... ^ x9 = 1 encoded pairwise is satisfiable; adding the
  // opposite parity constraint on the same chain makes it UNSAT.
  Solver s;
  std::vector<Var> x;
  for (int i = 0; i < 10; ++i) x.push_back(s.new_var());
  Var acc = x[0];
  for (int i = 1; i < 10; ++i) {
    const Var t = s.new_var();
    // t = acc ^ x[i]
    s.add_clause({neg(t), pos(acc), pos(x[i])});
    s.add_clause({neg(t), neg(acc), neg(x[i])});
    s.add_clause({pos(t), neg(acc), pos(x[i])});
    s.add_clause({pos(t), pos(acc), neg(x[i])});
    acc = t;
  }
  s.add_clause({pos(acc)});
  EXPECT_EQ(s.solve(), Result::kSat);
  s.add_clause({neg(acc)});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

/// Pigeonhole principle PHP(n+1, n): classic hard UNSAT family.
void add_php(Solver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (int i = 0; i < pigeons; ++i) {
    for (int j = 0; j < holes; ++j) p[i][j] = s.new_var();
  }
  for (int i = 0; i < pigeons; ++i) {
    Clause c;
    for (int j = 0; j < holes; ++j) c.push_back(pos(p[i][j]));
    s.add_clause(c);
  }
  for (int j = 0; j < holes; ++j) {
    for (int i1 = 0; i1 < pigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < pigeons; ++i2) {
        s.add_clause({neg(p[i1][j]), neg(p[i2][j])});
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver s;
    add_php(s, holes);
    EXPECT_EQ(s.solve(), Result::kUnsat) << "holes " << holes;
  }
}

TEST(SatSolver, ConflictLimitFires) {
  Solver s;
  add_php(s, 9);  // hard enough to exceed a tiny conflict budget
  s.set_limits({.conflict_limit = 10});
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_TRUE(s.limit_fired());
}

TEST(SatSolver, TimeLimitFires) {
  Solver s;
  add_php(s, 11);
  s.set_limits({.time_limit_seconds = 0.05});
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_TRUE(s.limit_fired());
}

TEST(SatSolver, SolveIsRepeatable) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.solve(), Result::kSat);
  // Incremental: add a clause between solves.
  s.add_clause({neg(a)});
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
  s.add_clause({neg(b)});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, Assumptions) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({neg(a), pos(b)});
  EXPECT_EQ(s.solve({pos(a)}), Result::kSat);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
  EXPECT_EQ(s.solve({pos(a), neg(b)}), Result::kUnsat);
  // Solver must remain usable after assumption-UNSAT.
  EXPECT_EQ(s.solve(), Result::kSat);
}

bool brute_force_sat(std::size_t num_vars,
                     const std::vector<Clause>& clauses) {
  for (std::uint64_t assign = 0; assign < (1ull << num_vars); ++assign) {
    bool all = true;
    for (const Clause& c : clauses) {
      bool any = false;
      for (Lit l : c) {
        const bool value = (assign >> l.var()) & 1;
        if (value != l.sign()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class RandomCnfProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfProperty, AgreesWithBruteForce) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    const std::size_t num_vars = 3 + rng() % 10;     // 3..12
    const std::size_t num_clauses = 5 + rng() % 50;  // 5..54
    std::vector<Clause> clauses;
    for (std::size_t c = 0; c < num_clauses; ++c) {
      Clause clause;
      const std::size_t len = 1 + rng() % 3;
      for (std::size_t l = 0; l < len; ++l) {
        clause.push_back(Lit::make(static_cast<Var>(rng() % num_vars),
                                   rng() & 1));
      }
      clauses.push_back(clause);
    }
    Solver s;
    s.ensure_var(static_cast<Var>(num_vars - 1));
    bool root_ok = true;
    for (const Clause& c : clauses) root_ok = s.add_clause(c) && root_ok;
    const Result r = root_ok ? s.solve() : Result::kUnsat;
    const bool expect = brute_force_sat(num_vars, clauses);
    ASSERT_EQ(r == Result::kSat, expect) << "seed " << GetParam()
                                         << " round " << round;
    if (r == Result::kSat) {
      // Model must satisfy every clause.
      for (const Clause& c : clauses) {
        bool any = false;
        for (Lit l : c) {
          if (s.model_bool(l.var()) != l.sign()) any = true;
        }
        ASSERT_TRUE(any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SatSolver, StatsAccumulate) {
  Solver s;
  add_php(s, 5);
  s.solve();
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
}

TEST(SatSolver, GarbageCollectionKeepsCorrectness) {
  // Stress the learned-clause churn until reduce + GC fire, then verify
  // the solver still answers a structured query correctly.
  Solver s;
  add_php(s, 8);
  s.set_limits({.conflict_limit = 40000});
  (void)s.solve();  // burns conflicts, learns + deletes many clauses
  s.set_limits({});
  // The instance is still PHP(9,8): definitively UNSAT.
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, ArenaFootprintExposed) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  EXPECT_EQ(s.arena_words(), 0u);
  s.add_clause({pos(a), pos(b)});
  EXPECT_EQ(s.arena_words(), 4u);  // header + lbd + 2 lits
}

// Feeds `clauses` to one traced solver clause by clause (add_clause) and to
// another in add_clauses batches of `batch_size`, then checks that the two
// are indistinguishable: same database, same proof stream, and -- because
// watch-list order steers the search -- the same solve trajectory.
void expect_batches_match_single_adds(const std::vector<Clause>& clauses,
                                      std::size_t batch_size) {
  SCOPED_TRACE("batch size " + std::to_string(batch_size));
  Solver single;
  Solver batched;
  DratTrace single_trace;
  DratTrace batched_trace;
  single.set_proof(&single_trace);
  batched.set_proof(&batched_trace);
  bool single_ok = true;
  for (const Clause& c : clauses) single_ok = single.add_clause(c) && single_ok;
  bool batched_ok = true;
  ClauseBatch batch;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    for (const Lit l : clauses[i]) batch.push(l);
    batch.seal();
    if (batch.size() == batch_size || i + 1 == clauses.size()) {
      batched_ok = batched.add_clauses(batch) && batched_ok;
      batch.clear();
    }
  }
  const auto expect_same_trace = [&] {
    ASSERT_EQ(batched_trace.size(), single_trace.size());
    for (std::size_t i = 0; i < single_trace.size(); ++i) {
      EXPECT_EQ(batched_trace.steps()[i].kind, single_trace.steps()[i].kind);
      EXPECT_EQ(batched_trace.steps()[i].lits, single_trace.steps()[i].lits);
    }
  };
  EXPECT_EQ(batched_ok, single_ok);
  EXPECT_EQ(batched.okay(), single.okay());
  EXPECT_EQ(batched.num_vars(), single.num_vars());
  EXPECT_EQ(batched.num_clauses(), single.num_clauses());
  EXPECT_EQ(batched.arena_words(), single.arena_words());
  expect_same_trace();

  const Result result = single.solve();
  EXPECT_EQ(batched.solve(), result);
  if (result == Result::kSat) {
    for (Var v = 0; v < static_cast<Var>(single.num_vars()); ++v) {
      EXPECT_EQ(batched.model_value(v), single.model_value(v)) << "var " << v;
    }
  }
  const SolverStats& a = single.stats();
  const SolverStats& b = batched.stats();
  EXPECT_EQ(b.decisions, a.decisions);
  EXPECT_EQ(b.propagations, a.propagations);
  EXPECT_EQ(b.conflicts, a.conflicts);
  EXPECT_EQ(b.restarts, a.restarts);
  EXPECT_EQ(b.learned_clauses, a.learned_clauses);
  EXPECT_EQ(b.learned_literals, a.learned_literals);
  EXPECT_EQ(b.removed_clauses, a.removed_clauses);
  EXPECT_EQ(b.minimized_literals, a.minimized_literals);
  EXPECT_EQ(batched.arena_words(), single.arena_words());
  expect_same_trace();
}

/// Random 3-CNF near the satisfiability threshold over vars [0, num_vars),
/// so solving it takes real search.
std::vector<Clause> random_3cnf(std::uint64_t seed, int num_vars,
                                int num_clauses) {
  std::mt19937_64 rng(seed);
  std::vector<Clause> clauses;
  for (int c = 0; c < num_clauses; ++c) {
    Clause clause;
    for (int l = 0; l < 3; ++l) {
      clause.push_back(Lit::make(static_cast<Var>(rng() % num_vars), rng() & 1));
    }
    clauses.push_back(clause);
  }
  return clauses;
}

TEST(SatSolver, BatchInsertionMatchesSingleClauseAdds) {
  // Vars 60.. are untouched by the random part; the edge cases live there.
  const Var a = 60, b = 61, c = 62, d = 63, e = 64, f = 65, g = 66, h = 67;
  std::vector<Clause> clauses = random_3cnf(17, 60, 250);
  const std::vector<Clause> edges = {
      {pos(a), pos(b)},
      {neg(b), pos(c)},
      {pos(d), neg(d), pos(e)},          // tautology
      {pos(e), pos(f), pos(e), pos(f)},  // duplicate literals
      {neg(a)},                // mid-batch unit: propagates b, then c
      {neg(c), pos(g), pos(h)},  // root-false literal: stored as (g h)
      {pos(b), pos(e)},          // root-satisfied: dropped
      {pos(h), pos(g), neg(c)},
  };
  // Edge cases both ahead of and behind the random clauses, so a unit also
  // propagates through a whole batch's worth of earlier clauses.
  clauses.insert(clauses.begin() + 100, edges.begin(), edges.end());
  clauses.insert(clauses.end(), edges.begin(), edges.end());
  for (const std::size_t batch : {1, 3, 7, 64, 1000}) {
    expect_batches_match_single_adds(clauses, batch);
  }
}

TEST(SatSolver, BatchInsertionStopsAtTheEmptyClause) {
  std::vector<Clause> clauses = random_3cnf(23, 30, 60);
  clauses.insert(clauses.begin() + 40, Clause{});
  for (const std::size_t batch : {1, 8, 1000}) {
    expect_batches_match_single_adds(clauses, batch);
  }
  // A root conflict from two units mid-batch is the other way to die.
  std::vector<Clause> conflicting = random_3cnf(29, 30, 60);
  conflicting.insert(conflicting.begin() + 20, {pos(3)});
  conflicting.insert(conflicting.begin() + 30, {neg(3)});
  for (const std::size_t batch : {1, 8, 1000}) {
    expect_batches_match_single_adds(conflicting, batch);
  }
}

TEST(SatSolver, MidBatchUnitPropagatesThroughItsOwnBatch) {
  Solver s;
  ClauseBatch batch;
  batch.add({pos(0), pos(1)});
  batch.add({neg(1), pos(2)});
  batch.add({neg(0)});                   // forces 1, then 2
  batch.add({neg(2), pos(3), pos(4)});   // stored as (3 4)
  batch.add({pos(1), pos(3)});           // satisfied: dropped
  EXPECT_TRUE(s.add_clauses(batch));
  EXPECT_EQ(s.num_clauses(), 4u);
  EXPECT_EQ(s.arena_words(), 4u + 4u + 4u);
  EXPECT_FALSE(s.add_clause({neg(2)}));
}

// Minimized certified-verdict regressions distilled from the randomized
// fuzz-and-check sweeps in test_fuzz.cpp (SolverFuzz.*). The fuzzer audits
// every verdict against brute force plus the DRAT checker; these pin the
// smallest deterministic instances of the soundness-relevant edges so a
// future regression fails here with a readable witness instead of inside a
// seed sweep.

TEST(SatSolver, CertifiedUnsatAfterAssumptionFailure) {
  // An assumption-level UNSAT must leave the trace open (it refutes the
  // assumptions, not the formula); the later real refutation must close
  // and certify over the same trace.
  Solver solver;
  DratTrace trace;
  solver.set_proof(&trace);
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  ASSERT_TRUE(solver.add_clause({Lit::make(a), Lit::make(b)}));
  ASSERT_TRUE(solver.add_clause({Lit::make(a), Lit::make(b, true)}));
  EXPECT_EQ(solver.solve({Lit::make(a, true)}), Result::kUnsat);
  EXPECT_FALSE(trace.closed());
  // The assumption conflict taught the solver the root unit `a`, so adding
  // its negation refutes the formula inside add_clause itself; the empty
  // clause must be emitted on that path too, not only inside solve().
  EXPECT_FALSE(solver.add_clause({Lit::make(a, true)}));
  EXPECT_EQ(solver.solve(), Result::kUnsat);
  EXPECT_TRUE(trace.closed());
  EXPECT_TRUE(test::refutation_via_file(trace).valid);
}

TEST(SatSolver, CertifiedUnsatAfterAbortedLimitedSolve) {
  // A conflict-limited solve that aborts mid-search leaves partial learned
  // clauses in the trace; they are sound derivations, and the verdict after
  // lifting the limit must certify on top of them.
  Solver solver;
  DratTrace trace;
  solver.set_proof(&trace);
  std::vector<Var> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(solver.new_var());
  // xor-chain parity contradiction: x0 ^ x1, x1 ^ x2, ..., plus x0 == x5.
  auto add_xor = [&](Var x, Var y, bool parity) {
    ASSERT_TRUE(solver.add_clause(
        {Lit::make(x, parity), Lit::make(y)}) &&
        solver.add_clause({Lit::make(x, !parity), Lit::make(y, true)}));
  };
  for (int i = 0; i + 1 < 6; ++i) add_xor(vars[i], vars[i + 1], true);
  add_xor(vars[0], vars[5], false);
  solver.set_limits({.conflict_limit = 1});
  (void)solver.solve();
  solver.set_limits({});
  EXPECT_EQ(solver.solve(), Result::kUnsat);
  EXPECT_TRUE(trace.closed());
  const auto check = test::refutation_via_file(trace);
  EXPECT_TRUE(check.valid) << check.error;
}

TEST(SatSolver, ModelSelfCheckSurvivesIncrementalAdds) {
  // Root simplification rewrites clauses in place; verify_model must judge
  // the model against the original problem clauses, including ones whose
  // stored form was simplified after an earlier solve fixed literals.
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  const Var c = solver.new_var();
  ASSERT_TRUE(solver.add_clause({Lit::make(a)}));
  ASSERT_EQ(solver.solve(), Result::kSat);
  ASSERT_TRUE(solver.verify_model());
  ASSERT_TRUE(solver.add_clause(
      {Lit::make(a, true), Lit::make(b), Lit::make(c, true)}));
  ASSERT_TRUE(solver.add_clause({Lit::make(b, true), Lit::make(c)}));
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_TRUE(solver.verify_model());
  EXPECT_EQ(solver.solve({Lit::make(c, true)}), Result::kSat);
  EXPECT_TRUE(solver.verify_model({Lit::make(c, true)}));
}

TEST(Dimacs, RoundTrip) {
  CnfFormula f;
  f.num_vars = 3;
  f.clauses = {{pos(0), neg(1)}, {pos(2)}, {neg(0), pos(1), neg(2)}};
  const CnfFormula g = read_dimacs_string(write_dimacs_string(f));
  EXPECT_EQ(g.num_vars, 3u);
  ASSERT_EQ(g.clauses.size(), 3u);
  EXPECT_EQ(g.clauses[0][0], pos(0));
  EXPECT_EQ(g.clauses[0][1], neg(1));
}

TEST(Dimacs, LoadIntoSolver) {
  const CnfFormula f = read_dimacs_string(
      "c comment\np cnf 2 2\n1 2 0\n-1 0\n");
  Solver s;
  EXPECT_TRUE(load_into_solver(f, s));
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(1), LBool::kTrue);
}

TEST(Dimacs, RejectsMalformed) {
  EXPECT_THROW(read_dimacs_string("p cnf 1 1\n5 0\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_string("1 0\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_string("p cnf 1 1\n1\n"), std::runtime_error);
}

// Adds a pigeonhole instance (`pigeons` into pigeons-1 holes) over fresh
// variables, relaxed by a fresh selector: every clause also carries the
// selector literal, so the formula is satisfiable outright and UNSAT
// exactly under the assumption ~selector. Returns the selector.
Lit add_relaxed_pigeonhole(Solver& s, int pigeons) {
  const int holes = pigeons - 1;
  std::vector<Var> vars;
  for (int i = 0; i < pigeons * holes; ++i) vars.push_back(s.new_var());
  const Var selector = s.new_var();
  const auto var = [&](int p, int h) { return vars[p * holes + h]; };
  for (int p = 0; p < pigeons; ++p) {
    Clause c{pos(selector)};
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    EXPECT_TRUE(s.add_clause(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        EXPECT_TRUE(s.add_clause(
            {pos(selector), neg(var(p1, h)), neg(var(p2, h))}));
      }
    }
  }
  return neg(selector);
}

TEST(SatSolver, InprocessSolveGateSkipsCheapIncrementalSolves) {
  // A train of cheap assumption solves (each refutes one small relaxed
  // pigeonhole instance) crosses the cumulative pass interval, but no
  // single solve carries interval_base / solve_gate_divisor conflicts,
  // so the gated scheduler must never fire a pass -- that is the
  // "hundreds of cheap incremental solves pay ~zero" contract the
  // AntiSAT-style DIP loops rely on. With the gate disabled the same
  // sequence must fire at least one pass.
  for (const std::uint64_t divisor : {1u, 0u}) {
    Solver s;
    SolverConfig fast;  // restart often: passes fire on the restart path
    fast.restart_base = 1;
    s.set_config(fast);
    InprocessConfig ipc;
    ipc.enabled = true;
    ipc.interval_base = 1000;
    ipc.interval_growth = 0;
    ipc.solve_gate_divisor = divisor;
    s.set_inprocess(ipc);
    for (int round = 0; round < 40; ++round) {
      const Lit sel = add_relaxed_pigeonhole(s, 5);
      ASSERT_EQ(s.solve({sel}), Result::kUnsat);
      ASSERT_EQ(s.solve(), Result::kSat);
    }
    ASSERT_GT(s.stats().conflicts, ipc.interval_base);
    if (divisor != 0) {
      EXPECT_EQ(s.inprocess_stats().passes, 0u)
          << "per-solve gate must keep cheap incremental solves pass-free";
    } else {
      EXPECT_GE(s.inprocess_stats().passes, 1u)
          << "without the gate the cumulative schedule must fire";
    }
  }
}

TEST(SatSolver, InprocessStalePassesBackOffMultiplicatively) {
  // Identical searches, one with stale-pass back-off and one without:
  // whenever the aggressive cadence produces zero-yield passes, the
  // back-off run must schedule no more (and, after any stale pass,
  // strictly fewer) passes than the fixed cadence. Both verdicts and
  // trajectories stay identical -- back-off only spaces the passes.
  const auto run = [](std::uint64_t backoff_max) {
    Solver s;
    SolverConfig fast;
    fast.restart_base = 4;
    s.set_config(fast);
    InprocessConfig ipc;
    ipc.enabled = true;
    ipc.interval_base = 1;
    ipc.interval_growth = 0;
    ipc.solve_gate_divisor = 0;
    ipc.stale_backoff_max = backoff_max;
    s.set_inprocess(ipc);
    const Lit sel = add_relaxed_pigeonhole(s, 6);
    EXPECT_EQ(s.solve({sel}), Result::kUnsat);
    return s.inprocess_stats().passes;
  };
  const std::uint64_t with_backoff = run(16);
  const std::uint64_t without_backoff = run(1);
  EXPECT_LE(with_backoff, without_backoff);
  EXPECT_GE(with_backoff, 1u);
}

// --- SolverPins --------------------------------------------------------------
// The search trajectory pinned counter by counter. Every decision,
// propagation and learned clause of these runs depends on the exact heap
// pop order, watch-list order and clause layout, so any change to the
// solver internals that is meant to be a pure speed-up must leave all of
// them unchanged. A change that alters the search on purpose re-pins them
// and says so.

struct PinnedStats {
  std::uint64_t decisions;
  std::uint64_t propagations;
  std::uint64_t conflicts;
  std::uint64_t restarts;
  std::uint64_t learned_literals;
  std::uint64_t minimized_literals;
  std::uint64_t removed_clauses;
};

void expect_pinned(const SolverStats& s, const PinnedStats& pin) {
  EXPECT_EQ(s.decisions, pin.decisions);
  EXPECT_EQ(s.propagations, pin.propagations);
  EXPECT_EQ(s.conflicts, pin.conflicts);
  EXPECT_EQ(s.restarts, pin.restarts);
  EXPECT_EQ(s.learned_literals, pin.learned_literals);
  EXPECT_EQ(s.minimized_literals, pin.minimized_literals);
  EXPECT_EQ(s.removed_clauses, pin.removed_clauses);
  // On a mismatch, the actual figures, ready to paste when a search change
  // re-pins on purpose.
  if (!::testing::Test::HasFailure()) return;
  std::printf("    {%llu, %llu, %llu, %llu, %llu, %llu, %llu}\n",
              static_cast<unsigned long long>(s.decisions),
              static_cast<unsigned long long>(s.propagations),
              static_cast<unsigned long long>(s.conflicts),
              static_cast<unsigned long long>(s.restarts),
              static_cast<unsigned long long>(s.learned_literals),
              static_cast<unsigned long long>(s.minimized_literals),
              static_cast<unsigned long long>(s.removed_clauses));
}

/// FNV-1a over every step's kind and literals: equal digests mean the same
/// proof stream, step for step.
std::uint64_t trace_digest(const DratTrace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const ProofStep& step : trace.steps()) {
    mix(static_cast<std::uint64_t>(step.kind));
    mix(step.lits.size());
    for (const Lit l : step.lits) mix(static_cast<std::uint32_t>(l.code));
  }
  return h;
}

std::size_t erase_steps(const DratTrace& trace) {
  return static_cast<std::size_t>(std::count_if(
      trace.steps().begin(), trace.steps().end(), [](const ProofStep& step) {
        return step.kind == ProofStepKind::kErase;
      }));
}

TEST(SolverPins, PigeonholeWithDatabaseReductionAndCollection) {
  // A small learned-clause cap makes DB reduction run at nearly every
  // restart; the deleted words pass the collection threshold, so
  // garbage_collect() relocates the arena mid-search. The proof stream,
  // deletions included, is pinned by its digest.
  Solver s;
  DratTrace trace;
  s.set_proof(&trace);
  SolverConfig config;
  config.max_learned = 64;
  s.set_config(config);
  add_php(s, 8);
  const std::size_t problem_words = s.arena_words();
  EXPECT_EQ(s.solve(), Result::kUnsat);
  const SolverStats& st = s.stats();
  // Collection ran: the arena holds fewer words than were ever allocated.
  EXPECT_LT(s.arena_words(), problem_words + st.learned_literals +
                                 2 * st.learned_clauses);
  EXPECT_EQ(trace.size(), 42409u);
  EXPECT_EQ(erase_steps(trace), 18950u);
  EXPECT_EQ(trace_digest(trace), 2743911634895815336ull);
  expect_pinned(st, {27777, 282833, 23162, 62, 482620, 70355, 18950});
}

TEST(SolverPins, IncrementalRandom3SatWithAssumptions) {
  Solver s;
  for (const Clause& c : random_3cnf(101, 120, 440)) s.add_clause(c);
  std::mt19937_64 rng(5);
  std::string verdicts;
  for (int round = 0; round < 12; ++round) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 4; ++k) {
      assumptions.push_back(
          Lit::make(static_cast<Var>(rng() % 120), rng() & 1));
    }
    verdicts += s.solve(assumptions) == Result::kSat ? 'S' : 'U';
    for (const Clause& c : random_3cnf(200 + round, 120, 4)) s.add_clause(c);
  }
  EXPECT_EQ(verdicts, "SSSSSSSSSUUS");
  expect_pinned(s.stats(), {1075, 22637, 752, 2, 6819, 1212, 0});
}

TEST(SolverPins, RandomBranchingPicksHeapSlots) {
  // random_branch_freq picks heap_[rng % size]: the pick depends on the
  // heap's slot layout, not only on its pop order.
  Solver s;
  SolverConfig config;
  config.seed = 3;
  config.random_branch_freq = 0.05;
  config.random_polarity_freq = 0.02;
  s.set_config(config);
  for (const Clause& c : random_3cnf(77, 200, 820)) s.add_clause(c);
  const Result result = s.solve();
  EXPECT_EQ(result, Result::kSat);
  EXPECT_EQ(s.stats().random_decisions, 532u);
  expect_pinned(s.stats(), {12059, 392839, 9862, 30, 113151, 35185, 4104});
}

TEST(SolverPins, InprocessingRun) {
  Solver s;
  DratTrace trace;
  s.set_proof(&trace);
  SolverConfig config;
  config.restart_base = 8;
  s.set_config(config);
  InprocessConfig ipc;
  ipc.enabled = true;
  ipc.interval_base = 200;
  ipc.solve_gate_divisor = 0;
  s.set_inprocess(ipc);
  add_php(s, 7);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_EQ(s.inprocess_stats().passes, 3u);
  EXPECT_EQ(trace.size(), 8458u);
  EXPECT_EQ(erase_steps(trace), 1038u);
  EXPECT_EQ(trace_digest(trace), 7723659765889396298ull);
  expect_pinned(s.stats(), {11250, 117837, 6811, 252, 110725, 23867, 0});
}

TEST(SolverPins, RilMiterDipLoop) {
  // A small RIL miter and the DIP loop of the SAT attack: each round
  // solves the miter, asks the oracle, and adds the I/O constraint to
  // both key copies, so every solve continues on the last one's state.
  const auto host = benchgen::make_benchmark("c7552", 0.05);
  core::RilBlockConfig block;
  block.size = 8;
  const auto ril = locking::lock_ril(host, 1, block, 11);
  const netlist::Netlist& locked = ril.locked.netlist;
  attacks::Oracle oracle(locked, ril.locked.key);
  Solver s;
  const attacks::engine::MiterContext ctx(locked, s);
  attacks::engine::DipConstraintEncoder dips(locked, /*specialize=*/true);
  std::string verdicts;
  for (int round = 0; round < 64; ++round) {
    const Result result = s.solve();
    verdicts += result == Result::kSat ? 'S' : 'U';
    if (result != Result::kSat) break;
    const std::vector<bool> dip =
        ctx.extract_dip([&](Var v) { return s.model_bool(v); });
    const std::vector<bool> response = oracle.query(dip);
    dips.add_constraint(s, ctx.copy(0).key_vars, dip, response);
    dips.add_constraint(s, ctx.copy(1).key_vars, dip, response);
  }
  EXPECT_EQ(verdicts, "SSSSSSSSSSSSSSSSU");
  expect_pinned(s.stats(), {19324, 181843, 2615, 10, 18899, 2673, 0});
}

}  // namespace
}  // namespace ril::sat
