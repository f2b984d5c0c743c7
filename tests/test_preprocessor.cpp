// Preprocessor / remapper unit tests plus portfolio-level integration:
// preprocess-on/off verdict agreement (random CNF and locked miters),
// model reconstruction against the *original* clauses, DRAT certification
// surviving preprocessing, and incremental solving over frozen variables.
#include "sat/preprocessor.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "attacks/engine/miter_context.hpp"
#include "attacks/sat_attack.hpp"
#include "benchgen/random_dag.hpp"
#include "benchgen/suite.hpp"
#include "cnf/equivalence.hpp"
#include "locking/schemes.hpp"
#include "proof_files.hpp"
#include "runtime/portfolio.hpp"
#include "sat/drat_check.hpp"
#include "sat/remapper.hpp"
#include "sat/solver.hpp"

namespace ril::sat {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

// --- Remapper --------------------------------------------------------------

TEST(Remapper, IdentityRoundTrip) {
  const Remapper map = Remapper::identity(5);
  EXPECT_EQ(map.outer_count(), 5u);
  EXPECT_EQ(map.inner_count(), 5u);
  for (Var v = 0; v < 5; ++v) {
    EXPECT_TRUE(map.maps(v));
    EXPECT_EQ(map.to_inner(v), v);
    EXPECT_EQ(map.to_outer(v), v);
  }
}

TEST(Remapper, CompactingSkipsEliminated) {
  const Remapper map = Remapper::compacting({true, false, true, false, true});
  EXPECT_EQ(map.outer_count(), 5u);
  EXPECT_EQ(map.inner_count(), 3u);
  EXPECT_EQ(map.to_inner(0), 0);
  EXPECT_FALSE(map.maps(1));
  EXPECT_EQ(map.to_inner(2), 1);
  EXPECT_EQ(map.to_inner(4), 2);
  EXPECT_EQ(map.to_outer(2), 4);
  EXPECT_EQ(map.lit_to_inner(neg(4)), neg(2));
  EXPECT_EQ(map.lit_to_outer(pos(1)), pos(2));
  Clause inner;
  EXPECT_TRUE(map.clause_to_inner(Clause{pos(0), neg(4)}, inner));
  EXPECT_EQ(inner, Clause({pos(0), neg(2)}));
  EXPECT_FALSE(map.clause_to_inner(Clause{pos(1)}, inner));
}

TEST(Remapper, AppendExtends) {
  Remapper map = Remapper::compacting({true, false, true});
  map.append(3, 2);
  EXPECT_TRUE(map.maps(3));
  EXPECT_EQ(map.to_inner(3), 2);
  EXPECT_EQ(map.to_outer(2), 3);
}

// --- Preprocessor units ----------------------------------------------------

TEST(Preprocessor, SubsumptionRemovesSuperset) {
  Preprocessor prep;
  const Var a = prep.new_var();
  const Var b = prep.new_var();
  const Var c = prep.new_var();
  prep.freeze({a, b, c});
  prep.add_clause({pos(a), pos(b)});
  prep.add_clause({pos(a), pos(b), pos(c)});
  prep.run();
  EXPECT_GE(prep.stats().subsumed_clauses, 1u);
  EXPECT_EQ(prep.stats().clauses_after, 1u);
  const auto first = prep.clauses().clause(0);
  EXPECT_EQ(Clause(first.begin(), first.end()), Clause({pos(a), pos(b)}));
}

TEST(Preprocessor, SelfSubsumptionStrengthens) {
  Preprocessor prep;
  const Var a = prep.new_var();
  const Var b = prep.new_var();
  const Var c = prep.new_var();
  prep.freeze({a, b, c});
  prep.add_clause({pos(a), pos(b)});
  prep.add_clause({neg(a), pos(b), pos(c)});
  prep.run();
  EXPECT_GE(prep.stats().strengthened_literals, 1u);
  // {a,b} and {~a,b,c} resolve on a to {b,c}, which replaces the superset.
  bool found = false;
  for (std::size_t i = 0; i < prep.clauses().size(); ++i) {
    const auto lits = prep.clauses().clause(i);
    const Clause cl(lits.begin(), lits.end());
    if (cl == Clause({pos(b), pos(c)})) found = true;
    EXPECT_NE(cl, Clause({neg(a), pos(b), pos(c)}));
  }
  EXPECT_TRUE(found);
}

TEST(Preprocessor, EliminatesChainAndReconstructsModel) {
  // x0 -> x1 -> x2 -> x3 as equivalences; only the endpoints are frozen.
  Preprocessor prep;
  std::vector<Var> x;
  for (int i = 0; i < 4; ++i) x.push_back(prep.new_var());
  prep.freeze(x.front());
  prep.freeze(x.back());
  for (int i = 0; i + 1 < 4; ++i) {
    prep.add_clause({neg(x[i]), pos(x[i + 1])});
    prep.add_clause({pos(x[i]), neg(x[i + 1])});
  }
  prep.run();
  EXPECT_GE(prep.stats().eliminated_vars, 1u);
  EXPECT_FALSE(prep.is_eliminated(x.front()));
  EXPECT_FALSE(prep.is_eliminated(x.back()));

  // A model of the simplified formula extends to one of the original.
  std::vector<LBool> model(prep.num_vars(), LBool::kUndef);
  model[x.front()] = LBool::kTrue;
  model[x.back()] = LBool::kTrue;
  for (int i = 1; i < 3; ++i) {
    if (!prep.is_eliminated(x[i])) model[x[i]] = LBool::kTrue;
  }
  prep.extend_model(model);
  EXPECT_TRUE(prep.verify_model(model));
}

TEST(Preprocessor, FrozenVariablesSurvive) {
  Preprocessor prep;
  const Var a = prep.new_var();
  const Var b = prep.new_var();
  prep.freeze(a);
  prep.freeze(b);
  prep.add_clause({neg(a), pos(b)});
  prep.add_clause({pos(a), neg(b)});
  prep.run();
  EXPECT_EQ(prep.stats().eliminated_vars, 0u);
}

TEST(Preprocessor, PureLiteralEliminationIsFree) {
  Preprocessor prep;
  const Var a = prep.new_var();
  const Var b = prep.new_var();
  prep.freeze(b);
  prep.add_clause({pos(a), pos(b)});  // a occurs only positively
  prep.run();
  EXPECT_TRUE(prep.is_eliminated(a));
  EXPECT_EQ(prep.stats().resolvents_added, 0u);
  std::vector<LBool> model(prep.num_vars(), LBool::kUndef);
  model[b] = LBool::kFalse;
  prep.extend_model(model);
  EXPECT_EQ(model[a], LBool::kTrue);
  EXPECT_TRUE(prep.verify_model(model));
}

TEST(Preprocessor, ContradictionByStrengthening) {
  Preprocessor prep;
  const Var a = prep.new_var();
  prep.freeze(a);
  prep.enable_proof();
  prep.add_clause({pos(a)});
  prep.add_clause({neg(a)});
  prep.run();
  EXPECT_TRUE(prep.contradiction());
  EXPECT_TRUE(prep.proof_steps().closed);
}

TEST(Preprocessor, LiteralBudgetBlocksWideningElimination) {
  // Eliminating v below replaces 3 clauses (9 literals) by 2 resolvents
  // (10 literals): the clause count shrinks while the literal count grows,
  // exactly the table5/xor regression shape. With bve_literal_growth = 0
  // the elimination must be rejected; with a budget of 1 it goes through.
  for (const int growth : {0, 1}) {
    PreprocessConfig config;
    config.bve_literal_growth = growth;
    config.self_tuning = false;
    Preprocessor prep(config);
    const Var v = prep.new_var();
    std::vector<Var> frozen(6);
    for (Var& f : frozen) {
      f = prep.new_var();
      prep.freeze(f);
    }
    prep.add_clause({pos(v), pos(frozen[0])});
    prep.add_clause({pos(v), pos(frozen[1])});
    prep.add_clause({neg(v), pos(frozen[2]), pos(frozen[3]), pos(frozen[4]),
                     pos(frozen[5])});
    prep.run();
    if (growth == 0) {
      EXPECT_FALSE(prep.is_eliminated(v));
      EXPECT_EQ(prep.stats().literals_after, prep.stats().literals_before);
    } else {
      EXPECT_TRUE(prep.is_eliminated(v));
      EXPECT_EQ(prep.stats().literals_after, 10u);
    }
  }
}

// --- Portfolio integration -------------------------------------------------

Clause random_clause(std::mt19937_64& rng, int num_vars) {
  std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);
  Clause c;
  while (c.size() < 3) {
    const Var v = var_dist(rng);
    bool fresh = true;
    for (const Lit l : c) fresh = fresh && l.var() != v;
    if (fresh) c.push_back(Lit::make(v, sign_dist(rng) == 1));
  }
  return c;
}

bool model_satisfies(const std::vector<Clause>& clauses,
                     const runtime::SolverPortfolio& portfolio) {
  for (const Clause& c : clauses) {
    bool satisfied = false;
    for (const Lit l : c) {
      if (portfolio.model_bool(l.var()) != l.sign()) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

TEST(Preprocessor, RandomCnfNeverGrowsLiterals) {
  // Pin the no-growth default: under the stock config (literal budget 0)
  // no random formula may come out of run() with more literals than it
  // had staged, whatever mix of subsumption / strengthening / BVE fires.
  std::mt19937_64 rng(0x5eedu);
  for (int round = 0; round < 20; ++round) {
    const int num_vars = 16 + round;
    Preprocessor prep;
    for (int v = 0; v < num_vars; ++v) prep.ensure_var(v);
    for (Var v = 0; v < 4; ++v) prep.freeze(v);
    const int num_clauses = num_vars * 4;
    for (int i = 0; i < num_clauses; ++i) {
      if (!prep.add_clause(random_clause(rng, num_vars))) break;
    }
    prep.run();
    EXPECT_LE(prep.stats().literals_after, prep.stats().literals_before)
        << "round " << round;
  }
}

TEST(PortfolioPreprocess, RandomCnfVerdictAgreement) {
  // Fuzz sweep near the 3-SAT threshold: preprocessing must never flip a
  // verdict, and reconstructed models must satisfy the original clauses.
  const int kVars = 30;
  const int kClauses = 128;  // ratio ~4.3
  int sat_seen = 0;
  int unsat_seen = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 1);
    std::vector<Clause> clauses;
    clauses.reserve(kClauses);
    for (int i = 0; i < kClauses; ++i) {
      clauses.push_back(random_clause(rng, kVars));
    }

    Solver reference;
    runtime::SolverPortfolio prep_portfolio(1);
    prep_portfolio.enable_preprocessing();
    for (int v = 0; v < kVars; ++v) {
      reference.new_var();
      prep_portfolio.new_var();
    }
    for (const Clause& c : clauses) {
      reference.add_clause(c);
      prep_portfolio.add_clause(c);
    }
    const Result expected = reference.solve();
    const runtime::SolveOutcome outcome = prep_portfolio.solve();
    ASSERT_EQ(outcome.result, expected) << "seed " << seed;
    if (expected == Result::kSat) {
      ++sat_seen;
      EXPECT_TRUE(model_satisfies(clauses, prep_portfolio))
          << "seed " << seed;
      const sat::PreprocessStats* stats =
          prep_portfolio.preprocess_stats();
      ASSERT_NE(stats, nullptr);
    } else {
      ++unsat_seen;
    }
  }
  // The sweep must actually exercise both verdicts.
  EXPECT_GT(sat_seen, 0);
  EXPECT_GT(unsat_seen, 0);
}

TEST(PortfolioPreprocess, CertifiedUnsatPassesChecker) {
  // With proof logging AND preprocessing on, UNSAT traces must still pass
  // the independent RUP checker, and SAT models must pass the self-check
  // against the original formula.
  const int kVars = 24;
  const int kClauses = 116;
  int unsat_seen = 0;
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    std::mt19937_64 rng(seed);
    const std::string path = test::temp_path("prep_certified.drat");
    runtime::SolverPortfolio portfolio(1);
    portfolio.enable_proof(path);
    portfolio.enable_preprocessing();
    for (int v = 0; v < kVars; ++v) portfolio.new_var();
    for (int i = 0; i < kClauses; ++i) {
      portfolio.add_clause(random_clause(rng, kVars));
    }
    const runtime::SolveOutcome outcome = portfolio.solve();
    if (outcome.result == Result::kUnsat) {
      ++unsat_seen;
      const FileProofTracer* trace = portfolio.winner_file_trace();
      ASSERT_NE(trace, nullptr);
      ASSERT_TRUE(trace->closed());
      portfolio.promote_winner_trace(path);
      const DratCheckResult check = check_refutation_file(path);
      std::remove(path.c_str());
      EXPECT_TRUE(check.valid) << "seed " << seed << ": " << check.error;
    } else if (outcome.result == Result::kSat) {
      EXPECT_EQ(outcome.model_verified, 1) << "seed " << seed;
    }
  }
  EXPECT_GT(unsat_seen, 0);
}

TEST(PortfolioPreprocess, IncrementalSolvesOverFrozenVars) {
  // Assumption solving and clause addition after preprocessing, restricted
  // to frozen variables, must agree with an unpreprocessed reference.
  runtime::SolverPortfolio portfolio(1);
  portfolio.enable_preprocessing();
  Solver reference;
  std::vector<Var> x;
  for (int i = 0; i < 8; ++i) {
    x.push_back(portfolio.new_var());
    reference.new_var();
  }
  // Chain x0 -> ... -> x7; interior vars eliminate unless frozen.
  for (int i = 0; i + 1 < 8; ++i) {
    portfolio.add_clause({neg(x[i]), pos(x[i + 1])});
    reference.add_clause({neg(x[i]), pos(x[i + 1])});
  }
  portfolio.freeze(x.front());
  portfolio.freeze(x.back());

  // First solve: assumptions freeze their own variables automatically.
  const runtime::SolveOutcome first =
      portfolio.solve({pos(x.front()), neg(x.back())});
  EXPECT_EQ(first.result,
            reference.solve({pos(x.front()), neg(x.back())}));

  // Post-preprocessing clause over frozen vars, then new variables.
  portfolio.add_clause({pos(x.front())});
  reference.add_clause({pos(x.front())});
  const Var fresh_p = portfolio.new_var();
  const Var fresh_r = reference.new_var();
  portfolio.add_clause({neg(x.back()), pos(fresh_p)});
  reference.add_clause({neg(x.back()), pos(fresh_r)});
  const runtime::SolveOutcome second = portfolio.solve();
  EXPECT_EQ(second.result, reference.solve());
  EXPECT_EQ(second.result, Result::kSat);
  EXPECT_TRUE(portfolio.model_bool(x.front()));
  // The implication chain forces every interior (eliminated) variable.
  for (const Var v : x) EXPECT_TRUE(portfolio.model_bool(v));
  EXPECT_TRUE(portfolio.model_bool(fresh_p));

  // A clause over an eliminated variable is a caller bug and throws.
  runtime::SolverPortfolio strict(1);
  strict.enable_preprocessing();
  std::vector<Var> y;
  for (int i = 0; i < 4; ++i) y.push_back(strict.new_var());
  for (int i = 0; i + 1 < 4; ++i) {
    strict.add_clause({neg(y[i]), pos(y[i + 1])});
  }
  strict.freeze(y.front());
  strict.solve({pos(y.front())});
  ASSERT_TRUE(strict.preprocess_stats() != nullptr);
  if (strict.preprocess_stats()->eliminated_vars > 0) {
    EXPECT_THROW(strict.add_clause({pos(y[1])}), std::logic_error);
  }
}

// --- Locked-miter integration ---------------------------------------------

netlist::Netlist host_circuit(std::uint64_t seed) {
  benchgen::RandomDagParams params;
  params.num_inputs = 12;
  params.num_outputs = 6;
  params.num_gates = 120;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

TEST(PortfolioPreprocess, LockedMiterVerdictAgreement) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const netlist::Netlist host = host_circuit(seed);
    const locking::LockedCircuit locked =
        locking::lock_xor(host, 8, 40 + seed);

    runtime::SolverPortfolio plain(1);
    const attacks::engine::MiterContext plain_ctx(locked.netlist, plain);

    runtime::SolverPortfolio prepped(1);
    prepped.enable_preprocessing();
    const attacks::engine::MiterContext prep_ctx(locked.netlist, prepped);
    prepped.freeze(prep_ctx.input_vars());
    prepped.freeze(prep_ctx.copy(0).key_vars);
    prepped.freeze(prep_ctx.copy(1).key_vars);

    const runtime::SolveOutcome plain_out = plain.solve();
    const runtime::SolveOutcome prep_out = prepped.solve();
    ASSERT_EQ(prep_out.result, plain_out.result) << "seed " << seed;
    const sat::PreprocessStats* stats = prepped.preprocess_stats();
    ASSERT_NE(stats, nullptr);
    EXPECT_LT(stats->clauses_after, stats->clauses_before);
    EXPECT_GT(stats->eliminated_vars, 0u);
  }
}

TEST(SatAttackPreprocess, SameKeySameVerdict) {
  const netlist::Netlist host = host_circuit(7);
  const locking::LockedCircuit locked = locking::lock_xor(host, 10, 77);
  attacks::Oracle oracle_a(locked.netlist, locked.key);
  attacks::Oracle oracle_b(locked.netlist, locked.key);

  attacks::SatAttackOptions off;
  off.preprocess = false;  // defaults flipped on; this test compares the two
  attacks::SatAttackOptions on;
  on.preprocess = true;
  const attacks::SatAttackResult r_off =
      attacks::run_sat_attack(locked.netlist, oracle_a, off);
  const attacks::SatAttackResult r_on =
      attacks::run_sat_attack(locked.netlist, oracle_b, on);
  ASSERT_EQ(r_off.status, attacks::SatAttackStatus::kKeyFound);
  ASSERT_EQ(r_on.status, attacks::SatAttackStatus::kKeyFound);
  // Canonical keys are DIP-order independent, so they must match exactly.
  EXPECT_EQ(r_on.key, r_off.key);
  EXPECT_TRUE(r_on.preprocessed);
  EXPECT_FALSE(r_off.preprocessed);
  EXPECT_LT(r_on.preprocess.clauses_after, r_on.preprocess.clauses_before);
  EXPECT_TRUE(
      cnf::check_equivalence(locked.netlist, host, r_on.key, {})
          .equivalent());
}

TEST(SatAttackPreprocess, CertifiedAttackStillValidates) {
  const netlist::Netlist host = host_circuit(9);
  const locking::LockedCircuit locked = locking::lock_xor(host, 8, 99);
  attacks::Oracle oracle(locked.netlist, locked.key);

  attacks::SatAttackOptions options;
  options.preprocess = true;
  options.certify = true;
  options.proof_file = test::temp_path("prep_attack.drat");
  const attacks::SatAttackResult result =
      attacks::run_sat_attack(locked.netlist, oracle, options);
  ASSERT_EQ(result.status, attacks::SatAttackStatus::kKeyFound);
  EXPECT_EQ(result.proof_status, attacks::ProofStatus::kValid);
  EXPECT_TRUE(result.models_verified);
  ASSERT_EQ(result.proof_path, options.proof_file);
  const DratCheckResult check = check_refutation_file(result.proof_path);
  std::remove(result.proof_path.c_str());
  EXPECT_TRUE(check.valid) << check.error;
}

// --- Pins -----------------------------------------------------------------
//
// Exact fingerprints of run() on fixed formulas: every PreprocessStats
// counter, the simplified clauses in order, the DRAT steps, and
// extend_model on fixed partial models. Any change to the simplifier's
// internals must leave all of them bit-identical.

/// A ClauseSink that only records the formula an encoder emits.
class RecordingSink final : public ClauseSink {
 public:
  Var new_var() override { return static_cast<Var>(num_vars++); }
  void ensure_var(Var v) override {
    if (static_cast<std::size_t>(v) >= num_vars) num_vars = v + 1;
  }
  bool add_clause(Clause lits) override {
    clauses.push_back(std::move(lits));
    return true;
  }
  using ClauseSink::add_clause;

  std::size_t num_vars = 0;
  std::vector<Clause> clauses;
};

/// FNV-1a over 32-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void word(std::uint32_t w) {
    for (int i = 0; i < 4; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  template <typename Lits>
  void clause(const Lits& lits) {
    for (const Lit l : lits) word(l.code);
    word(0xffffffffu);  // clause separator
  }
};

std::uint64_t clauses_digest(const ClauseBatch& clauses) {
  Digest d;
  for (std::size_t i = 0; i < clauses.size(); ++i) d.clause(clauses.clause(i));
  return d.h;
}

std::uint64_t trace_digest(const PreprocessProof& proof) {
  Digest d;
  for (std::size_t i = 0; i < proof.kinds.size(); ++i) {
    d.word(static_cast<std::uint32_t>(proof.kinds[i]));
    d.clause(proof.clauses.clause(i));
  }
  return d.h;
}

/// Extends a fixed partial model -- surviving variable v is true iff bit
/// 0 of (v * 2654435761 + salt) >> 7 is set -- and digests the result.
std::uint64_t extended_model_digest(const Preprocessor& prep,
                                    std::uint32_t salt) {
  std::vector<LBool> model(prep.num_vars(), LBool::kUndef);
  for (std::size_t v = 0; v < model.size(); ++v) {
    if (prep.is_eliminated(static_cast<Var>(v))) continue;
    const std::uint32_t bits =
        (static_cast<std::uint32_t>(v) * 2654435761u + salt) >> 7;
    model[v] = (bits & 1u) ? LBool::kTrue : LBool::kFalse;
  }
  prep.extend_model(model);
  Digest d;
  for (const LBool value : model) d.word(static_cast<std::uint32_t>(value));
  return d.h;
}

struct Pin {
  std::size_t vars_before, vars_after, clauses_before, clauses_after,
      literals_before, literals_after, eliminated_vars, subsumed_clauses,
      strengthened_literals, resolvents_added, rounds, tuned_occurrence_limit;
  std::uint64_t clauses, trace, model_a, model_b;
};

void expect_pin(const Preprocessor& prep, const Pin& pin) {
  const PreprocessStats& s = prep.stats();
  EXPECT_EQ(s.vars_before, pin.vars_before);
  EXPECT_EQ(s.vars_after, pin.vars_after);
  EXPECT_EQ(s.clauses_before, pin.clauses_before);
  EXPECT_EQ(s.clauses_after, pin.clauses_after);
  EXPECT_EQ(s.literals_before, pin.literals_before);
  EXPECT_EQ(s.literals_after, pin.literals_after);
  EXPECT_EQ(s.eliminated_vars, pin.eliminated_vars);
  EXPECT_EQ(s.subsumed_clauses, pin.subsumed_clauses);
  EXPECT_EQ(s.strengthened_literals, pin.strengthened_literals);
  EXPECT_EQ(s.resolvents_added, pin.resolvents_added);
  EXPECT_EQ(s.rounds, pin.rounds);
  EXPECT_EQ(s.tuned_occurrence_limit, pin.tuned_occurrence_limit);
  EXPECT_EQ(clauses_digest(prep.clauses()), pin.clauses);
  EXPECT_EQ(trace_digest(prep.proof_steps()), pin.trace);
  EXPECT_EQ(extended_model_digest(prep, 0u), pin.model_a);
  EXPECT_EQ(extended_model_digest(prep, 0x9e3779b9u), pin.model_b);
}

/// Stages the free-key miter of `locked` with the SAT attack's freeze set
/// (inputs and both key vectors) and runs the preprocessor on it.
void run_miter(const netlist::Netlist& locked, Preprocessor& prep) {
  RecordingSink sink;
  const attacks::engine::MiterContext ctx(locked, sink);
  if (sink.num_vars > 0) prep.ensure_var(static_cast<Var>(sink.num_vars) - 1);
  prep.freeze(ctx.input_vars());
  prep.freeze(ctx.copy(0).key_vars);
  prep.freeze(ctx.copy(1).key_vars);
  prep.enable_proof();
  for (Clause& c : sink.clauses) prep.add_clause(std::move(c));
  prep.run();
}

TEST(PreprocessorPins, RilPoolMiter) {
  // The serve pool's shape: c7552 at scale 0.05, one 8x8 RIL block.
  const netlist::Netlist host = benchgen::make_benchmark("c7552", 0.05);
  core::RilBlockConfig config;
  config.size = 8;
  const auto ril = locking::lock_ril(host, 1, config, 7);
  Preprocessor prep;
  run_miter(ril.locked.netlist, prep);
  expect_pin(prep, {943, 883, 2467, 2347, 6806, 6594, 60, 0, 0, 196, 2, 64,
              9038128836471406286ull, 9360294695076296301ull,
              5124300747935114162ull, 17584824675230759762ull});
}

TEST(PreprocessorPins, XorTable5Miter) {
  const netlist::Netlist host = benchgen::make_benchmark("c7552", 0.06);
  const auto locked = locking::lock_xor(host, 32, 64);
  Preprocessor prep;
  run_miter(locked.netlist, prep);
  expect_pin(prep, {977, 889, 2435, 2259, 6582, 6278, 88, 0, 2, 292, 2, 64,
              17483019534010359742ull, 1713728903515814817ull,
              1194990614904101666ull, 5557067613981096786ull});
}

TEST(PreprocessorPins, CaslockTable5Miter) {
  const netlist::Netlist host = benchgen::make_benchmark("c7552", 0.06);
  const auto locked = locking::lock_antisat(host, 16, 54);
  Preprocessor prep;
  run_miter(locked.netlist, prep);
  expect_pin(prep, {985, 897, 2517, 2341, 6816, 6510, 88, 0, 2, 292, 2, 64,
              17367680373769712330ull, 10319482340157133276ull,
              9846228574430922754ull, 7341950134631431314ull});
}

TEST(PreprocessorPins, SelfTunedRandom3Sat) {
  PreprocessConfig config;
  config.self_tuning = true;
  Preprocessor prep(config);
  const int kVars = 300;
  std::mt19937_64 rng(0x9135u);
  for (int v = 0; v < kVars; ++v) prep.ensure_var(v);
  for (Var v = 0; v < 12; ++v) prep.freeze(v);
  prep.enable_proof();
  for (int i = 0; i < 1278; ++i) {  // ratio 4.26
    prep.add_clause(random_clause(rng, kVars));
  }
  prep.run();
  expect_pin(prep, {300, 298, 1278, 1269, 3834, 3809, 2, 0, 0, 2, 2, 32,
              11618911082449608337ull, 1018774596758095205ull,
              14609646388744034162ull, 3030557031682202211ull});
}

TEST(PreprocessorPins, FailedVariableRetriesAfterItsClausesChange) {
  // Round 0 tries v, w, x (cost 2 each, index order). v fails: its
  // resolvents would grow the literal count (11 > 10). w eliminates into
  // {a,b} and {g,b}, neither of which mentions v. x fails the same way
  // as v (12 > 11). Round 1's subsumption deletes {v,a,b} via {a,b}; only
  // that deletion makes v worth retrying, and the retry eliminates it
  // (5 <= 7 literals). v's elimination replaces x's positive clause by
  // {f0,f2,f3,f4,x}, which only resolves into tautologies with x's
  // negative clauses, so x -- untouched when round 1 began -- must be
  // retried in that same round and eliminates there too.
  Preprocessor prep;
  const Var v = prep.new_var();
  const Var w = prep.new_var();
  const Var x = prep.new_var();
  std::vector<Var> f(9);
  for (Var& frozen : f) {
    frozen = prep.new_var();
    prep.freeze(frozen);
  }
  const Var a = f[6];
  const Var b = f[7];
  const Var g = f[1];
  prep.enable_proof();
  prep.add_clause({pos(v), pos(f[0])});
  prep.add_clause({pos(v), pos(a), pos(b)});
  prep.add_clause({neg(v), pos(f[2]), pos(f[3]), pos(f[4]), pos(x)});
  prep.add_clause({pos(w), pos(a)});
  prep.add_clause({pos(w), pos(g)});
  prep.add_clause({neg(w), pos(b)});
  prep.add_clause({neg(x), neg(f[0]), pos(f[5])});
  prep.add_clause({neg(x), neg(f[0]), pos(f[8])});
  prep.run();
  EXPECT_TRUE(prep.is_eliminated(w));
  EXPECT_TRUE(prep.is_eliminated(v));
  EXPECT_TRUE(prep.is_eliminated(x));
  expect_pin(prep, {12, 9, 8, 2, 22, 4, 3, 1, 0, 3, 3, 128,
              1635433836945761881ull, 18121129509236074572ull,
              12398229209009689554ull, 8396062205321814403ull});
}

}  // namespace
}  // namespace ril::sat
