// Tests for the parallel portfolio layer: runtime::SolverPortfolio plus the
// solver-side diversification hooks and the cooperative cancellation token.
#include "runtime/portfolio.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/equivalence.hpp"
#include "core/ril_block.hpp"
#include "locking/schemes.hpp"
#include "proof_files.hpp"
#include "sat/drat_check.hpp"
#include "sat/solver.hpp"

namespace ril::runtime {
namespace {

using netlist::Netlist;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Pigeonhole principle PHP(pigeons, holes): UNSAT iff pigeons > holes, and
/// exponentially hard for CDCL when UNSAT — a reliable "long solve".
void add_pigeonhole(sat::ClauseSink& sink, int pigeons, int holes) {
  auto var = [&](int p, int h) { return p * holes + h; };
  sink.ensure_var(pigeons * holes - 1);
  for (int p = 0; p < pigeons; ++p) {
    sat::Clause somewhere;
    for (int h = 0; h < holes; ++h) {
      somewhere.push_back(Lit::make(var(p, h)));
    }
    sink.add_clause(somewhere);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        sink.add_clause({Lit::make(var(p1, h), true),
                         Lit::make(var(p2, h), true)});
      }
    }
  }
}

Netlist host_circuit(std::uint64_t seed = 1, std::size_t gates = 200) {
  benchgen::RandomDagParams params;
  params.num_inputs = 16;
  params.num_outputs = 8;
  params.num_gates = gates;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

// --- determinism at --jobs 1 ----------------------------------------------

TEST(Portfolio, SingleJobBitIdenticalToSerialSolver) {
  // The same formula solved by a bare Solver and a 1-job portfolio must
  // take the exact same search path: identical verdict and search stats.
  for (const bool satisfiable : {true, false}) {
    Solver serial;
    SolverPortfolio portfolio(1, /*base_seed=*/7);
    const int pigeons = satisfiable ? 6 : 7;
    add_pigeonhole(serial, pigeons, 6);
    add_pigeonhole(portfolio, pigeons, 6);

    const Result expected = serial.solve();
    const SolveOutcome outcome = portfolio.solve();
    ASSERT_EQ(outcome.result, expected);
    EXPECT_EQ(outcome.winner, 0);
    EXPECT_EQ(outcome.winner_config, "baseline");

    const auto& a = serial.stats();
    const auto& b = portfolio.member(0).stats();
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.propagations, b.propagations);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.random_decisions, 0u);
    if (expected == Result::kSat) {
      for (std::size_t v = 0; v < serial.num_vars(); ++v) {
        EXPECT_EQ(serial.model_value(static_cast<Var>(v)),
                  portfolio.model_value(static_cast<Var>(v)));
      }
    }
  }
}

TEST(Portfolio, MirrorsClausesIntoEveryMember) {
  SolverPortfolio portfolio(3, 1);
  const Var v = portfolio.new_var();
  portfolio.ensure_var(v + 4);
  portfolio.add_clause({Lit::make(v), Lit::make(v + 1)});
  for (unsigned i = 0; i < portfolio.jobs(); ++i) {
    EXPECT_EQ(portfolio.member(i).num_vars(), 5u);
    EXPECT_EQ(portfolio.member(i).num_clauses(), 1u);
  }
}

// --- diversification -------------------------------------------------------

TEST(Portfolio, DiversifiedConfigsAreDistinct) {
  const auto baseline = diversified_config(0, 42);
  EXPECT_EQ(baseline.name, "baseline");
  EXPECT_EQ(baseline.config.seed, 0u);
  EXPECT_EQ(baseline.config.random_branch_freq, 0.0);
  EXPECT_EQ(baseline.config.random_polarity_freq, 0.0);
  for (unsigned i = 1; i < 12; ++i) {
    const auto job = diversified_config(i, 42);
    EXPECT_FALSE(job.name.empty());
    EXPECT_NE(job.name, "baseline");
    const auto& c = job.config;
    const bool diversified =
        c.restart_base != baseline.config.restart_base ||
        c.random_branch_freq > 0 || c.random_polarity_freq > 0 ||
        c.var_decay != baseline.config.var_decay ||
        c.max_learned != baseline.config.max_learned ||
        c.init_phase_true != baseline.config.init_phase_true;
    EXPECT_TRUE(diversified) << job.name;
    EXPECT_GT(c.var_decay, 0.5);
    EXPECT_LT(c.var_decay, 1.0);
    EXPECT_GE(c.restart_base, 16u);
  }
}

TEST(Portfolio, RandomBranchConfigConsumesRandomness) {
  Solver solver;
  sat::SolverConfig config;
  config.seed = 99;
  config.random_branch_freq = 0.5;
  config.random_polarity_freq = 0.5;
  solver.set_config(config);
  add_pigeonhole(solver, 7, 6);
  EXPECT_EQ(solver.solve(), Result::kUnsat);
  EXPECT_GT(solver.stats().random_decisions, 0u);
}

// --- first-to-finish-wins --------------------------------------------------

TEST(Portfolio, ParallelSolveAgreesWithSerialVerdict) {
  for (const bool satisfiable : {true, false}) {
    SolverPortfolio portfolio(4, 3);
    add_pigeonhole(portfolio, satisfiable ? 6 : 7, 6);
    const SolveOutcome outcome = portfolio.solve();
    EXPECT_EQ(outcome.result,
              satisfiable ? Result::kSat : Result::kUnsat);
    ASSERT_GE(outcome.winner, 0);
    EXPECT_LT(outcome.winner, 4);
    EXPECT_FALSE(outcome.winner_config.empty());
    EXPECT_GE(outcome.total_conflicts, outcome.conflicts);
  }
}

TEST(Portfolio, IncrementalSolvesStayInLockStep) {
  // Add clauses between solves (the DIP-loop pattern) and re-race.
  SolverPortfolio portfolio(3, 5);
  std::vector<Var> vars;
  for (int i = 0; i < 8; ++i) vars.push_back(portfolio.new_var());
  sat::Clause any;
  for (Var v : vars) any.push_back(Lit::make(v));
  portfolio.add_clause(any);
  EXPECT_EQ(portfolio.solve().result, Result::kSat);
  // Force every variable false one by one; the formula flips to UNSAT.
  for (Var v : vars) {
    portfolio.add_clause({Lit::make(v, true)});
  }
  EXPECT_EQ(portfolio.solve().result, Result::kUnsat);
  // Once proven UNSAT it must stay UNSAT without spinning up threads.
  const SolveOutcome again = portfolio.solve();
  EXPECT_EQ(again.result, Result::kUnsat);
}

// --- cancellation ----------------------------------------------------------

TEST(Portfolio, CancellationTokenStopsSolvePromptly) {
  Solver solver;
  add_pigeonhole(solver, 12, 11);  // hours of CDCL search if left alone
  solver.set_limits({.time_limit_seconds = 60.0});  // hang backstop
  std::atomic<bool> cancel{false};
  solver.set_cancel_flag(&cancel);

  Result result = Result::kSat;
  std::thread worker([&] { result = solver.solve(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto cancel_time = std::chrono::steady_clock::now();
  cancel.store(true);
  worker.join();
  const double latency = seconds_since(cancel_time);

  EXPECT_EQ(result, Result::kUnknown);
  EXPECT_TRUE(solver.cancelled());
  EXPECT_TRUE(solver.limit_fired());
  EXPECT_LT(latency, 5.0);  // countdown polls every 1024 steps

  // The solver must remain usable after a cancelled solve.
  solver.set_cancel_flag(nullptr);
  solver.set_limits({.time_limit_seconds = 0.2});
  EXPECT_EQ(solver.solve(), Result::kUnknown);
  EXPECT_FALSE(solver.cancelled());
}

TEST(Portfolio, DeadlineExpiryReturnsUnknown) {
  SolverPortfolio portfolio(3, 11);
  add_pigeonhole(portfolio, 12, 11);
  portfolio.set_limits({.time_limit_seconds = 0.2});
  const auto start = std::chrono::steady_clock::now();
  const SolveOutcome outcome = portfolio.solve();
  EXPECT_EQ(outcome.result, Result::kUnknown);
  EXPECT_EQ(outcome.winner, -1);
  EXPECT_LT(seconds_since(start), 30.0);
}

// --- the SAT attack through the portfolio ---------------------------------

TEST(Portfolio, AttackKeyMatchesAcrossJobCounts) {
  const Netlist host = host_circuit(1);
  const auto locked = locking::lock_xor(host, 12, 21);
  std::vector<std::vector<bool>> keys;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    attacks::Oracle oracle(locked.netlist, locked.key);
    attacks::SatAttackOptions options;
    options.jobs = jobs;
    options.record_solves = true;
    const auto result =
        attacks::run_sat_attack(locked.netlist, oracle, options);
    ASSERT_EQ(result.status, attacks::SatAttackStatus::kKeyFound)
        << jobs << " jobs";
    EXPECT_TRUE(
        cnf::check_equivalence(locked.netlist, host, result.key, {})
            .equivalent())
        << jobs << " jobs";
    // Per-solve records cover every miter solve plus the key extraction.
    ASSERT_EQ(result.solve_log.size(), result.iterations + 2);
    for (const auto& record : result.solve_log) {
      EXPECT_GE(record.outcome.winner, 0);
      EXPECT_LT(record.outcome.winner, static_cast<int>(jobs));
      EXPECT_FALSE(record.outcome.winner_config.empty());
    }
    EXPECT_EQ(result.solve_log.back().phase, "key");
    keys.push_back(result.key);
  }
  // The key space of XOR locking on this host is a singleton, so every
  // job count must recover the identical unlock key.
  EXPECT_EQ(keys[0], keys[1]);
  EXPECT_EQ(keys[0], keys[2]);
}

TEST(Portfolio, AttackTimeoutUnderPortfolio) {
  const Netlist host = host_circuit(6, 400);
  core::RilBlockConfig config;
  config.size = 8;
  config.output_network = true;
  const auto ril = locking::lock_ril(host, 2, config, 26);
  attacks::Oracle oracle(ril.locked.netlist, ril.locked.key);
  attacks::SatAttackOptions options;
  options.time_limit_seconds = 0.05;  // far too little
  options.jobs = 4;
  const auto result =
      attacks::run_sat_attack(ril.locked.netlist, oracle, options);
  EXPECT_EQ(result.status, attacks::SatAttackStatus::kTimeout);
  EXPECT_LE(result.seconds, 10.0);
}

TEST(Portfolio, SolveRecordJsonShape) {
  attacks::SolveRecord record;
  record.iteration = 3;
  record.phase = "miter";
  record.outcome.result = Result::kSat;
  record.outcome.winner = 2;
  record.outcome.winner_config = "random-walk";
  record.outcome.winner_seed = 77;
  record.outcome.conflicts = 10;
  record.outcome.total_conflicts = 30;
  record.outcome.seconds = 0.25;
  const std::string json = attacks::solve_record_json(record);
  EXPECT_NE(json.find("\"iteration\":3"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"miter\""), std::string::npos);
  EXPECT_NE(json.find("\"result\":\"sat\""), std::string::npos);
  EXPECT_NE(json.find("\"config\":\"random-walk\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":77"), std::string::npos);
  EXPECT_NE(json.find("\"conflicts\":10"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Portfolio, InprocessingCadencesAreDiversified) {
  SolverPortfolio portfolio(4, 1);
  sat::InprocessConfig base;
  base.interval_base = 400;
  portfolio.enable_inprocessing(base);
  EXPECT_TRUE(portfolio.inprocessing_enabled());
  // Member 0 runs the exact base config (the deterministic baseline);
  // the others stagger the cadence and shift budget emphasis.
  EXPECT_EQ(portfolio.member(0).inprocess_config().interval_base, 400u);
  EXPECT_EQ(portfolio.member(0).inprocess_config().vivify_budget,
            base.vivify_budget);
  bool any_different = false;
  for (unsigned i = 1; i < portfolio.jobs(); ++i) {
    const sat::InprocessConfig& c = portfolio.member(i).inprocess_config();
    EXPECT_TRUE(c.enabled);
    any_different = any_different || c.interval_base != base.interval_base ||
                    c.vivify_budget != base.vivify_budget ||
                    c.probe_budget != base.probe_budget ||
                    c.subsume_budget != base.subsume_budget;
  }
  EXPECT_TRUE(any_different);
}

TEST(Portfolio, InprocessingCertifiedUnsatWithPreprocessing) {
  // All three layers stacked: preprocessing stages and simplifies the
  // formula, inprocessing rewrites the members' clause databases at
  // restarts, and the winner's trace must still be a refutation the
  // forward checker accepts.
  const std::string path = test::temp_path("portfolio_stack.drat");
  SolverPortfolio portfolio(2, /*base_seed=*/9);
  portfolio.enable_proof(path);
  portfolio.enable_preprocessing();
  sat::InprocessConfig ipc;
  ipc.interval_base = 8;
  ipc.interval_growth = 0;
  portfolio.enable_inprocessing(ipc);
  add_pigeonhole(portfolio, 7, 6);
  for (Var v = 0; v < 6; ++v) portfolio.freeze(v);

  const SolveOutcome outcome = portfolio.solve();
  ASSERT_EQ(outcome.result, Result::kUnsat);
  EXPECT_GT(portfolio.inprocess_stats_total().passes, 0u);
  const sat::FileProofTracer* trace = portfolio.winner_file_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->closed());
  portfolio.promote_winner_trace(path);
  const sat::DratCheckResult check = sat::check_refutation_file(path);
  std::remove(path.c_str());
  EXPECT_TRUE(check.valid) << check.error;
}

}  // namespace
}  // namespace ril::runtime
