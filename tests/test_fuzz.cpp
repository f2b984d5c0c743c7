// Cross-module property tests ("fuzz" sweeps over seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/equivalence.hpp"
#include "locking/locked.hpp"
#include "locking/schemes.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/simplify.hpp"
#include "netlist/simulator.hpp"
#include "proof_files.hpp"
#include "runtime/portfolio.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace ril {
namespace {

using netlist::Netlist;

Netlist random_host(std::uint64_t seed) {
  benchgen::RandomDagParams params;
  params.num_inputs = 10 + seed % 12;
  params.num_outputs = 4 + seed % 6;
  params.num_gates = 120 + (seed * 37) % 160;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, BenchRoundTripIsEquivalent) {
  const Netlist original = random_host(GetParam());
  const Netlist reparsed =
      netlist::read_bench_string(netlist::write_bench_string(original));
  EXPECT_TRUE(cnf::check_equivalence(original, reparsed).equivalent());
}

TEST_P(SeedSweep, SimplifyPreservesRandomCircuits) {
  Netlist nl = random_host(GetParam() + 100);
  const Netlist reference = nl;
  netlist::simplify(nl);
  EXPECT_TRUE(cnf::check_equivalence(nl, reference).equivalent());
}

TEST_P(SeedSweep, EverySchemeUnlocksWithItsKey) {
  const std::uint64_t seed = GetParam();
  const Netlist host = random_host(seed + 200);
  std::vector<locking::LockedCircuit> locks;
  locks.push_back(locking::lock_xor(host, 8, seed));
  locks.push_back(locking::lock_sarlock(host, 8, seed));
  locks.push_back(locking::lock_antisat(host, 8, seed));
  locks.push_back(locking::lock_sfll_hd0(host, 8, seed));
  locks.push_back(locking::lock_lut(host, 4, seed));
  locks.push_back(locking::lock_banyan_routing(host, 8, seed));
  core::RilBlockConfig config;
  config.size = 4;
  config.output_network = seed % 2;
  locks.push_back(locking::lock_ril(host, 1, config, seed).locked);
  for (const auto& lock : locks) {
    EXPECT_TRUE(
        cnf::check_equivalence(lock.netlist, host, lock.key, {})
            .equivalent())
        << lock.scheme << " seed " << seed;
    // And the unlock-then-simplify flow agrees.
    Netlist fixed = locking::specialize_keys(lock.netlist, lock.key);
    netlist::simplify(fixed);
    EXPECT_TRUE(cnf::check_equivalence(fixed, host).equivalent())
        << lock.scheme << " (simplified) seed " << seed;
  }
}

TEST_P(SeedSweep, SatAttackRecoversWorkingKeys) {
  const std::uint64_t seed = GetParam();
  const Netlist host = random_host(seed + 300);
  // Small instances across three structurally different schemes.
  std::vector<locking::LockedCircuit> locks;
  locks.push_back(locking::lock_xor(host, 6, seed));
  locks.push_back(locking::lock_lut(host, 2, seed));
  core::RilBlockConfig config;
  config.size = 2;
  locks.push_back(locking::lock_ril(host, 2, config, seed).locked);
  for (const auto& lock : locks) {
    attacks::Oracle oracle(lock.netlist, lock.key);
    attacks::SatAttackOptions options;
    options.time_limit_seconds = 20;
    const auto result =
        attacks::run_sat_attack(lock.netlist, oracle, options);
    ASSERT_EQ(result.status, attacks::SatAttackStatus::kKeyFound)
        << lock.scheme << " seed " << seed;
    EXPECT_TRUE(
        cnf::check_equivalence(lock.netlist, host, result.key, {})
            .equivalent())
        << lock.scheme << " seed " << seed;
  }
}

TEST_P(SeedSweep, SimulatorAgreesWithSingleVectorEvaluation) {
  const Netlist nl = random_host(GetParam() + 400);
  std::mt19937_64 rng(GetParam());
  netlist::Simulator sim(nl);
  // 64 random vectors packed as one word sweep.
  std::vector<std::uint64_t> words(nl.inputs().size());
  for (auto& w : words) w = rng();
  for (std::size_t i = 0; i < words.size(); ++i) {
    sim.set_input(nl.inputs()[i], words[i]);
  }
  sim.evaluate();
  for (int lane : {0, 17, 63}) {
    std::vector<bool> x(nl.inputs().size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = (words[i] >> lane) & 1;
    }
    const auto expect = netlist::evaluate_once(nl, x);
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      EXPECT_EQ((sim.value(nl.outputs()[o]) >> lane) & 1,
                static_cast<std::uint64_t>(expect[o]))
          << "lane " << lane;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Solver fuzz-and-check: every verdict on a random CNF is independently
// audited. SAT answers must pass the model replay self-check and agree with
// brute force; UNSAT answers must come with a DRAT trace the from-scratch
// RUP checker accepts. Incremental adds, assumptions, conflict limits firing
// mid-solve, and portfolio cancellation are all in the fuzz surface because
// each has its own soundness-relevant bookkeeping.
// ---------------------------------------------------------------------------

struct RandomCnf {
  int num_vars = 0;
  std::vector<sat::Clause> clauses;
};

RandomCnf make_random_cnf(std::mt19937_64& rng, int max_vars) {
  RandomCnf cnf;
  cnf.num_vars = 3 + static_cast<int>(rng() % max_vars);
  // Clause density around the 3-SAT phase transition keeps both verdicts
  // common; short clauses mixed in exercise the unit / binary paths.
  const std::size_t num_clauses =
      static_cast<std::size_t>(cnf.num_vars) * (3 + rng() % 3);
  for (std::size_t c = 0; c < num_clauses; ++c) {
    const std::size_t width = 1 + rng() % 4;
    sat::Clause clause;
    for (std::size_t i = 0; i < width; ++i) {
      const auto v = static_cast<sat::Var>(rng() % cnf.num_vars);
      clause.push_back(sat::Lit::make(v, rng() % 2 == 0));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

/// Exhaustive satisfiability of a small CNF under fixed assumptions.
bool brute_force_sat(const RandomCnf& cnf,
                     const std::vector<sat::Lit>& assumptions) {
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << cnf.num_vars);
       ++bits) {
    auto lit_true = [&](sat::Lit lit) {
      const bool value = (bits >> lit.var()) & 1;
      return lit.sign() ? !value : value;
    };
    bool ok = std::all_of(assumptions.begin(), assumptions.end(), lit_true);
    for (const auto& clause : cnf.clauses) {
      if (!ok) break;
      ok = std::any_of(clause.begin(), clause.end(), lit_true);
    }
    if (ok) return true;
  }
  return false;
}

class SolverFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverFuzz, IncrementalVerdictsAreCertified) {
  std::mt19937_64 rng(GetParam() * 0x9e3779b9ull + 1);
  for (int round = 0; round < 12; ++round) {
    const RandomCnf cnf = make_random_cnf(rng, 13);
    sat::Solver solver;
    sat::DratTrace trace;
    solver.set_proof(&trace);
    for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();

    // Feed the formula in 1..3 batches with a solve between batches, under
    // randomized assumptions; finish with an unconstrained solve.
    const std::size_t batches = 1 + rng() % 3;
    std::size_t fed = 0;
    RandomCnf so_far;
    so_far.num_vars = cnf.num_vars;
    bool dead = false;  // add_clause reported root-level UNSAT
    for (std::size_t b = 0; b < batches && !dead; ++b) {
      const std::size_t upto = (b + 1 == batches)
                                   ? cnf.clauses.size()
                                   : (b + 1) * cnf.clauses.size() / batches;
      for (; fed < upto; ++fed) {
        so_far.clauses.push_back(cnf.clauses[fed]);
        if (!solver.add_clause(cnf.clauses[fed])) dead = true;
      }
      std::vector<sat::Lit> assumptions;
      if (rng() % 2 == 0) {
        for (std::size_t i = 0; i < 1 + rng() % 3; ++i) {
          const auto v = static_cast<sat::Var>(rng() % cnf.num_vars);
          assumptions.push_back(sat::Lit::make(v, rng() % 2 == 0));
        }
      }
      const sat::Result r = dead ? sat::Result::kUnsat
                                 : solver.solve(assumptions);
      const bool expected = brute_force_sat(so_far, assumptions);
      if (r == sat::Result::kSat) {
        ASSERT_TRUE(expected) << "seed " << GetParam() << " round " << round;
        ASSERT_TRUE(solver.verify_model(assumptions))
            << "seed " << GetParam() << " round " << round;
      } else {
        ASSERT_EQ(r, sat::Result::kUnsat);
        ASSERT_FALSE(expected) << "seed " << GetParam() << " round " << round;
      }
    }

    // Unconstrained final verdict: UNSAT must yield a closed, checkable
    // refutation of exactly the clauses added so far.
    const sat::Result final_r =
        dead ? sat::Result::kUnsat : solver.solve();
    ASSERT_EQ(final_r == sat::Result::kSat, brute_force_sat(so_far, {}));
    if (final_r == sat::Result::kUnsat) {
      ASSERT_TRUE(trace.closed());
      const auto check = test::refutation_via_file(trace);
      ASSERT_TRUE(check.valid)
          << "seed " << GetParam() << " round " << round << ": "
          << check.error;
    } else {
      ASSERT_TRUE(solver.verify_model());
    }
  }
}

TEST_P(SolverFuzz, ConflictLimitsDoNotCorruptLaterVerdicts) {
  std::mt19937_64 rng(GetParam() * 0x517cc1b7ull + 3);
  for (int round = 0; round < 8; ++round) {
    const RandomCnf cnf = make_random_cnf(rng, 14);
    sat::Solver solver;
    sat::DratTrace trace;
    solver.set_proof(&trace);
    for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
    bool dead = false;
    for (const auto& clause : cnf.clauses) {
      if (!solver.add_clause(clause)) dead = true;
    }
    // A tiny conflict budget may abort mid-search (kUnknown); the verdict
    // after lifting the limit must still be correct and certified.
    if (!dead) {
      solver.set_limits({.conflict_limit = 1 + rng() % 4});
      (void)solver.solve();
      solver.set_limits({});
    }
    const sat::Result r = dead ? sat::Result::kUnsat : solver.solve();
    ASSERT_EQ(r == sat::Result::kSat, brute_force_sat(cnf, {}))
        << "seed " << GetParam() << " round " << round;
    if (r == sat::Result::kUnsat) {
      ASSERT_TRUE(trace.closed());
      ASSERT_TRUE(test::refutation_via_file(trace).valid)
          << "seed " << GetParam() << " round " << round;
    } else {
      ASSERT_TRUE(solver.verify_model());
    }
  }
}

TEST_P(SolverFuzz, PortfolioVerdictsMatchBruteForceAndCertify) {
  std::mt19937_64 rng(GetParam() * 0x2545f491ull + 7);
  for (int round = 0; round < 6; ++round) {
    const RandomCnf cnf = make_random_cnf(rng, 12);
    const std::string path = test::temp_path("fuzz_portfolio.drat");
    runtime::SolverPortfolio portfolio(1 + rng() % 3, GetParam() + round);
    portfolio.enable_proof(path);
    for (int v = 0; v < cnf.num_vars; ++v) portfolio.new_var();
    bool dead = false;
    for (const auto& clause : cnf.clauses) {
      if (!portfolio.add_clause(clause)) dead = true;
    }
    const runtime::SolveOutcome outcome = portfolio.solve();
    const bool expected = brute_force_sat(cnf, {});
    if (dead || outcome.result == sat::Result::kUnsat) {
      ASSERT_FALSE(expected) << "seed " << GetParam() << " round " << round;
      const sat::FileProofTracer* trace = portfolio.winner_file_trace();
      ASSERT_NE(trace, nullptr);
      ASSERT_TRUE(trace->closed());
      portfolio.promote_winner_trace(path);
      const auto check = sat::check_refutation_file(path);
      std::remove(path.c_str());
      ASSERT_TRUE(check.valid)
          << "seed " << GetParam() << " round " << round << ": "
          << check.error;
    } else {
      ASSERT_EQ(outcome.result, sat::Result::kSat);
      ASSERT_TRUE(expected) << "seed " << GetParam() << " round " << round;
      // Portfolio SAT verdicts carry the winner's replayed model check.
      ASSERT_EQ(outcome.model_verified, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// An aggressive inprocessing config for tests: a pass at every restart,
// restarts after every conflict, so vivification / subsumption / probing
// run constantly instead of at the production cadence.
sat::InprocessConfig aggressive_inprocess() {
  sat::InprocessConfig config;
  config.enabled = true;
  config.interval_base = 1;
  config.interval_growth = 0;
  return config;
}

TEST_P(SolverFuzz, InprocessingKeepsIncrementalVerdictsSound) {
  // Random interleavings of incremental adds and assumption solves with
  // inprocessing at maximum cadence; every verdict must agree with an
  // inprocessing-free solver and with brute force, frozen assumption vars
  // must stay drivable in both polarities across solves, and a final
  // UNSAT must certify.
  std::mt19937_64 rng(GetParam() * 0x6a09e667ull + 11);
  for (int round = 0; round < 10; ++round) {
    const RandomCnf cnf = make_random_cnf(rng, 12);
    sat::Solver plain;
    sat::Solver inproc;
    sat::DratTrace trace;
    inproc.set_proof(&trace);
    sat::SolverConfig fast;
    fast.restart_base = 1;
    inproc.set_config(fast);
    inproc.set_inprocess(aggressive_inprocess());
    for (int v = 0; v < cnf.num_vars; ++v) {
      plain.new_var();
      inproc.new_var();
    }
    // Assumptions only ever touch frozen vars, so probing must leave
    // them free (the contract attack code relies on for key vars).
    const int frozen_count = 1 + cnf.num_vars / 2;
    for (int v = 0; v < frozen_count; ++v) inproc.freeze_inprocess(v);

    const std::size_t batches = 1 + rng() % 3;
    std::size_t fed = 0;
    RandomCnf so_far;
    so_far.num_vars = cnf.num_vars;
    bool dead = false;
    for (std::size_t b = 0; b < batches && !dead; ++b) {
      const std::size_t upto = (b + 1 == batches)
                                   ? cnf.clauses.size()
                                   : (b + 1) * cnf.clauses.size() / batches;
      for (; fed < upto; ++fed) {
        so_far.clauses.push_back(cnf.clauses[fed]);
        const bool ok_plain = plain.add_clause(cnf.clauses[fed]);
        const bool ok_inproc = inproc.add_clause(cnf.clauses[fed]);
        ASSERT_EQ(ok_plain, ok_inproc);
        if (!ok_plain) dead = true;
      }
      std::vector<sat::Lit> assumptions;
      for (std::size_t i = 0; i < rng() % 3; ++i) {
        const auto v = static_cast<sat::Var>(rng() % frozen_count);
        assumptions.push_back(sat::Lit::make(v, rng() % 2 == 0));
      }
      const sat::Result r_plain =
          dead ? sat::Result::kUnsat : plain.solve(assumptions);
      const sat::Result r_inproc =
          dead ? sat::Result::kUnsat : inproc.solve(assumptions);
      ASSERT_EQ(r_plain, r_inproc)
          << "seed " << GetParam() << " round " << round;
      ASSERT_EQ(r_inproc == sat::Result::kSat,
                brute_force_sat(so_far, assumptions))
          << "seed " << GetParam() << " round " << round;
      if (r_inproc == sat::Result::kSat) {
        ASSERT_TRUE(inproc.verify_model(assumptions))
            << "seed " << GetParam() << " round " << round;
      }
    }
    const sat::Result final_r =
        dead ? sat::Result::kUnsat : inproc.solve();
    ASSERT_EQ(final_r == sat::Result::kSat, brute_force_sat(so_far, {}))
        << "seed " << GetParam() << " round " << round;
    if (final_r == sat::Result::kUnsat) {
      ASSERT_TRUE(trace.closed());
      const auto check = test::refutation_via_file(trace);
      ASSERT_TRUE(check.valid)
          << "seed " << GetParam() << " round " << round << ": "
          << check.error;
    } else {
      ASSERT_TRUE(inproc.verify_model());
      // Frozen vars survived probing: both polarities still solve to the
      // brute-force verdict.
      for (int v = 0; v < frozen_count; ++v) {
        for (const bool neg : {false, true}) {
          const std::vector<sat::Lit> probe{sat::Lit::make(v, neg)};
          ASSERT_EQ(inproc.solve(probe) == sat::Result::kSat,
                    brute_force_sat(so_far, probe))
              << "seed " << GetParam() << " round " << round << " var "
              << v;
        }
      }
    }
  }
}

TEST(Inprocess, CertifiedUnsatStreamsVivifiedAndProbedDerivations) {
  // A pigeonhole core (5 pigeons, 4 holes: UNSAT, needs real search) plus
  // two crafted gadgets: probing variable x fails against (~x a)(~x ~a),
  // and clause (p q r) vivifies to (p q) through the binary (p q). The
  // streamed DRAT trace must carry both derivations and still check as a
  // refutation end to end.
  const std::string path = test::temp_path("inprocess_certified.drat");
  sat::Solver solver;
  sat::FileProofTracer tracer(path);
  solver.set_proof(&tracer);
  sat::SolverConfig fast;
  fast.restart_base = 4;
  solver.set_config(fast);
  solver.set_inprocess(aggressive_inprocess());

  const auto var = [&](int pigeon, int hole) {
    return static_cast<sat::Var>(pigeon * 4 + hole);
  };
  for (int v = 0; v < 25; ++v) solver.new_var();
  // Every pigeon sits in a hole; no hole hosts two pigeons.
  for (int p = 0; p < 5; ++p) {
    sat::Clause c;
    for (int h = 0; h < 4; ++h) c.push_back(sat::Lit::make(var(p, h)));
    ASSERT_TRUE(solver.add_clause(c));
  }
  for (int h = 0; h < 4; ++h) {
    for (int p1 = 0; p1 < 5; ++p1) {
      for (int p2 = p1 + 1; p2 < 5; ++p2) {
        ASSERT_TRUE(solver.add_clause({sat::Lit::make(var(p1, h), true),
                                       sat::Lit::make(var(p2, h), true)}));
      }
    }
  }
  // Probe gadget: x = 20, a = 21.
  const sat::Lit x = sat::Lit::make(20);
  const sat::Lit a = sat::Lit::make(21);
  ASSERT_TRUE(solver.add_clause({~x, a}));
  ASSERT_TRUE(solver.add_clause({~x, ~a}));
  // Vivify gadget: p = 22, q = 23, r = 24.
  const sat::Lit p = sat::Lit::make(22);
  const sat::Lit q = sat::Lit::make(23);
  const sat::Lit r = sat::Lit::make(24);
  ASSERT_TRUE(solver.add_clause({p, q, r}));
  ASSERT_TRUE(solver.add_clause({p, q}));

  ASSERT_EQ(solver.solve(), sat::Result::kUnsat);
  const auto& stats = solver.inprocess_stats();
  EXPECT_GE(stats.passes, 1u);
  EXPECT_GE(stats.vivified_clauses, 1u);
  EXPECT_GE(stats.failed_literals, 1u);
  EXPECT_GE(stats.subsumed_clauses, 1u);

  ASSERT_TRUE(tracer.closed());
  tracer.finalize();
  const auto check = sat::check_refutation_file(path);
  ASSERT_TRUE(check.valid) << check.error;

  // The vivified clause (p q) and the probed unit (~x) are both in the
  // streamed trace as derivations.
  const auto matches = [](const sat::Clause& got, sat::Clause want) {
    sat::Clause sorted = got;
    const auto by_code = [](sat::Lit l1, sat::Lit l2) {
      return l1.code < l2.code;
    };
    std::sort(sorted.begin(), sorted.end(), by_code);
    std::sort(want.begin(), want.end(), by_code);
    return sorted == want;
  };
  bool saw_vivified = false;
  bool saw_probed = false;
  sat::TraceReader reader(path);
  sat::ProofStep step;
  while (reader.next(step)) {
    if (step.kind != sat::ProofStepKind::kDerive) continue;
    saw_vivified = saw_vivified || matches(step.lits, {p, q});
    saw_probed = saw_probed || matches(step.lits, {~x});
  }
  EXPECT_TRUE(saw_vivified);
  EXPECT_TRUE(saw_probed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ril
