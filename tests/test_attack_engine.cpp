// Regression tests for the unified attack-engine layer.
//
// The engine refactor must not change attack behaviour: at jobs == 1 with
// DIP specialization off, the engine-routed SAT attack and AppSAT must be
// bit-identical to the historical implementations (replicated verbatim
// below as `legacy::`), and with specialization on they must reach the
// same verdict and the same canonical key while encoding strictly fewer
// I/O-constraint clauses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>

#include "attacks/appsat.hpp"
#include "attacks/engine/attack_budget.hpp"
#include "attacks/engine/dip_encoder.hpp"
#include "attacks/engine/miter_context.hpp"
#include "attacks/metrics.hpp"
#include "attacks/sat_attack.hpp"
#include "attacks/scansat.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/equivalence.hpp"
#include "cnf/tseitin.hpp"
#include "locking/schemes.hpp"
#include "netlist/simplify.hpp"
#include "netlist/simulator.hpp"
#include "netlist/specialize.hpp"
#include "runtime/portfolio.hpp"
#include "sat/solver.hpp"

namespace ril::attacks {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using runtime::SolverPortfolio;
using sat::ClauseSink;
using sat::Lit;
using sat::Var;

Netlist host_circuit(std::uint64_t seed = 1, std::size_t gates = 200) {
  benchgen::RandomDagParams params;
  params.num_inputs = 16;
  params.num_outputs = 8;
  params.num_gates = gates;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

// ---------------------------------------------------------------------------
// Historical implementations, replicated verbatim from before the engine
// refactor. These are the bit-exactness baselines.
namespace legacy {

void add_io_constraint(ClauseSink& solver, const Netlist& locked,
                       const std::vector<NodeId>& data_inputs,
                       const std::vector<Var>& key_vars,
                       const std::vector<bool>& dip,
                       const std::vector<bool>& response) {
  std::unordered_map<NodeId, Var> bound;
  for (std::size_t i = 0; i < key_vars.size(); ++i) {
    bound.emplace(locked.key_inputs()[i], key_vars[i]);
  }
  const cnf::CircuitEncoding enc = cnf::encode_circuit(locked, solver, bound);
  for (std::size_t i = 0; i < data_inputs.size(); ++i) {
    solver.add_clause({Lit::make(enc.var_of(data_inputs[i]), !dip[i])});
  }
  const auto& outputs = locked.outputs();
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    solver.add_clause({Lit::make(enc.var_of(outputs[i]), !response[i])});
  }
}

SatAttackResult run_sat_attack(const Netlist& locked, QueryOracle& oracle,
                               const SatAttackOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  SatAttackResult result;
  const auto data_inputs = locked.data_inputs();
  const auto& key_inputs = locked.key_inputs();

  SolverPortfolio miter(options.jobs, options.portfolio_seed);
  std::vector<Var> x_vars;
  for (std::size_t i = 0; i < data_inputs.size(); ++i) {
    x_vars.push_back(miter.new_var());
  }
  std::vector<Var> k1;
  std::vector<Var> k2;
  for (std::size_t i = 0; i < key_inputs.size(); ++i) {
    k1.push_back(miter.new_var());
  }
  for (std::size_t i = 0; i < key_inputs.size(); ++i) {
    k2.push_back(miter.new_var());
  }
  auto bind = [&](const std::vector<Var>& keys) {
    std::unordered_map<NodeId, Var> bound;
    for (std::size_t i = 0; i < data_inputs.size(); ++i) {
      bound.emplace(data_inputs[i], x_vars[i]);
    }
    for (std::size_t i = 0; i < key_inputs.size(); ++i) {
      bound.emplace(key_inputs[i], keys[i]);
    }
    return bound;
  };
  const cnf::CircuitEncoding enc1 = cnf::encode_circuit(locked, miter, bind(k1));
  const cnf::CircuitEncoding enc2 = cnf::encode_circuit(locked, miter, bind(k2));
  std::vector<Var> out1;
  std::vector<Var> out2;
  for (NodeId id : locked.outputs()) {
    out1.push_back(enc1.var_of(id));
    out2.push_back(enc2.var_of(id));
  }
  cnf::encode_miter(miter, out1, out2);

  SolverPortfolio key_solver(options.jobs, options.portfolio_seed + 0x9e37);
  std::vector<Var> key_vars;
  for (std::size_t i = 0; i < key_inputs.size(); ++i) {
    key_vars.push_back(key_solver.new_var());
  }

  while (true) {
    if (options.max_iterations != 0 &&
        result.iterations >= options.max_iterations) {
      result.status = SatAttackStatus::kIterationLimit;
      break;
    }
    if (options.time_limit_seconds > 0) {
      const double remaining = options.time_limit_seconds - elapsed();
      if (remaining <= 0) {
        result.status = SatAttackStatus::kTimeout;
        break;
      }
      miter.set_limits({.time_limit_seconds = remaining});
    }
    const sat::Result r = miter.solve().result;
    if (r == sat::Result::kUnknown) {
      result.status = SatAttackStatus::kTimeout;
      break;
    }
    if (r == sat::Result::kUnsat) {
      if (options.time_limit_seconds > 0) {
        const double remaining = options.time_limit_seconds - elapsed();
        if (remaining <= 0) {
          result.status = SatAttackStatus::kTimeout;
          break;
        }
        key_solver.set_limits({.time_limit_seconds = remaining});
      }
      const sat::Result kr = key_solver.solve().result;
      if (kr == sat::Result::kSat) {
        result.key.reserve(key_vars.size());
        for (Var v : key_vars) result.key.push_back(key_solver.model_bool(v));
        result.status = SatAttackStatus::kKeyFound;
        if (options.canonical_key) {
          std::vector<Lit> fixed;
          fixed.reserve(key_vars.size());
          bool complete = true;
          for (std::size_t i = 0; i < key_vars.size(); ++i) {
            if (options.time_limit_seconds > 0) {
              const double remaining = options.time_limit_seconds - elapsed();
              if (remaining <= 0) {
                complete = false;
                break;
              }
              key_solver.set_limits({.time_limit_seconds = remaining});
            }
            fixed.push_back(Lit::make(key_vars[i], true));
            const runtime::SolveOutcome probe = key_solver.solve(fixed);
            if (probe.result == sat::Result::kUnsat) {
              fixed.back() = Lit::make(key_vars[i]);
            } else if (probe.result != sat::Result::kSat) {
              complete = false;
              break;
            }
          }
          if (complete) {
            for (std::size_t i = 0; i < key_vars.size(); ++i) {
              result.key[i] = !fixed[i].sign();
            }
          }
        }
      } else if (kr == sat::Result::kUnsat) {
        result.status = SatAttackStatus::kInconsistent;
      } else {
        result.status = SatAttackStatus::kTimeout;
      }
      break;
    }

    std::vector<bool> dip;
    dip.reserve(x_vars.size());
    for (Var v : x_vars) dip.push_back(miter.model_bool(v));
    const std::vector<bool> response = oracle.query(dip);
    add_io_constraint(miter, locked, data_inputs, k1, dip, response);
    add_io_constraint(miter, locked, data_inputs, k2, dip, response);
    add_io_constraint(key_solver, locked, data_inputs, key_vars, dip,
                      response);
    ++result.iterations;
  }

  result.seconds = elapsed();
  result.conflicts = miter.total_conflicts();
  return result;
}

AppSatResult run_appsat(const Netlist& locked, QueryOracle& oracle,
                        const AppSatOptions& options) {
  std::mt19937_64 rng(options.seed);

  AppSatResult result;
  const auto data_inputs = locked.data_inputs();
  const auto& key_inputs = locked.key_inputs();

  sat::Solver miter;
  std::vector<Var> x_vars;
  for (std::size_t i = 0; i < data_inputs.size(); ++i) {
    x_vars.push_back(miter.new_var());
  }
  std::vector<Var> k1;
  std::vector<Var> k2;
  for (std::size_t i = 0; i < key_inputs.size(); ++i) k1.push_back(miter.new_var());
  for (std::size_t i = 0; i < key_inputs.size(); ++i) k2.push_back(miter.new_var());
  auto bind = [&](const std::vector<Var>& keys) {
    std::unordered_map<NodeId, Var> bound;
    for (std::size_t i = 0; i < data_inputs.size(); ++i) {
      bound.emplace(data_inputs[i], x_vars[i]);
    }
    for (std::size_t i = 0; i < key_inputs.size(); ++i) {
      bound.emplace(key_inputs[i], keys[i]);
    }
    return bound;
  };
  const cnf::CircuitEncoding enc1 = cnf::encode_circuit(locked, miter, bind(k1));
  const cnf::CircuitEncoding enc2 = cnf::encode_circuit(locked, miter, bind(k2));
  std::vector<Var> out1;
  std::vector<Var> out2;
  for (NodeId id : locked.outputs()) {
    out1.push_back(enc1.var_of(id));
    out2.push_back(enc2.var_of(id));
  }
  cnf::encode_miter(miter, out1, out2);

  sat::Solver key_solver;
  std::vector<Var> key_vars;
  for (std::size_t i = 0; i < key_inputs.size(); ++i) {
    key_vars.push_back(key_solver.new_var());
  }

  auto extract_candidate = [&](std::vector<bool>& key) -> sat::Result {
    const sat::Result kr = key_solver.solve();
    if (kr == sat::Result::kSat) {
      key.clear();
      for (Var v : key_vars) key.push_back(key_solver.model_bool(v));
    }
    return kr;
  };

  auto random_vector = [&](std::size_t width) {
    std::vector<bool> v(width);
    for (std::size_t i = 0; i < width; ++i) v[i] = rng() & 1;
    return v;
  };

  auto settle = [&](const std::vector<bool>& key) -> double {
    netlist::Simulator sim(locked);
    for (std::size_t i = 0; i < key.size(); ++i) {
      sim.set_input_all(key_inputs[i], key[i]);
    }
    std::size_t mismatches = 0;
    for (std::size_t q = 0; q < options.random_queries; ++q) {
      const auto x = random_vector(data_inputs.size());
      const auto y = oracle.query(x);
      for (std::size_t i = 0; i < data_inputs.size(); ++i) {
        sim.set_input_all(data_inputs[i], x[i]);
      }
      sim.evaluate();
      bool differs = false;
      for (std::size_t i = 0; i < locked.outputs().size(); ++i) {
        if (static_cast<bool>(sim.value(locked.outputs()[i]) & 1) != y[i]) {
          differs = true;
          break;
        }
      }
      if (differs) {
        ++mismatches;
        add_io_constraint(miter, locked, data_inputs, k1, x, y);
        add_io_constraint(miter, locked, data_inputs, k2, x, y);
        add_io_constraint(key_solver, locked, data_inputs, key_vars, x, y);
      }
    }
    return options.random_queries == 0
               ? 1.0
               : static_cast<double>(mismatches) / options.random_queries;
  };

  while (true) {
    if (options.max_iterations != 0 &&
        result.iterations >= options.max_iterations) {
      result.status = AppSatStatus::kIterationLimit;
      break;
    }
    const sat::Result r = miter.solve();
    if (r == sat::Result::kUnknown) {
      result.status = AppSatStatus::kTimeout;
      break;
    }
    if (r == sat::Result::kUnsat) {
      const sat::Result kr = extract_candidate(result.key);
      if (kr == sat::Result::kSat) {
        result.status = AppSatStatus::kExact;
        result.sampled_error = 0.0;
      } else if (kr == sat::Result::kUnsat) {
        result.status = AppSatStatus::kInconsistent;
      } else {
        result.status = AppSatStatus::kTimeout;
      }
      break;
    }

    std::vector<bool> dip;
    for (Var v : x_vars) dip.push_back(miter.model_bool(v));
    const auto response = oracle.query(dip);
    add_io_constraint(miter, locked, data_inputs, k1, dip, response);
    add_io_constraint(miter, locked, data_inputs, k2, dip, response);
    add_io_constraint(key_solver, locked, data_inputs, key_vars, dip,
                      response);
    ++result.iterations;

    if (result.iterations % options.settle_interval == 0) {
      std::vector<bool> candidate;
      const sat::Result kr = extract_candidate(candidate);
      if (kr == sat::Result::kUnsat) {
        result.status = AppSatStatus::kInconsistent;
        break;
      }
      if (kr == sat::Result::kUnknown) {
        result.status = AppSatStatus::kTimeout;
        break;
      }
      const double error = settle(candidate);
      if (error <= options.error_threshold) {
        result.status = AppSatStatus::kApproximate;
        result.key = candidate;
        result.sampled_error = error;
        break;
      }
    }
  }
  return result;
}

}  // namespace legacy

// ---------------------------------------------------------------------------

TEST(AttackEngine, SatAttackMatchesLegacyBitForBit) {
  // jobs == 1, specialization off: same DIP sequence, same solver stream,
  // so status / iteration count / key / conflicts must all be identical.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Netlist host = host_circuit(seed);
    const auto locked = locking::lock_xor(host, 12, 20 + seed);
    SatAttackOptions options;
    options.specialize_dips = false;
    // The legacy replica predates the simplification layers; pin them off
    // so the solver streams stay comparable conflict-for-conflict.
    options.preprocess = false;
    options.inprocess = false;

    Oracle legacy_oracle(locked.netlist, locked.key);
    const auto expected =
        legacy::run_sat_attack(locked.netlist, legacy_oracle, options);
    Oracle oracle(locked.netlist, locked.key);
    const auto actual = run_sat_attack(locked.netlist, oracle, options);

    ASSERT_EQ(actual.status, expected.status) << "seed " << seed;
    EXPECT_EQ(actual.iterations, expected.iterations) << "seed " << seed;
    EXPECT_EQ(actual.key, expected.key) << "seed " << seed;
    EXPECT_EQ(actual.conflicts, expected.conflicts) << "seed " << seed;
    EXPECT_EQ(actual.saved_clauses, 0u);
  }
}

TEST(AttackEngine, AppSatMatchesLegacyBitForBit) {
  const Netlist host = host_circuit(4);
  const auto locked = locking::lock_lut(host, 6, 41);
  AppSatOptions options;
  options.specialize_dips = false;
  options.max_iterations = 64;
  options.preprocess = false;
  options.inprocess = false;

  Oracle legacy_oracle(locked.netlist, locked.key);
  const auto expected =
      legacy::run_appsat(locked.netlist, legacy_oracle, options);
  Oracle oracle(locked.netlist, locked.key);
  const auto actual = run_appsat(locked.netlist, oracle, options);

  ASSERT_EQ(actual.status, expected.status);
  EXPECT_EQ(actual.iterations, expected.iterations);
  EXPECT_EQ(actual.key, expected.key);
  EXPECT_EQ(actual.sampled_error, expected.sampled_error);
}

TEST(AttackEngine, SpecializedEncodingSameVerdictFewerClauses) {
  // Cone specialization must not change the verdict or the canonical key,
  // and must cut the per-DIP constraint clauses by at least 3x on an
  // RIL-locked host (acceptance bar; in practice the cut is much larger).
  const Netlist host = host_circuit(5, 400);
  core::RilBlockConfig config;
  config.size = 4;
  const auto ril = locking::lock_ril(host, 1, config, 55);

  SatAttackOptions full_options;
  full_options.specialize_dips = false;
  Oracle full_oracle(ril.locked.netlist, ril.locked.key);
  const auto full =
      run_sat_attack(ril.locked.netlist, full_oracle, full_options);

  SatAttackOptions cone_options;
  cone_options.specialize_dips = true;
  cone_options.record_solves = true;
  Oracle cone_oracle(ril.locked.netlist, ril.locked.key);
  const auto cone =
      run_sat_attack(ril.locked.netlist, cone_oracle, cone_options);

  ASSERT_EQ(full.status, SatAttackStatus::kKeyFound);
  ASSERT_EQ(cone.status, SatAttackStatus::kKeyFound);
  // Canonical minimization makes the key independent of the DIP sequence.
  EXPECT_EQ(cone.key, full.key);
  EXPECT_TRUE(
      cnf::check_equivalence(ril.locked.netlist, host, cone.key, {})
          .equivalent());

  ASSERT_GT(cone.iterations, 0u);
  ASSERT_GT(cone.encoded_clauses, 0u);
  // saved + encoded is what the historical encoder would have emitted.
  const std::size_t would_have = cone.encoded_clauses + cone.saved_clauses;
  EXPECT_GE(would_have, 3 * cone.encoded_clauses)
      << "cone encoding saved less than 3x (" << cone.encoded_clauses
      << " encoded vs " << would_have << " full)";
  // The per-solve log carries the same totals.
  std::size_t logged_encoded = 0;
  std::size_t logged_saved = 0;
  for (const auto& record : cone.solve_log) {
    logged_encoded += record.encoded_clauses;
    logged_saved += record.saved_clauses;
    const std::string json = solve_record_json(record);
    EXPECT_NE(json.find("\"encoded_clauses\":"), std::string::npos);
    EXPECT_NE(json.find("\"saved_clauses\":"), std::string::npos);
  }
  EXPECT_EQ(logged_encoded, cone.encoded_clauses);
  EXPECT_EQ(logged_saved, cone.saved_clauses);
}

TEST(AttackEngine, SpecializeInputsMatchesSimulation) {
  // The DIP-cofactored, simplified cone must agree with the original
  // circuit on every key for the pinned input pattern.
  const Netlist host = host_circuit(6);
  const auto locked = locking::lock_xor(host, 10, 66);
  const auto data_inputs = locked.netlist.data_inputs();
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<bool> dip(data_inputs.size());
    for (auto&& b : dip) b = rng() & 1;
    Netlist cone =
        netlist::specialize_inputs(locked.netlist, data_inputs, dip);
    netlist::simplify(cone);
    ASSERT_EQ(cone.key_inputs().size(), locked.netlist.key_inputs().size());
    ASSERT_EQ(cone.outputs().size(), locked.netlist.outputs().size());
    for (int k = 0; k < 4; ++k) {
      std::vector<bool> key(locked.key.size());
      for (auto&& b : key) b = rng() & 1;
      EXPECT_EQ(netlist::evaluate_with_key(cone, {}, key),
                netlist::evaluate_with_key(locked.netlist, dip, key));
    }
  }
}

TEST(AttackEngine, SpecializeInputsRejectsKeyInputs) {
  const Netlist host = host_circuit(7);
  const auto locked = locking::lock_xor(host, 4, 77);
  const std::vector<NodeId> keys = locked.netlist.key_inputs();
  EXPECT_THROW(netlist::specialize_inputs(locked.netlist, keys,
                                          std::vector<bool>(keys.size())),
               std::invalid_argument);
}

TEST(AttackEngine, CancellationFlagStopsAttack) {
  const Netlist host = host_circuit(8, 400);
  core::RilBlockConfig config;
  config.size = 8;
  const auto ril = locking::lock_ril(host, 2, config, 88);
  Oracle oracle(ril.locked.netlist, ril.locked.key);
  std::atomic<bool> cancel{true};  // raised before the attack starts
  SatAttackOptions options;
  options.cancel = &cancel;
  const auto result = run_sat_attack(ril.locked.netlist, oracle, options);
  EXPECT_EQ(result.status, SatAttackStatus::kTimeout);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(AttackEngine, SimulatorReuseOverloadsMatch) {
  const Netlist host = host_circuit(9);
  const auto locked = locking::lock_xor(host, 8, 99);
  netlist::Simulator sim(locked.netlist);
  std::mt19937_64 rng(11);
  for (int t = 0; t < 8; ++t) {
    std::vector<bool> x(locked.netlist.data_inputs().size());
    for (auto&& b : x) b = rng() & 1;
    std::vector<bool> key(locked.key.size());
    for (auto&& b : key) b = rng() & 1;
    EXPECT_EQ(netlist::evaluate_with_key(sim, x, key),
              netlist::evaluate_with_key(locked.netlist, x, key));
    netlist::Simulator host_sim(host);
    EXPECT_EQ(netlist::evaluate_once(host_sim, x),
              netlist::evaluate_once(host, x));
  }
}

TEST(AttackEngine, SampleKeyMismatchesFindsWrongKeys) {
  const Netlist host = host_circuit(10);
  const auto locked = locking::lock_xor(host, 8, 100);
  Oracle oracle(locked.netlist, locked.key);
  netlist::Simulator sim(locked.netlist);

  std::mt19937_64 rng(13);
  const auto clean =
      sample_key_mismatches(sim, locked.key, oracle, 32, rng);
  EXPECT_TRUE(clean.empty());  // correct key never disagrees

  std::vector<bool> wrong = locked.key;
  wrong[0] = !wrong[0];
  std::mt19937_64 rng2(13);
  const auto dirty = sample_key_mismatches(sim, wrong, oracle, 64, rng2);
  EXPECT_FALSE(dirty.empty());
  for (const auto& [x, y] : dirty) {
    EXPECT_EQ(oracle.query(x), y);
    EXPECT_NE(netlist::evaluate_with_key(sim, x, wrong), y);
  }
}

TEST(AttackEngine, CountingSinkCountsBothModes) {
  sat::CountingSink dry;  // standalone: prices without storing
  const Var a = dry.new_var();
  const Var b = dry.new_var();
  dry.add_clause({Lit::make(a), Lit::make(b)});
  dry.add_clause({Lit::make(a, true)});
  EXPECT_EQ(dry.vars(), 2u);
  EXPECT_EQ(dry.clauses(), 2u);

  sat::Solver solver;
  sat::CountingSink wrapped(&solver);
  const Var c = wrapped.new_var();
  wrapped.add_clause({Lit::make(c)});
  EXPECT_EQ(wrapped.vars(), 1u);
  EXPECT_EQ(wrapped.clauses(), 1u);
  EXPECT_EQ(solver.solve(), sat::Result::kSat);
  EXPECT_TRUE(solver.model_bool(c));
}

TEST(AttackEngine, BudgetRecordsConstraintCosts) {
  engine::AttackBudget budget(0.0);
  EXPECT_FALSE(budget.limited());
  EXPECT_FALSE(budget.expired());
  budget.enable_recording(true);
  budget.record(0, "miter", {});
  budget.add_constraints({100, 40});
  budget.record(1, "miter", {});
  budget.add_constraints({50, 10});
  EXPECT_EQ(budget.constraint_totals().encoded_clauses, 150u);
  EXPECT_EQ(budget.constraint_totals().saved_clauses, 50u);
  const auto log = budget.take_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].encoded_clauses, 100u);
  EXPECT_EQ(log[1].saved_clauses, 10u);
}

TEST(AttackEngine, ScanSatWrapperRecoversKey) {
  benchgen::RandomSequentialParams params;
  params.combinational.num_inputs = 10;
  params.combinational.num_outputs = 6;
  params.combinational.num_gates = 150;
  params.combinational.seed = 12;
  params.num_dffs = 8;
  const Netlist seq = benchgen::generate_random_sequential(params);
  ScanOracle oracle(seq);
  const Netlist core = seq.combinational_core();
  const auto locked = locking::lock_xor(core, 8, 120);

  // Interface mismatch (sequential netlist instead of the core) rejected.
  EXPECT_THROW(run_scansat_attack(seq, oracle), std::invalid_argument);

  const auto result = run_scansat_attack(locked.netlist, oracle);
  ASSERT_EQ(result.status, SatAttackStatus::kKeyFound);
  EXPECT_TRUE(cnf::check_equivalence(locked.netlist, core, result.key, {})
                  .equivalent());
}

}  // namespace
}  // namespace ril::attacks
