// google-benchmark micro-kernels for the core engines: bit-parallel logic
// simulation, Tseitin encoding, CDCL propagation-heavy solving, RIL miter
// search, miter preprocessing, banyan construction, and RIL insertion.
// These are the throughput numbers behind the table benches' wall-clock
// results.
#include <benchmark/benchmark.h>

#include <random>

#include "attacks/engine/dip_encoder.hpp"
#include "attacks/engine/miter_context.hpp"
#include "attacks/oracle.hpp"
#include "benchgen/random_dag.hpp"
#include "benchgen/suite.hpp"
#include "cnf/tseitin.hpp"
#include "core/banyan.hpp"
#include "core/ril_block.hpp"
#include "locking/schemes.hpp"
#include "netlist/simulator.hpp"
#include "sat/preprocessor.hpp"
#include "sat/solver.hpp"

namespace {

using namespace ril;

netlist::Netlist make_host(std::size_t gates) {
  benchgen::RandomDagParams params;
  params.num_inputs = 64;
  params.num_outputs = 32;
  params.num_gates = gates;
  params.seed = 42;
  return benchgen::generate_random_dag(params);
}

void BM_Simulate64Patterns(benchmark::State& state) {
  const auto nl = make_host(static_cast<std::size_t>(state.range(0)));
  netlist::Simulator sim(nl);
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    for (netlist::NodeId id : nl.inputs()) sim.set_input(id, rng());
    sim.evaluate();
    benchmark::DoNotOptimize(sim.value(nl.outputs()[0]));
  }
  state.SetItemsProcessed(state.iterations() * nl.gate_count() * 64);
}
BENCHMARK(BM_Simulate64Patterns)->Arg(1000)->Arg(10000);

void BM_TseitinEncode(benchmark::State& state) {
  const auto nl = make_host(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sat::Solver solver;
    const auto enc = cnf::encode_circuit(nl, solver);
    benchmark::DoNotOptimize(enc.node_var.back());
  }
  state.SetItemsProcessed(state.iterations() * nl.gate_count());
}
BENCHMARK(BM_TseitinEncode)->Arg(1000)->Arg(10000);

void BM_SolverRandom3Sat(benchmark::State& state) {
  // Near-threshold random 3-SAT (clause/var ratio 4.1).
  const std::size_t num_vars = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(7);
  std::vector<sat::Clause> clauses;
  for (std::size_t c = 0; c < num_vars * 41 / 10; ++c) {
    sat::Clause clause;
    for (int l = 0; l < 3; ++l) {
      clause.push_back(sat::Lit::make(
          static_cast<sat::Var>(rng() % num_vars), rng() & 1));
    }
    clauses.push_back(clause);
  }
  for (auto _ : state) {
    sat::Solver solver;
    for (const auto& clause : clauses) solver.add_clause(clause);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SolverRandom3Sat)->Arg(100)->Arg(200);

/// Forwards to a solver and records every variable and clause, so a
/// formula built up over a DIP loop can be replayed into fresh solvers.
class RecordingSink final : public sat::ClauseSink {
 public:
  explicit RecordingSink(sat::Solver& inner) : inner_(inner) {}
  sat::Var new_var() override { return inner_.new_var(); }
  void ensure_var(sat::Var v) override { inner_.ensure_var(v); }
  bool add_clause(sat::Clause lits) override {
    for (const sat::Lit l : lits) clauses_.push(l);
    clauses_.seal();
    return inner_.add_clause(std::move(lits));
  }
  bool add_clauses(const sat::ClauseBatch& batch) override {
    clauses_.lits.insert(clauses_.lits.end(), batch.lits.begin(),
                         batch.lits.end());
    const auto base = static_cast<std::uint32_t>(
        clauses_.lit_count() - batch.lit_count());
    for (const std::uint32_t end : batch.ends) {
      clauses_.ends.push_back(base + end);
    }
    return inner_.add_clauses(batch);
  }
  using sat::ClauseSink::add_clause;
  const sat::ClauseBatch& clauses() const { return clauses_; }

 private:
  sat::Solver& inner_;
  sat::ClauseBatch clauses_;
};

void BM_SolveRilMiter(benchmark::State& state) {
  // The search layer alone: the miter of one attack-ril shape (c7552 at
  // scale 0.15, two 8x8 RIL blocks) with the I/O constraints of its whole
  // DIP loop, i.e. the formula of the attack's last, UNSAT miter solve.
  // Captured once; each iteration replays it into a fresh solver (not
  // timed) and searches under a fixed conflict budget. The counters are
  // exact for the code under test, so the rates compare only the cost of
  // each propagation and conflict.
  const auto host = benchgen::make_benchmark("c7552", 0.15);
  core::RilBlockConfig config;
  config.size = 8;
  const auto ril = locking::lock_ril(host, 2, config, 7);
  const netlist::Netlist& locked = ril.locked.netlist;
  attacks::Oracle oracle(locked, ril.locked.key);
  sat::Solver loop;
  RecordingSink recorder(loop);
  const attacks::engine::MiterContext ctx(locked, recorder);
  attacks::engine::DipConstraintEncoder dips(locked, /*specialize=*/true);
  std::size_t rounds = 0;
  while (loop.solve() == sat::Result::kSat) {
    const std::vector<bool> dip =
        ctx.extract_dip([&](sat::Var v) { return loop.model_bool(v); });
    const std::vector<bool> response = oracle.query(dip);
    dips.add_constraint(recorder, ctx.copy(0).key_vars, dip, response);
    dips.add_constraint(recorder, ctx.copy(1).key_vars, dip, response);
    ++rounds;
  }
  const std::size_t num_vars = loop.num_vars();
  const std::uint64_t budget = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sat::Solver solver;
    solver.ensure_var(static_cast<sat::Var>(num_vars) - 1);
    solver.add_clauses(recorder.clauses());
    solver.set_limits({.conflict_limit = budget});
    state.ResumeTiming();
    benchmark::DoNotOptimize(solver.solve());
    propagations += solver.stats().propagations;
    conflicts += solver.stats().conflicts;
  }
  state.counters["propagations_per_s"] = benchmark::Counter(
      static_cast<double>(propagations), benchmark::Counter::kIsRate);
  state.counters["conflicts_per_s"] = benchmark::Counter(
      static_cast<double>(conflicts), benchmark::Counter::kIsRate);
  state.SetLabel(std::to_string(rounds) + " DIPs, " +
                 std::to_string(conflicts / state.iterations()) +
                 " conflicts/solve");
}
BENCHMARK(BM_SolveRilMiter)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_PreprocessMiter(benchmark::State& state) {
  // A miter of the serve workload's capped-attack shape (b20 at scale 1,
  // one 8x8 RIL block), captured once and replayed into a fresh
  // Preprocessor per iteration with the SAT attack's freeze set and DRAT
  // steps recorded: staging plus run(), in submitted clauses per second.
  const auto host = benchgen::make_benchmark("b20", 1.0);
  core::RilBlockConfig config;
  config.size = 8;
  const auto ril = locking::lock_ril(host, 1, config, 104729);
  const netlist::Netlist& locked = ril.locked.netlist;
  attacks::engine::MiterSkeleton skeleton;
  {
    sat::CountingSink dry;
    const attacks::engine::MiterContext capture(locked, dry, &skeleton);
  }
  for (auto _ : state) {
    sat::Preprocessor prep;
    const attacks::engine::MiterContext ctx(locked, skeleton, prep);
    prep.freeze(ctx.input_vars());
    prep.freeze(ctx.copy(0).key_vars);
    prep.freeze(ctx.copy(1).key_vars);
    prep.enable_proof();
    prep.run();
    benchmark::DoNotOptimize(prep.stats().clauses_after);
  }
  state.SetItemsProcessed(state.iterations() * skeleton.clauses.size());
  state.SetLabel(std::to_string(skeleton.clauses.size()) + " clauses/miter");
}
BENCHMARK(BM_PreprocessMiter)->Unit(benchmark::kMillisecond);

void BM_BanyanPermutation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<bool> keys(core::banyan_switch_count(n));
  std::mt19937_64 rng(3);
  for (auto&& k : keys) k = rng() & 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::banyan_permutation(keys, n));
  }
}
BENCHMARK(BM_BanyanPermutation)->Arg(8)->Arg(64)->Arg(256);

void BM_RilInsertion(benchmark::State& state) {
  const auto host = make_host(4000);
  core::RilBlockConfig config;
  config.size = 8;
  config.output_network = true;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    netlist::Netlist locked = host;
    benchmark::DoNotOptimize(
        core::insert_ril_blocks(locked, 3, config, seed++));
  }
}
BENCHMARK(BM_RilInsertion);

void BM_OracleQuery(benchmark::State& state) {
  const auto host = make_host(4000);
  const auto locked = locking::lock_xor(host, 32, 5);
  attacks::Oracle oracle(locked.netlist, locked.key);
  std::mt19937_64 rng(9);
  std::vector<bool> x(oracle.num_data_inputs());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng() & 1;
    benchmark::DoNotOptimize(oracle.query(x));
  }
}
BENCHMARK(BM_OracleQuery);

}  // namespace

BENCHMARK_MAIN();
