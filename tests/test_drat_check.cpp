// Verdict certification: DRAT proof logging in the solver/portfolio, the
// independent forward RUP checker, the model self-check, and the certified
// end-to-end SAT attack.
#include "sat/drat_check.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/equivalence.hpp"
#include "core/ril_block.hpp"
#include "locking/schemes.hpp"
#include "runtime/portfolio.hpp"
#include "proof_files.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace ril::sat {
namespace {

using runtime::SolverPortfolio;
using test::derivations_via_file;
using test::read_steps;
using test::refutation_via_file;
using test::temp_path;

DratCheckResult refute_text(const std::string& steps) {
  return test::check_text(steps, check_refutation_file);
}

DratCheckResult derive_text(const std::string& steps) {
  return test::check_text(steps, check_derivations_file);
}

void add_pigeonhole(ClauseSink& sink, int pigeons, int holes) {
  auto var = [&](int p, int h) { return p * holes + h; };
  sink.ensure_var(pigeons * holes - 1);
  for (int p = 0; p < pigeons; ++p) {
    Clause somewhere;
    for (int h = 0; h < holes; ++h) somewhere.push_back(Lit::make(var(p, h)));
    sink.add_clause(somewhere);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        sink.add_clause(
            {Lit::make(var(p1, h), true), Lit::make(var(p2, h), true)});
      }
    }
  }
}

// --- trace serialization ---------------------------------------------------

TEST(ProofTrace, TextRoundTrip) {
  DratTrace trace;
  trace.original({Lit::make(0), Lit::make(1, true)});
  trace.derive({Lit::make(2)});
  trace.erase({Lit::make(0), Lit::make(1, true)});
  trace.derive({});
  EXPECT_TRUE(trace.closed());

  const std::string text = test::to_text(trace);
  EXPECT_EQ(text, "o 1 -2 0\na 3 0\nd 1 -2 0\na 0\n");
  const std::string path = test::text_trace_file(text);
  const DratTrace reparsed = read_steps(path);
  std::remove(path.c_str());
  ASSERT_EQ(reparsed.size(), trace.size());
  EXPECT_TRUE(reparsed.closed());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(reparsed.steps()[i].kind, trace.steps()[i].kind);
    EXPECT_EQ(reparsed.steps()[i].lits, trace.steps()[i].lits);
  }
}

TEST(ProofTrace, ParserRejectsMalformedInput) {
  const auto read_text = [](const std::string& steps) {
    const std::string path = test::text_trace_file(steps);
    try {
      const DratTrace trace = read_steps(path);
      std::remove(path.c_str());
      return trace;
    } catch (...) {
      std::remove(path.c_str());
      throw;
    }
  };
  EXPECT_THROW(read_text("x 1 0\n"), std::runtime_error);
  EXPECT_THROW(read_text("a 1 2\n"), std::runtime_error);  // no 0
  EXPECT_THROW(read_text("a 1 0 junk\n"), std::runtime_error);
  // Comments and blank lines are fine.
  EXPECT_EQ(read_text("c a comment\n\na 0\n").size(), 1u);
}

// --- checker on hand-written traces ---------------------------------------

TEST(DratCheck, AcceptsMinimalRefutation) {
  const DratCheckResult result = refute_text("o 1 0\no -1 0\na 0\n");
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_EQ(result.stats.originals, 2u);
}

TEST(DratCheck, AcceptsResolutionChain) {
  // (x1 | x2) (x1 | -x2) (-x1 | x3) (-x1 | -x3) with the derived units.
  EXPECT_TRUE(
      refute_text("o 1 2 0\no 1 -2 0\no -1 3 0\no -1 -3 0\na 1 0\na 0\n")
          .valid);
}

TEST(DratCheck, RejectsOpenTrace) {
  const DratCheckResult result = refute_text("o 1 0\no -1 0\n");
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("empty clause"), std::string::npos);
}

TEST(DratCheck, RejectsNonRupDerivation) {
  const DratCheckResult result = refute_text("o 1 2 0\na 1 0\na 0\n");
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("not RUP"), std::string::npos);
}

TEST(DratCheck, RejectsUnfoundedEmptyClause) {
  EXPECT_FALSE(refute_text("o 1 0\na 0\n").valid);
}

TEST(DratCheck, RejectsDeletionOfUnknownClause) {
  const DratCheckResult result =
      refute_text("o 1 0\no -1 0\nd 2 3 0\na 0\n");
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("deletion"), std::string::npos);
}

TEST(DratCheck, DeletionRemovesPropagationPower) {
  // Without the deletion the final unit is RUP; after deleting the clause
  // that provided it, the derivation must be rejected.
  EXPECT_TRUE(refute_text("o 1 2 0\no -2 0\na 1 0\no -1 0\na 0\n").valid);
  EXPECT_FALSE(
      refute_text("o 1 2 0\nd 1 2 0\no -2 0\na 1 0\no -1 0\na 0\n").valid);
}

TEST(DratCheck, HandlesTautologyAndDuplicateLiterals) {
  EXPECT_TRUE(refute_text("o 1 -1 0\no 2 2 0\no -2 0\na 0\n").valid);
}

// (1 2) is the only support of "a 3 0" here: assuming -3 propagates -1 and
// -2 through the two binaries, and a live copy of (1 2) then conflicts.
// None of the axioms is a unit, so nothing is ever anchored.
constexpr const char* kNeedsOneTwo = "o -1 3 0\no -2 3 0\n";

TEST(DratCheck, IdenticalClausesFormAMultiset) {
  const DratCheckResult one_left = derive_text(
      std::string("o 1 2 0\no 1 2 0\n") + kNeedsOneTwo + "d 1 2 0\na 3 0\n");
  EXPECT_TRUE(one_left.valid) << one_left.error;
  EXPECT_EQ(one_left.stats.deletions, 1u);

  const DratCheckResult none_left =
      derive_text(std::string("o 1 2 0\no 1 2 0\n") + kNeedsOneTwo +
                  "d 1 2 0\nd 2 1 0\na 3 0\n");
  EXPECT_FALSE(none_left.valid);
  EXPECT_EQ(none_left.error, "step 7: derived clause is not RUP");
  EXPECT_EQ(none_left.stats.deletions, 2u);

  const DratCheckResult third =
      derive_text("o 1 2 0\no 1 2 0\nd 1 2 0\nd 1 2 0\nd 1 2 0\n");
  EXPECT_FALSE(third.valid);
  EXPECT_EQ(third.error, "step 5: deletion of a clause not in the database");
  EXPECT_EQ(third.stats.deletions, 2u);
}

TEST(DratCheck, DeletionMatchesAnyLiteralOrderAfterWatchMoves) {
  // The unit -1 makes propagation move the watch of (1 2 3 4) off x1,
  // permuting the stored clause; the RUP query for "a 2 5 0" moves its
  // watch off x2 as well. The deletion, written in yet another order and
  // with a duplicate literal, must still find the clause, and must really
  // remove it: "a 4 0" is RUP only while it is live.
  const std::string prefix =
      "o 1 2 3 4 0\no -1 0\no 5 6 0\no 5 -6 0\na 2 5 0\n";
  const std::string suffix = "o -2 0\no -3 0\na 4 0\n";
  const DratCheckResult kept = derive_text(prefix + suffix);
  EXPECT_TRUE(kept.valid) << kept.error;

  const DratCheckResult erased =
      derive_text(prefix + "d 3 1 4 3 2 0\n" + suffix);
  EXPECT_FALSE(erased.valid);
  EXPECT_EQ(erased.error, "step 9: derived clause is not RUP");
  EXPECT_EQ(erased.stats.deletions, 1u);
  EXPECT_EQ(erased.stats.ignored_deletions, 0u);
}

TEST(DratCheck, DeletingAUnitAnchorIsIgnoredAndCounted) {
  // -2 forces 1 through (1 2): the clause is the reason for a persistent
  // assignment, so deleting it (twice -- it stays live) and deleting the
  // unit -2 itself are all ignored. (3 4) anchors nothing and goes.
  const DratCheckResult result = derive_text(
      "o 1 2 0\no -2 0\no 3 4 0\nd 2 1 0\nd 1 2 0\nd -2 0\nd 3 4 0\n");
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_EQ(result.stats.originals, 3u);
  EXPECT_EQ(result.stats.ignored_deletions, 3u);
  EXPECT_EQ(result.stats.deletions, 1u);
}

// --- solver-emitted proofs -------------------------------------------------

TEST(SolverProof, PigeonholeRefutationChecks) {
  Solver solver;
  DratTrace trace;
  solver.set_proof(&trace);
  add_pigeonhole(solver, 4, 3);
  ASSERT_EQ(solver.solve(), Result::kUnsat);
  ASSERT_TRUE(trace.closed());
  const DratCheckResult result = refutation_via_file(trace);
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_GT(result.stats.derivations, 0u);
}

TEST(SolverProof, SurvivesTextRoundTripAndRejectsMutations) {
  Solver solver;
  DratTrace trace;
  solver.set_proof(&trace);
  add_pigeonhole(solver, 5, 4);
  ASSERT_EQ(solver.solve(), Result::kUnsat);
  const std::string text = test::to_text(trace);
  ASSERT_TRUE(refute_text(text).valid);

  // Corruption 1: drop the closing empty clause.
  const std::string open = text.substr(0, text.rfind("a 0\n"));
  EXPECT_FALSE(refute_text(open).valid);

  // Corruption 2: drop an axiom -- some later step loses its support.
  std::string weaker = text;
  const auto first_o = weaker.find("o ");
  weaker.erase(first_o, weaker.find('\n', first_o) - first_o + 1);
  EXPECT_FALSE(refute_text(weaker).valid);
}

TEST(SolverProof, DbReductionDeletionsStayCheckable) {
  // A tiny learned-clause cap forces reduce_learned_db (hence deletion
  // lines) many times before the refutation completes.
  Solver solver;
  SolverConfig config;
  config.max_learned = 32;
  config.restart_base = 16;
  solver.set_config(config);
  DratTrace trace;
  solver.set_proof(&trace);
  add_pigeonhole(solver, 7, 6);
  ASSERT_EQ(solver.solve(), Result::kUnsat);
  std::size_t deletions = 0;
  for (const ProofStep& step : trace.steps()) {
    deletions += step.kind == ProofStepKind::kErase;
  }
  EXPECT_GT(deletions, 0u) << "cap never triggered a DB reduction";
  const DratCheckResult result = refutation_via_file(trace);
  EXPECT_TRUE(result.valid) << result.error;
}

TEST(SolverProof, IncrementalSolvesShareOneTrace) {
  Solver solver;
  DratTrace trace;
  solver.set_proof(&trace);
  for (int i = 0; i < 6; ++i) solver.new_var();
  Clause any;
  for (int i = 0; i < 6; ++i) any.push_back(Lit::make(i));
  solver.add_clause(any);
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_FALSE(trace.closed());
  EXPECT_TRUE(solver.verify_model());
  for (int i = 0; i < 6; ++i) {
    solver.add_clause({Lit::make(i, true)});
  }
  ASSERT_EQ(solver.solve(), Result::kUnsat);
  ASSERT_TRUE(trace.closed());
  const DratCheckResult result = refutation_via_file(trace);
  EXPECT_TRUE(result.valid) << result.error;
}

TEST(SolverProof, UnsatUnderAssumptionsEmitsFailedAssumptionCore) {
  // Minimized regression for the assumption-UNSAT certification gap: the
  // solve used to bail out without a final derivation, leaving a trace
  // that neither closed nor explained the conflict. Now it must end with
  // the failed-assumption core (here: the clause {x0, x1}, negating the
  // two assumptions), every step RUP over the logged axioms.
  Solver solver;
  DratTrace trace;
  solver.set_proof(&trace);
  solver.ensure_var(1);
  solver.add_clause({Lit::make(0), Lit::make(1)});
  ASSERT_EQ(solver.solve({Lit::make(0, true), Lit::make(1, true)}),
            Result::kUnsat);
  // Still no empty clause -- the formula itself is satisfiable.
  EXPECT_FALSE(trace.closed());
  EXPECT_FALSE(refutation_via_file(trace).valid);
  // But the trace is a valid open certificate ending in the core.
  const DratCheckResult derivations = derivations_via_file(trace);
  EXPECT_TRUE(derivations.valid) << derivations.error;
  ASSERT_FALSE(trace.steps().empty());
  const ProofStep& last = trace.steps().back();
  EXPECT_EQ(last.kind, ProofStepKind::kDerive);
  Clause core = last.lits;
  std::sort(core.begin(), core.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  const Clause expected = {Lit::make(0), Lit::make(1)};
  EXPECT_EQ(core, expected);
  // The solver stays usable.
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_TRUE(solver.verify_model());
}

TEST(SolverProof, FalsifiedAssumptionEmitsUnitCore) {
  // The other assumption-UNSAT exit: an assumption already falsified at
  // level 0 (x0 is forced true, assumed false). The core is the unit
  // clause {x0} -- one unit propagation from the axioms, hence RUP.
  Solver solver;
  DratTrace trace;
  solver.set_proof(&trace);
  solver.ensure_var(0);
  solver.add_clause({Lit::make(0)});
  ASSERT_EQ(solver.solve({Lit::make(0, true)}), Result::kUnsat);
  EXPECT_FALSE(trace.closed());
  const DratCheckResult derivations = derivations_via_file(trace);
  EXPECT_TRUE(derivations.valid) << derivations.error;
  ASSERT_FALSE(trace.steps().empty());
  EXPECT_EQ(trace.steps().back().kind, ProofStepKind::kDerive);
  const Clause expected = {Lit::make(0)};
  EXPECT_EQ(trace.steps().back().lits, expected);
}

TEST(SolverProof, RootConflictFromAddClauseIsCertified) {
  Solver solver;
  DratTrace trace;
  solver.set_proof(&trace);
  solver.ensure_var(0);
  EXPECT_TRUE(solver.add_clause({Lit::make(0)}));
  EXPECT_FALSE(solver.add_clause({Lit::make(0, true)}));
  EXPECT_FALSE(solver.okay());
  ASSERT_TRUE(trace.closed());
  EXPECT_TRUE(refutation_via_file(trace).valid);
}

TEST(SolverProof, VerifyModelCoversAssumptions) {
  Solver solver;
  solver.ensure_var(1);
  solver.add_clause({Lit::make(0), Lit::make(1)});
  ASSERT_EQ(solver.solve({Lit::make(0)}), Result::kSat);
  EXPECT_TRUE(solver.verify_model({Lit::make(0)}));
  // A literal the model falsifies must fail the check.
  const Lit forced = solver.model_bool(0) ? Lit::make(0, true) : Lit::make(0);
  EXPECT_FALSE(solver.verify_model({forced}));
}

// --- checker output pins ---------------------------------------------------
//
// The exact DratCheckStats the checker reports on four solver-generated
// refutations. Every field -- propagations and ignored deletions included --
// follows from the checker's watch order, propagation order and deletion
// rules, so a change to the checker's data layout must leave them all
// unchanged. The trace's own size is pinned first: if a solver change
// alters the trace, that assertion fails and the pins need re-recording,
// which is a solver change, not a checker regression.

struct PinnedTrace {
  const char* name;
  DratTrace trace;
  std::size_t steps;
  DratCheckStats stats;
};

DratTrace reduced_pigeonhole_trace() {
  // A tiny learned-clause cap forces DB reductions, hence deletion lines.
  Solver solver;
  SolverConfig config;
  config.max_learned = 32;
  config.restart_base = 16;
  solver.set_config(config);
  DratTrace trace;
  solver.set_proof(&trace);
  add_pigeonhole(solver, 7, 6);
  EXPECT_EQ(solver.solve(), Result::kUnsat);
  return trace;
}

/// Reads the trace published at `path` and removes the file.
DratTrace take_steps(const std::string& path) {
  DratTrace trace = read_steps(path);
  std::remove(path.c_str());
  return trace;
}

DratTrace preprocessed_pigeonhole_trace() {
  const std::string path = temp_path("pins_prep.drat");
  SolverPortfolio portfolio(1, 5);
  portfolio.enable_proof(path);
  portfolio.enable_preprocessing();
  add_pigeonhole(portfolio, 7, 6);
  EXPECT_EQ(portfolio.solve().result, Result::kUnsat);
  portfolio.promote_winner_trace(path);
  return take_steps(path);
}

DratTrace inprocessed_pigeonhole_trace() {
  // Vivification, subsumption and probing at every restart.
  Solver solver;
  SolverConfig config;
  config.restart_base = 4;
  solver.set_config(config);
  InprocessConfig inprocess;
  inprocess.enabled = true;
  inprocess.interval_base = 1;
  inprocess.interval_growth = 0;
  solver.set_inprocess(inprocess);
  DratTrace trace;
  solver.set_proof(&trace);
  add_pigeonhole(solver, 7, 6);
  EXPECT_EQ(solver.solve(), Result::kUnsat);
  EXPECT_GT(solver.inprocess_stats().passes, 0u);
  return trace;
}

DratTrace attack_trace() {
  // A certified RIL-Block attack; its DB reductions delete some clauses
  // that anchor checker-side units, so ignored_deletions is non-zero.
  benchgen::RandomDagParams params;
  params.num_inputs = 12;
  params.num_outputs = 6;
  params.num_gates = 200;
  params.seed = 2;
  const netlist::Netlist host = benchgen::generate_random_dag(params);
  core::RilBlockConfig config;
  config.size = 4;
  const auto ril = locking::lock_ril(host, 1, config, 33);
  attacks::Oracle oracle(ril.locked.netlist, ril.locked.key);
  attacks::SatAttackOptions options;
  options.certify = true;
  options.proof_file = temp_path("pins_attack.drat");
  const auto result =
      attacks::run_sat_attack(ril.locked.netlist, oracle, options);
  EXPECT_EQ(result.status, attacks::SatAttackStatus::kKeyFound);
  return take_steps(options.proof_file);
}

std::vector<PinnedTrace> pinned_traces() {
  std::vector<PinnedTrace> out;
  out.push_back({"reduced", reduced_pigeonhole_trace(), 3427,
                 {133, 1823, 1471, 0, 48933}});
  out.push_back({"preprocessed", preprocessed_pigeonhole_trace(), 977,
                 {133, 844, 0, 0, 22749}});
  out.push_back({"inprocessed", inprocessed_pigeonhole_trace(), 4202,
                 {133, 2226, 1843, 0, 44161}});
  out.push_back({"attack", attack_trace(), 4353,
                 {2935, 711, 695, 12, 30920}});
  return out;
}

void expect_same_result(const DratCheckResult& got,
                        const DratCheckResult& want, const std::string& what) {
  EXPECT_EQ(got.valid, want.valid) << what;
  EXPECT_EQ(got.malformed, want.malformed) << what;
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.stats.originals, want.stats.originals) << what;
  EXPECT_EQ(got.stats.derivations, want.stats.derivations) << what;
  EXPECT_EQ(got.stats.deletions, want.stats.deletions) << what;
  EXPECT_EQ(got.stats.ignored_deletions, want.stats.ignored_deletions)
      << what;
  EXPECT_EQ(got.stats.propagations, want.stats.propagations) << what;
}

TEST(DratCheckPins, SolverTracesReportPinnedStats) {
  for (const PinnedTrace& pin : pinned_traces()) {
    ASSERT_EQ(pin.trace.size(), pin.steps)
        << pin.name << ": the solver's trace changed; re-record the pins";
    DratCheckResult want;
    want.valid = true;
    want.stats = pin.stats;
    expect_same_result(refutation_via_file(pin.trace), want, pin.name);
    expect_same_result(derivations_via_file(pin.trace), want, pin.name);
  }
}

TEST(DratCheckPins, BinaryAndTextFileEntryPointsAgree) {
  // The same trace checked from its binary file (FileProofTracer) and from
  // its text file must give equal results -- verdict, error string and
  // every stat -- for valid, open and failing traces alike.
  std::vector<std::pair<std::string, DratTrace>> traces;
  for (PinnedTrace& pin : pinned_traces()) {
    traces.emplace_back(pin.name, std::move(pin.trace));
  }
  {
    // Open: 5 pigeons, 5 holes, assumed out of the last hole -- UNSAT
    // only under the assumptions, so the trace ends in a core, not in the
    // empty clause.
    Solver solver;
    DratTrace trace;
    solver.set_proof(&trace);
    add_pigeonhole(solver, 5, 5);
    std::vector<Lit> last_hole_empty;
    for (int p = 0; p < 5; ++p) {
      last_hole_empty.push_back(Lit::make(p * 5 + 4, true));
    }
    EXPECT_EQ(solver.solve(last_hole_empty), Result::kUnsat);
    traces.emplace_back("open", std::move(trace));
  }
  {
    // Failing: the reduced trace without its first axiom.
    const DratTrace& reduced = traces.front().second;
    DratTrace broken;
    bool dropped = false;
    for (const ProofStep& step : reduced.steps()) {
      if (!dropped && step.kind == ProofStepKind::kOriginal) {
        dropped = true;
        continue;
      }
      emit_step(broken, step.kind, step.lits);
    }
    traces.emplace_back("broken", std::move(broken));
  }

  const std::string binary_path = temp_path("agree.drat");
  for (const auto& [name, trace] : traces) {
    test::write_binary(binary_path, trace);
    const std::string text_path = test::text_trace_file(test::to_text(trace));

    const DratCheckResult refutation = check_refutation_file(binary_path);
    const DratCheckResult derivations = check_derivations_file(binary_path);
    expect_same_result(check_refutation_file(text_path), refutation,
                       name + " text refutation");
    expect_same_result(check_derivations_file(text_path), derivations,
                       name + " text derivations");
    std::remove(text_path.c_str());
    EXPECT_FALSE(refutation.malformed) << name;
    if (name == "open") {
      EXPECT_FALSE(refutation.valid);
      EXPECT_TRUE(derivations.valid) << derivations.error;
    } else if (name == "broken") {
      EXPECT_FALSE(derivations.valid);
      EXPECT_FALSE(derivations.error.empty());
    } else {
      EXPECT_TRUE(refutation.valid) << name << ": " << refutation.error;
    }
  }
  std::remove(binary_path.c_str());
}

// --- portfolio certification ----------------------------------------------

TEST(PortfolioProof, WinnerTraceIsACertificate) {
  for (const unsigned jobs : {1u, 3u}) {
    const std::string path = temp_path("winner.drat");
    SolverPortfolio portfolio(jobs, 7);
    portfolio.enable_proof(path);
    add_pigeonhole(portfolio, 6, 5);
    const runtime::SolveOutcome outcome = portfolio.solve();
    ASSERT_EQ(outcome.result, Result::kUnsat) << jobs << " jobs";
    EXPECT_GT(outcome.proof_steps, 0u);
    const FileProofTracer* trace = portfolio.winner_file_trace();
    ASSERT_NE(trace, nullptr);
    ASSERT_TRUE(trace->closed());
    EXPECT_EQ(trace->steps(), outcome.proof_steps);
    portfolio.promote_winner_trace(path);
    const DratCheckResult result = check_refutation_file(path);
    std::remove(path.c_str());
    EXPECT_TRUE(result.valid) << jobs << " jobs: " << result.error;
  }
}

TEST(PortfolioProof, SatModelsSelfCheck) {
  SolverPortfolio portfolio(3, 9);
  portfolio.enable_proof(temp_path("models.drat"));
  add_pigeonhole(portfolio, 5, 5);
  const runtime::SolveOutcome outcome = portfolio.solve();
  ASSERT_EQ(outcome.result, Result::kSat);
  EXPECT_EQ(outcome.model_verified, 1);
  const std::string json = runtime::to_json(outcome);
  EXPECT_NE(json.find("\"model_ok\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"proof_steps\":"), std::string::npos) << json;
}

TEST(PortfolioProof, JsonShapeUnchangedWithoutProof) {
  SolverPortfolio portfolio(1, 1);
  portfolio.ensure_var(0);
  portfolio.add_clause({Lit::make(0)});
  const runtime::SolveOutcome outcome = portfolio.solve();
  ASSERT_EQ(outcome.result, Result::kSat);
  const std::string json = runtime::to_json(outcome);
  EXPECT_EQ(json.find("proof_steps"), std::string::npos) << json;
  EXPECT_EQ(json.find("model_ok"), std::string::npos) << json;
}

// --- certified end-to-end attack -------------------------------------------

TEST(CertifiedAttack, RilBlockAttackProducesCheckableCertificate) {
  // A banyan+LUT RIL-Block from benchgen, attacked in portfolio mode with
  // certification on: the final miter-UNSAT trace must validate, and the
  // recovered key must unlock the circuit.
  benchgen::RandomDagParams params;
  params.num_inputs = 12;
  params.num_outputs = 6;
  params.num_gates = 120;
  params.seed = 17;
  const netlist::Netlist host = benchgen::generate_random_dag(params);
  core::RilBlockConfig config;
  config.size = 4;
  const auto ril = locking::lock_ril(host, 1, config, 33);

  attacks::Oracle oracle(ril.locked.netlist, ril.locked.key);
  attacks::SatAttackOptions options;
  options.jobs = 2;  // a real portfolio race, as the acceptance bar asks
  options.certify = true;
  options.proof_file = temp_path("ril_block.drat");
  const auto result =
      attacks::run_sat_attack(ril.locked.netlist, oracle, options);
  ASSERT_EQ(result.status, attacks::SatAttackStatus::kKeyFound);
  EXPECT_TRUE(result.models_verified);
  ASSERT_EQ(result.proof_status, attacks::ProofStatus::kValid);
  EXPECT_EQ(result.proof_trace, nullptr);
  ASSERT_EQ(result.proof_path, options.proof_file);
  const DratTrace certificate = take_steps(result.proof_path);
  EXPECT_TRUE(certificate.closed());
  EXPECT_EQ(result.proof_steps, certificate.size());

  // The recovered key passes the oracle (functional equivalence).
  EXPECT_TRUE(cnf::check_equivalence(ril.locked.netlist, host, result.key, {})
                  .equivalent());

  // A deliberately corrupted trace is rejected: flip one literal in a
  // random derivation step of the certificate.
  ASSERT_TRUE(refutation_via_file(certificate).valid);
  std::mt19937 rng(1234);
  std::vector<std::size_t> derivation_steps;
  for (std::size_t i = 0; i < certificate.steps().size(); ++i) {
    const ProofStep& step = certificate.steps()[i];
    if (step.kind == ProofStepKind::kDerive && step.lits.size() >= 2) {
      derivation_steps.push_back(i);
    }
  }
  ASSERT_FALSE(derivation_steps.empty());
  bool any_rejected = false;
  for (int trial = 0; trial < 4 && !any_rejected; ++trial) {
    const std::size_t at =
        derivation_steps[rng() % derivation_steps.size()];
    DratTrace corrupt;
    for (std::size_t i = 0; i < certificate.steps().size(); ++i) {
      ProofStep step = certificate.steps()[i];
      if (i == at) {
        const std::size_t victim = rng() % step.lits.size();
        step.lits[victim] = ~step.lits[rng() % step.lits.size()];
      }
      emit_step(corrupt, step.kind, step.lits);
    }
    any_rejected = !refutation_via_file(corrupt).valid;
  }
  EXPECT_TRUE(any_rejected)
      << "no corrupted variant of the certificate was rejected";
}

netlist::Netlist small_host() {
  benchgen::RandomDagParams params;
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_gates = 80;
  params.seed = 3;
  return benchgen::generate_random_dag(params);
}

TEST(CertifiedAttack, CertifyOffByDefaultAndCappedRunReportsOpen) {
  const auto locked = locking::lock_xor(small_host(), 8, 11);
  attacks::Oracle oracle(locked.netlist, locked.key);

  attacks::SatAttackOptions options;
  const auto plain = attacks::run_sat_attack(locked.netlist, oracle, options);
  EXPECT_EQ(plain.proof_status, attacks::ProofStatus::kNotRequested);
  EXPECT_EQ(plain.proof_trace, nullptr);

  // Without a proof_file the certificate is still streamed and checked --
  // open, since the cap stops the attack before any miter-UNSAT -- but
  // nothing is published.
  attacks::Oracle oracle2(locked.netlist, locked.key);
  options.certify = true;
  options.max_iterations = 1;
  const auto cut = attacks::run_sat_attack(locked.netlist, oracle2, options);
  ASSERT_EQ(cut.status, attacks::SatAttackStatus::kIterationLimit);
  EXPECT_EQ(cut.proof_status, attacks::ProofStatus::kOpen);
  EXPECT_GT(cut.proof_steps, 0u);
  EXPECT_TRUE(cut.proof_path.empty());
  EXPECT_EQ(cut.proof_bytes, 0u);
}

/// Points TMPDIR at a fresh directory for the life of the object and
/// restores the previous value afterwards.
class ScopedTmpdir {
 public:
  ScopedTmpdir() {
    std::string pattern = temp_path("tmpdir") + "-XXXXXX";
    EXPECT_NE(::mkdtemp(pattern.data()), nullptr) << pattern;
    path_ = pattern;
    if (const char* old = std::getenv("TMPDIR")) old_ = old;
    ::setenv("TMPDIR", path_.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (old_) {
      ::setenv("TMPDIR", old_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    std::filesystem::remove_all(path_);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::optional<std::string> old_;
};

TEST(CertifiedAttack, PathlessCertificatesAreCheckedAndLeaveNothing) {
  const ScopedTmpdir tmpdir;
  const netlist::Netlist host = small_host();
  const auto locked = locking::lock_xor(host, 8, 11);
  attacks::SatAttackOptions options;
  options.certify = true;

  attacks::Oracle oracle(locked.netlist, locked.key);
  const auto found = attacks::run_sat_attack(locked.netlist, oracle, options);
  ASSERT_EQ(found.status, attacks::SatAttackStatus::kKeyFound);
  EXPECT_EQ(found.proof_status, attacks::ProofStatus::kValid);
  EXPECT_GT(found.proof_steps, 0u);
  EXPECT_TRUE(found.proof_path.empty());
  EXPECT_TRUE(cnf::check_equivalence(locked.netlist, host, found.key, {})
                  .equivalent());

  attacks::Oracle oracle2(locked.netlist, locked.key);
  options.max_iterations = 1;
  const auto capped =
      attacks::run_sat_attack(locked.netlist, oracle2, options);
  ASSERT_EQ(capped.status, attacks::SatAttackStatus::kIterationLimit);
  EXPECT_EQ(capped.proof_status, attacks::ProofStatus::kOpen);
  EXPECT_TRUE(capped.proof_path.empty());

  EXPECT_TRUE(std::filesystem::is_empty(tmpdir.path()))
      << tmpdir.path() << " kept a file";
}

TEST(CertifiedAttack, CappedStreamedAttackPublishesOpenCertificate) {
  // An iteration-capped streamed attack cannot reach miter-UNSAT, but its
  // trace is still published as an open certificate: every derivation
  // RUP-checks against the logged axioms, no empty clause lands. This is
  // the certificate a 238k-gate certified run actually produces (the
  // whole-miter refutation there is beyond the CDCL core), so the small
  // host here stands in for the bench_netlist acceptance stage.
  const auto locked = locking::lock_xor(small_host(), 8, 11);
  attacks::Oracle oracle(locked.netlist, locked.key);

  const std::string path = temp_path("open_cert.drat");
  attacks::SatAttackOptions options;
  options.certify = true;
  options.proof_file = path;
  options.max_iterations = 1;
  const auto result =
      attacks::run_sat_attack(locked.netlist, oracle, options);
  ASSERT_EQ(result.status, attacks::SatAttackStatus::kIterationLimit);
  EXPECT_EQ(result.proof_status, attacks::ProofStatus::kOpen);
  ASSERT_EQ(result.proof_path, path);
  EXPECT_GT(result.proof_bytes, 0u);
  EXPECT_GT(result.proof_steps, 0u);
  EXPECT_EQ(result.proof_trace, nullptr);  // streamed, never in RAM
  EXPECT_TRUE(std::ifstream(path, std::ios::binary).good());

  // The published file passes the open-certificate check but is rejected
  // as a refutation -- well-formed, just not closed (no malformed flag).
  const DratCheckResult open_check = check_derivations_file(path);
  EXPECT_TRUE(open_check.valid) << open_check.error;
  EXPECT_GT(open_check.stats.originals, 0u);
  const DratCheckResult closed_check = check_refutation_file(path);
  EXPECT_FALSE(closed_check.valid);
  EXPECT_FALSE(closed_check.malformed);
  EXPECT_EQ(closed_check.error, "trace never derives the empty clause");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ril::sat
