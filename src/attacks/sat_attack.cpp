#include "attacks/sat_attack.hpp"

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "attacks/engine/dip_encoder.hpp"
#include "attacks/engine/miter_context.hpp"
#include "sat/drat_check.hpp"

namespace ril::attacks {

namespace {

/// A private mkdtemp directory under the system temp directory for a
/// certificate the caller did not ask to keep. Removes itself and
/// everything in it on destruction, so no exit path leaves a file behind.
class ScratchDir {
 public:
  ScratchDir() = default;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  /// Creates the directory and returns its path.
  const std::string& create() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "ril-proof-XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a proof directory from " +
                               pattern);
    }
    path_ = std::move(pattern);
    return path_;
  }

 private:
  std::string path_;
};

}  // namespace

using netlist::Netlist;
using runtime::SolverPortfolio;
using sat::Lit;
using sat::Var;

std::string to_string(ProofStatus status) {
  switch (status) {
    case ProofStatus::kNotRequested: return "not-requested";
    case ProofStatus::kValid: return "valid";
    case ProofStatus::kOpen: return "open";
    case ProofStatus::kInvalid: return "invalid";
  }
  return "?";
}

std::string to_string(SatAttackStatus status) {
  switch (status) {
    case SatAttackStatus::kKeyFound: return "key-found";
    case SatAttackStatus::kTimeout: return "timeout";
    case SatAttackStatus::kIterationLimit: return "iteration-limit";
    case SatAttackStatus::kInconsistent: return "inconsistent";
  }
  return "?";
}

SatAttackResult run_sat_attack(const Netlist& locked, QueryOracle& oracle,
                               const SatAttackOptions& options) {
  engine::AttackBudget budget(options.time_limit_seconds, options.cancel);
  budget.enable_recording(options.record_solves);

  SatAttackResult result;

  // Certification streams the miter members' traces to disk. Without a
  // caller-named proof_file they go to a private temp directory, checked
  // there and removed with it (declared before the portfolio, so the
  // members' temps are abandoned before the directory goes).
  ScratchDir scratch;
  std::string proof_file = options.proof_file;
  if (options.certify && proof_file.empty()) {
    proof_file = scratch.create() + "/miter.drat";
  }

  // Miter portfolio: shared X, independent K1 / K2 in every member.
  SolverPortfolio miter(options.jobs, options.portfolio_seed);
  miter.set_external_stop(budget.stop_flag());
  // Certification: proof logging must precede the miter encoding so every
  // member's trace carries the full axiom stream. Only the miter verdict
  // is certified -- the UNSAT that terminates the DIP loop is the claim
  // the paper's iteration counts rest on.
  if (options.certify) miter.enable_proof(proof_file);
  // Seals the winning member's trace at proof_file and validates it with
  // the independent streaming checker: as a refutation after miter-UNSAT
  // (a trace without the empty clause is then invalid), as an open
  // certificate when the attack stopped earlier.
  const auto certify = [&](bool refutation) {
    result.proof_steps = miter.winner_file_trace()->steps();
    const std::uint64_t bytes = miter.promote_winner_trace(proof_file);
    if (!options.proof_file.empty()) {
      result.proof_path = proof_file;
      result.proof_bytes = bytes;
    }
    const sat::DratCheckResult check =
        refutation ? sat::check_refutation_file(proof_file)
                   : sat::check_derivations_file(proof_file);
    result.proof_status = !check.valid ? ProofStatus::kInvalid
                          : refutation ? ProofStatus::kValid
                                       : ProofStatus::kOpen;
  };
  if (options.preprocess) miter.enable_preprocessing();
  if (options.inprocess) miter.enable_inprocessing();
  const engine::MiterContext ctx = [&]() -> engine::MiterContext {
    if (options.miter_skeleton != nullptr) {
      return engine::MiterContext(locked, *options.miter_skeleton, miter);
    }
    return engine::MiterContext(locked, miter, options.capture_skeleton);
  }();
  if (options.preprocess || options.inprocess) {
    // The DIP loop reads X from each model and adds constraints over both
    // key vectors, so those variables must survive elimination (and stay
    // exempt from failed-literal probing).
    miter.freeze(ctx.input_vars());
    miter.freeze(ctx.copy(0).key_vars);
    miter.freeze(ctx.copy(1).key_vars);
  }

  // Key-determination portfolio: one key vector constrained by all DIPs.
  SolverPortfolio key_solver(options.jobs, options.portfolio_seed + 0x9e37);
  key_solver.set_external_stop(budget.stop_flag());
  if (options.preprocess) key_solver.enable_preprocessing();
  if (options.inprocess) key_solver.enable_inprocessing();
  const std::vector<Var> key_vars =
      engine::make_vars(key_solver, locked.key_inputs().size());
  if (options.preprocess || options.inprocess) key_solver.freeze(key_vars);

  engine::DipConstraintEncoder dips(locked, options.specialize_dips);

  while (true) {
    if (options.max_iterations != 0 &&
        result.iterations >= options.max_iterations) {
      result.status = SatAttackStatus::kIterationLimit;
      break;
    }
    if (budget.limited() || budget.cancelled()) {
      if (budget.expired()) {
        result.status = SatAttackStatus::kTimeout;
        break;
      }
      miter.set_limits(budget.limits());
    }
    const runtime::SolveOutcome miter_outcome = miter.solve();
    budget.record(result.iterations, "miter", miter_outcome);
    if (miter_outcome.model_verified == 0) result.models_verified = false;
    const sat::Result r = miter_outcome.result;
    if (r == sat::Result::kUnknown) {
      result.status = SatAttackStatus::kTimeout;
      break;
    }
    if (r == sat::Result::kUnsat) {
      if (options.certify) certify(/*refutation=*/true);
      // No DIP remains: extract any consistent key.
      if (budget.limited() || budget.cancelled()) {
        if (budget.expired()) {
          result.status = SatAttackStatus::kTimeout;
          break;
        }
        key_solver.set_limits(budget.limits());
      }
      const runtime::SolveOutcome key_outcome = key_solver.solve();
      budget.record(result.iterations, "key", key_outcome);
      const sat::Result kr = key_outcome.result;
      if (kr == sat::Result::kSat) {
        result.key.reserve(key_vars.size());
        for (Var v : key_vars) result.key.push_back(key_solver.model_bool(v));
        result.status = SatAttackStatus::kKeyFound;
        if (options.canonical_key) {
          // Lexicographic minimization: fix each key bit to 0 when some
          // consistent key allows it. Every consistent key is functionally
          // correct here, so the minimum is a valid unlock key and does
          // not depend on the DIP order (hence not on the jobs count).
          std::vector<Lit> fixed;
          fixed.reserve(key_vars.size());
          bool complete = true;
          for (std::size_t i = 0; i < key_vars.size(); ++i) {
            if (budget.limited() || budget.cancelled()) {
              if (budget.expired()) {
                complete = false;
                break;
              }
              key_solver.set_limits(budget.limits());
            }
            fixed.push_back(Lit::make(key_vars[i], true));  // try bit = 0
            const runtime::SolveOutcome probe = key_solver.solve(fixed);
            if (probe.result == sat::Result::kUnsat) {
              fixed.back() = Lit::make(key_vars[i]);  // forced to 1
            } else if (probe.result != sat::Result::kSat) {
              complete = false;  // budget expired; keep the model key
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

    // SAT: extract a DIP, query the oracle, constrain both copies.
    const std::vector<bool> dip =
        ctx.extract_dip([&](Var v) { return miter.model_bool(v); });
    const std::vector<bool> response = oracle.query(dip);
    engine::ConstraintStats stats =
        dips.add_constraint(miter, ctx.copy(0).key_vars, dip, response);
    stats += dips.add_constraint(miter, ctx.copy(1).key_vars, dip, response);
    stats += dips.add_constraint(key_solver, key_vars, dip, response);
    budget.add_constraints(stats);
    ++result.iterations;
  }

  if (options.certify &&
      result.proof_status == ProofStatus::kNotRequested) {
    // The attack stopped before miter-UNSAT (timeout, iteration cap). The
    // winner's partial trace is still an *open* certificate of the work
    // done so far: every derivation in it RUP-checks against the logged
    // axioms -- exactly what `ril check-proof --open` accepts. On
    // 200k+-gate hosts the final whole-miter refutation is beyond the CDCL
    // core, so this is the certificate such runs actually produce (see
    // docs/SCALING.md).
    certify(/*refutation=*/false);
  }
  result.seconds = budget.elapsed();
  result.conflicts = miter.total_conflicts();
  if (const sat::PreprocessStats* prep = miter.preprocess_stats()) {
    result.preprocessed = true;
    result.preprocess = *prep;
  }
  if (miter.inprocessing_enabled()) {
    result.inprocessed = true;
    result.inprocess = miter.inprocess_stats_total();
  }
  const engine::ConstraintStats totals = budget.constraint_totals();
  result.encoded_clauses = totals.encoded_clauses;
  result.saved_clauses = totals.saved_clauses;
  result.solve_log = budget.take_log();
  return result;
}

}  // namespace ril::attacks
