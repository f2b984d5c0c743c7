#include "attacks/sat_attack.hpp"

#include "attacks/engine/dip_encoder.hpp"
#include "attacks/engine/miter_context.hpp"
#include "sat/drat_check.hpp"

namespace ril::attacks {

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
    case ProofStatus::kMissing: return "missing";
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

  // Preprocessing is on by default (`preprocess`); `preprocess_auto`
  // turns it back on at scale only when the caller cleared `preprocess`.
  // --no-preprocess clears both.
  const bool preprocess =
      options.preprocess ||
      (options.preprocess_auto &&
       locked.gate_count() >= options.preprocess_auto_min_gates);
  const bool stream_proof = options.certify && !options.proof_file.empty();

  // Miter portfolio: shared X, independent K1 / K2 in every member.
  SolverPortfolio miter(options.jobs, options.portfolio_seed);
  miter.set_external_stop(budget.stop_flag());
  // Certification: proof logging must precede the miter encoding so every
  // member's trace carries the full axiom stream. Only the miter verdict
  // is certified -- the UNSAT that terminates the DIP loop is the claim
  // the paper's iteration counts rest on.
  if (options.certify) {
    if (stream_proof) {
      miter.enable_proof_files(options.proof_file);
    } else {
      miter.enable_proof();
    }
  }
  if (preprocess) miter.enable_preprocessing();
  if (options.inprocess) miter.enable_inprocessing();
  const engine::MiterContext ctx = [&]() -> engine::MiterContext {
    if (options.miter_skeleton != nullptr) {
      return engine::MiterContext(locked, *options.miter_skeleton, miter);
    }
    return engine::MiterContext(locked, miter, options.capture_skeleton);
  }();
  if (preprocess || options.inprocess) {
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
  if (preprocess) key_solver.enable_preprocessing();
  if (options.inprocess) key_solver.enable_inprocessing();
  const std::vector<Var> key_vars =
      engine::make_vars(key_solver, locked.key_inputs().size());
  if (preprocess || options.inprocess) key_solver.freeze(key_vars);

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
      if (options.certify) {
        // The winner's trace is the certificate; validate it with the
        // independent checker before trusting the verdict.
        if (stream_proof) {
          const sat::FileProofTracer* trace = miter.winner_file_trace();
          if (trace != nullptr && trace->closed()) {
            result.proof_steps = trace->steps();
            result.proof_bytes =
                miter.promote_winner_trace(options.proof_file);
            result.proof_path = options.proof_file;
            // Single streaming pass over the published file -- the
            // certificate is re-read from disk, never rebuilt in memory.
            result.proof_status =
                sat::check_refutation_file(options.proof_file).valid
                    ? ProofStatus::kValid
                    : ProofStatus::kInvalid;
          } else {
            result.proof_status = ProofStatus::kMissing;
          }
        } else {
          const sat::DratTrace* trace = miter.winner_trace();
          if (trace != nullptr && trace->closed()) {
            auto certificate = std::make_shared<sat::DratTrace>(*trace);
            result.proof_steps = certificate->size();
            result.proof_status = sat::check_refutation(*certificate).valid
                                      ? ProofStatus::kValid
                                      : ProofStatus::kInvalid;
            result.proof_trace = std::move(certificate);
          } else {
            result.proof_status = ProofStatus::kMissing;
          }
        }
      }
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
    // The attack stopped before miter-UNSAT (timeout, iteration cap). In
    // streaming mode the winner's partial trace is still worth publishing:
    // every derivation in it RUP-checks against the logged axioms, so it
    // is an *open* certificate of the work done so far -- exactly what
    // `ril check-proof --open` accepts. On 200k+-gate hosts the final
    // whole-miter refutation is beyond the CDCL core, so this is the
    // certificate such runs actually produce (see docs/SCALING.md).
    const sat::FileProofTracer* trace =
        stream_proof ? miter.winner_file_trace() : nullptr;
    if (trace != nullptr) {
      result.proof_steps = trace->steps();
      result.proof_bytes = miter.promote_winner_trace(options.proof_file);
      result.proof_path = options.proof_file;
      result.proof_status =
          sat::check_derivations_file(options.proof_file).valid
              ? ProofStatus::kOpen
              : ProofStatus::kInvalid;
    } else {
      result.proof_status = ProofStatus::kMissing;  // no trace to publish
    }
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
