// Oracle-guided SAT attack (Subramanyan et al., HOST'15) on CDCL.
//
// Maintains a miter over two copies of the locked circuit sharing the input
// vector X but carrying independent keys K1/K2. Each SAT witness yields a
// distinguishing input pattern (DIP); the oracle's response is added as an
// I/O constraint on both key copies. When the miter becomes UNSAT no DIP
// remains, and any key consistent with the collected I/O pairs (extracted
// from a parallel key-determination solver) unlocks the circuit -- provided
// the oracle answered with the true function. Scan-Enable obfuscation and
// dynamic morphing break exactly that premise.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attacks/engine/attack_budget.hpp"
#include "attacks/engine/miter_context.hpp"
#include "attacks/oracle.hpp"
#include "netlist/netlist.hpp"
#include "runtime/portfolio.hpp"
#include "sat/proof.hpp"

namespace ril::attacks {

struct SatAttackOptions {
  /// Whole-attack wall-clock budget in seconds; <= 0 means unlimited.
  double time_limit_seconds = 0.0;
  /// DIP iteration cap; 0 means unlimited.
  std::size_t max_iterations = 0;
  /// Portfolio width for every miter / key-determination solve. 1 runs the
  /// historical serial path bit-for-bit; N > 1 races N diversified solvers
  /// per solve with first-to-finish-wins (see runtime::SolverPortfolio).
  unsigned jobs = 1;
  /// Base seed for portfolio diversification (irrelevant when jobs == 1).
  std::uint64_t portfolio_seed = 1;
  /// When true, every portfolio solve is appended to
  /// SatAttackResult::solve_log (per-solve JSON stats in the CLI/bench).
  bool record_solves = false;
  /// Canonicalize the extracted key to the lexicographically smallest
  /// consistent one. At miter-UNSAT the consistent-key set equals the set
  /// of functionally correct keys regardless of which DIPs were sampled,
  /// so the canonical key is identical across jobs counts and portfolio
  /// races. Costs one cheap assumption-solve per key bit.
  bool canonical_key = true;
  /// Encode each I/O constraint over the DIP-specialized key cone instead
  /// of re-encoding the whole circuit (engine::DipConstraintEncoder).
  /// Same verdict and canonical key, typically an order of magnitude fewer
  /// clauses per DIP; false reproduces the historical encoding bit-for-bit.
  bool specialize_dips = true;
  /// Optional caller-owned cancellation flag: raise it from any thread to
  /// unwind the attack cooperatively (reported as kTimeout).
  const std::atomic<bool>* cancel = nullptr;
  /// Certify the verdict: stream a DRAT trace from every miter-portfolio
  /// member to disk (sat::FileProofTracer), self-check each SAT model, and
  /// validate the winner's trace with the independent streaming checker
  /// when the attack ends: as a refutation after miter-UNSAT
  /// (ProofStatus::kValid), as an *open* certificate -- every step
  /// RUP-checks against the axioms, no empty clause -- when it stopped
  /// earlier (timeout, iteration cap; ProofStatus::kOpen). The proof never
  /// lives in RAM, which keeps certified attacks on 100k+-gate hosts
  /// inside the encoder's memory envelope. Off by default; the search
  /// itself is bit-identical either way.
  bool certify = false;
  /// With certify: where the winner's trace is published (atomically,
  /// from the members' `proof_file + ".m<i>"` temps), filling
  /// SatAttackResult::{proof_path, proof_bytes}. Empty (the default)
  /// streams into a private directory under the system temp directory
  /// (TMPDIR) that is removed before the attack returns: the verdict is
  /// still checked, but nothing is published.
  std::string proof_file;
  /// SatELite-style preprocessing (subsumption, self-subsuming resolution,
  /// bounded variable elimination) of the miter and key-determination
  /// formulas before their first solve. Input and key variables are frozen
  /// so DIP extraction, I/O constraints, and key canonicalization keep
  /// working; composes with certify (elimination steps are replayed into
  /// the DRAT trace). On by default at every host size: the Table-5 median
  /// speed-up of preprocessing alone is 1.2x, but per scheme it is mixed
  /// -- sfll, lut and interlock gain, while ril, xor and caslock run below
  /// 1x (`prep_speedup` in BENCH_solver.json). False (CLI
  /// --no-preprocess) turns it off at every size.
  bool preprocess = true;
  /// Restart-time inprocessing (sat/inprocess.hpp: clause vivification,
  /// learned-clause subsumption, failed-literal probing with hyper-binary
  /// resolution) inside every miter / key portfolio member. Scheduled off
  /// conflict counts, so cheap solves pay nothing; input and key
  /// variables are frozen against probing; composes with certify (every
  /// derivation reaches the DRAT stream). Orthogonal to `preprocess`
  /// (CLI --no-inprocess turns only this off).
  bool inprocess = true;
  /// CNF-skeleton cache hooks (the `ril serve` daemon's level-2 cache).
  /// When `miter_skeleton` is set, the miter formula is replayed from the
  /// capture instead of re-encoding `locked` -- bit-identical variables and
  /// clauses, so the verdict, key, iteration count, and conflicts are
  /// unchanged; the skeleton must come from a capture over a netlist with
  /// identical content (the caller keys captures by content hash).
  /// When `capture_skeleton` is set (and no replay source is given), this
  /// run's miter encoding is recorded into it for later replay. Both null
  /// by default; nothing in the attack path changes then.
  const engine::MiterSkeleton* miter_skeleton = nullptr;
  engine::MiterSkeleton* capture_skeleton = nullptr;
};

/// Certification verdict for a whole attack run. Every certified run ends
/// with one of kValid, kOpen or kInvalid: the winner's trace always exists
/// on disk and is always checked.
enum class ProofStatus {
  kNotRequested,  ///< options.certify was false
  kValid,         ///< miter-UNSAT trace validated by
                  ///< sat::check_refutation_file
  kOpen,          ///< open certificate: every step checks, but the attack
                  ///< stopped before miter-UNSAT so there is no
                  ///< refutation (validated by sat::check_derivations_file)
  kInvalid,       ///< trace rejected, including a miter-UNSAT trace that
                  ///< never derives the empty clause (solver unsoundness!)
};

std::string to_string(ProofStatus status);

/// Per-solve log entry (shared across the attack engine).
using SolveRecord = engine::SolveRecord;
using engine::solve_record_json;

enum class SatAttackStatus {
  kKeyFound,       ///< miter UNSAT, consistent key extracted
  kTimeout,        ///< budget exhausted (the paper's "infinity" rows)
  kIterationLimit,
  kInconsistent,   ///< no key matches the collected I/O pairs (morphing)
};

struct SatAttackResult {
  SatAttackStatus status = SatAttackStatus::kTimeout;
  std::vector<bool> key;          ///< valid iff status == kKeyFound
  std::size_t iterations = 0;     ///< DIPs used
  double seconds = 0.0;
  /// CDCL conflicts across all miter-portfolio members (equals the single
  /// miter solver's conflicts when jobs == 1).
  std::uint64_t conflicts = 0;
  /// Total I/O-constraint clauses added across the run, and the clauses a
  /// full re-encoding would have added on top (0 unless specialize_dips).
  std::size_t encoded_clauses = 0;
  std::size_t saved_clauses = 0;
  /// Per-solve portfolio stats; filled when options.record_solves is set.
  std::vector<SolveRecord> solve_log;
  /// --- certification (options.certify) ---------------------------------
  ProofStatus proof_status = ProofStatus::kNotRequested;
  /// Steps in the final miter certificate (originals + derivations +
  /// deletions), 0 unless a certificate was produced.
  std::uint64_t proof_steps = 0;
  /// Always null (certificates live on disk); kept as callers reset it.
  std::shared_ptr<const sat::DratTrace> proof_trace;
  /// Published on-disk certificate (options.proof_file set): final path
  /// and size in bytes. Empty/0 when no certificate was published.
  std::string proof_path;
  std::uint64_t proof_bytes = 0;
  /// False iff some SAT model failed the replay self-check (unsound SAT).
  bool models_verified = true;
  /// --- preprocessing (options.preprocess) ------------------------------
  /// True when the miter formula went through the preprocessor; `preprocess`
  /// then holds the miter-side simplification statistics.
  bool preprocessed = false;
  sat::PreprocessStats preprocess;
  /// --- inprocessing (options.inprocess) --------------------------------
  /// True when restart-time inprocessing was enabled on the portfolios;
  /// `inprocess` then aggregates the miter members' counters.
  bool inprocessed = false;
  sat::InprocessStats inprocess;
};

std::string to_string(SatAttackStatus status);

/// Runs the attack. `locked` must be the attacker's view (combinational,
/// with key inputs); `oracle` answers input queries.
SatAttackResult run_sat_attack(const netlist::Netlist& locked, QueryOracle& oracle,
                               const SatAttackOptions& options = {});

}  // namespace ril::attacks
