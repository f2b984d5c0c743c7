// Independent forward RUP checker for DRAT proof traces.
//
// check_refutation_file replays a proof trace in order, maintaining its own
// clause database, two-watched-literal scheme, and unit propagation --
// sharing no code with the Solver, which is the point: a soundness bug in
// the solver's watch repair, GC remapping, or assumption handling cannot
// also hide here. Each 'a' step is verified to be RUP (assume the negation
// of the clause on top of the accumulated unit-propagation fixpoint; the
// result must be a conflict); 'o' steps extend the axiom set; 'd' steps
// remove one matching clause. The trace certifies UNSAT of the logged
// axiom stream iff the empty clause is derived with a successful RUP
// check. Deletions of clauses that currently anchor a persistent
// (top-level) unit are ignored, the standard guard that keeps forward
// checking sound in the presence of DRAT deletion lines.
//
// Layout of the checking core; once its buffers have grown, no step
// allocates:
//  * clause storage -- every clause's literals sit back to back in one
//    arena, described by per-clause {offset, size, watched}; a deleted
//    clause keeps its span, so clause ids never move;
//  * clause index -- an open-addressing table of (hash, clause id) slots
//    holding exactly the live clauses. A 'd' step matches by literal set,
//    whatever its order, and takes the lowest-id live match: of several
//    identical clauses (the database is a multiset), the first inserted
//    goes first;
//  * watches -- a watch on a binary clause carries the clause's other
//    literal, so visiting it never touches the arena. Long-clause watches
//    carry no blocker literal, since one would change which watch moves.
// Invariant: watch-list order, propagation order, reasons and deletion
// rules are those of the earlier per-clause-vector checker, so every
// DratCheckResult field -- verdict, error string and all DratCheckStats,
// propagations and ignored_deletions included -- is bit-identical to it
// on every trace (pinned by the DratCheckPins tests).
//
// Two entry points share one checking core, each a single streaming pass
// over an on-disk trace (binary or text) via TraceReader, so the steps are
// never held in memory (the live clause database still grows with the
// formula):
//  * check_refutation_file(path)  -- requires the empty clause;
//  * check_derivations_file(path) -- verifies every step without
//    requiring the empty clause, which is what an open certificate looks
//    like: a capped attack's trace, or an assumption-UNSAT solve that
//    closes with the failed-assumption core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sat/proof.hpp"

namespace ril::sat {

struct DratCheckStats {
  std::size_t originals = 0;    ///< 'o' steps ingested
  std::size_t derivations = 0;  ///< 'a' steps RUP-checked
  std::size_t deletions = 0;    ///< 'd' steps applied
  std::size_t ignored_deletions = 0;  ///< 'd' steps skipped (unit reasons)
  std::uint64_t propagations = 0;     ///< checker-side propagation count
};

struct DratCheckResult {
  /// True iff the trace is a complete, step-by-step verified refutation.
  bool valid = false;
  /// True when the trace could not even be parsed (unreadable file,
  /// truncation, garbage) as opposed to a well-formed but wrong proof.
  bool malformed = false;
  /// Empty when valid; otherwise names the first failing step.
  std::string error;
  DratCheckStats stats;
};

/// Verifies that the trace at `path` is a refutation of its own 'o'-line
/// axioms, reading it one step at a time. Parse failures (missing file,
/// truncated or garbage trace) come back with `malformed == true`.
DratCheckResult check_refutation_file(const std::string& path);

/// Verifies every derivation step of the trace at `path` without
/// requiring the empty clause -- the acceptance test for open
/// certificates. The trace a SAT attack publishes when it stops before
/// miter-UNSAT (timeout, iteration cap) is validated with this.
DratCheckResult check_derivations_file(const std::string& path);

}  // namespace ril::sat
