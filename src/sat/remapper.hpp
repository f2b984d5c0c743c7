// Outer <-> inner variable renumbering for preprocessed formulas.
//
// After bounded variable elimination the surviving variables can be packed
// into a dense range before the simplified formula is handed to the CDCL
// members. The Remapper records that bijection between *outer* variables
// (the numbering encoders and callers speak) and *inner* variables (the
// numbering the solvers see) and translates literals, clauses, assumptions
// and models across it. Two constructions exist:
//
//  * identity(n)   -- every outer var maps to itself. Used whenever DRAT
//                     proof logging is active: the trace's literal
//                     numbering must match the original formula so an
//                     independent checker (and `ril check-proof`) can
//                     replay it without a translation table.
//  * compacting(keep) -- outer vars with keep[v] == true are assigned
//                     dense inner ids in outer order; eliminated vars map
//                     to nothing and are reconstructed from the
//                     elimination stack (Preprocessor::extend_model).
//
// The map stays extendable: variables created after preprocessing are
// appended through append(), so incremental use (fresh DIP-constraint
// variables between solve() calls) keeps working.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace ril::sat {

class Remapper {
 public:
  Remapper() = default;

  /// Identity map over outer vars [0, n).
  static Remapper identity(std::size_t n);
  /// Dense map keeping exactly the outer vars with keep[v] == true.
  static Remapper compacting(const std::vector<bool>& keep);

  std::size_t outer_count() const { return to_inner_.size(); }
  std::size_t inner_count() const { return to_outer_.size(); }

  /// True iff the outer var survived into the inner formula.
  bool maps(Var outer) const {
    return outer >= 0 && static_cast<std::size_t>(outer) < to_inner_.size() &&
           to_inner_[outer] != kNoVar;
  }
  /// Inner id of a surviving outer var (kNoVar for eliminated ones).
  Var to_inner(Var outer) const {
    if (outer < 0 || static_cast<std::size_t>(outer) >= to_inner_.size()) {
      return kNoVar;
    }
    return to_inner_[outer];
  }
  Var to_outer(Var inner) const {
    if (inner < 0 || static_cast<std::size_t>(inner) >= to_outer_.size()) {
      return kNoVar;
    }
    return to_outer_[inner];
  }

  /// Literal translation; the variable must map (checked by the caller).
  Lit lit_to_inner(Lit l) const {
    return Lit::make(to_inner_[l.var()], l.sign());
  }
  Lit lit_to_outer(Lit l) const {
    return Lit::make(to_outer_[l.var()], l.sign());
  }

  /// Translates a whole clause into inner numbering. Returns false (and
  /// leaves `out` unspecified) if any variable was eliminated.
  bool clause_to_inner(std::span<const Lit> outer, Clause& out) const;

  /// Registers a fresh outer/inner pair created after preprocessing.
  void append(Var outer, Var inner);

 private:
  std::vector<Var> to_inner_;  // outer -> inner or kNoVar
  std::vector<Var> to_outer_;  // inner -> outer
};

}  // namespace ril::sat
