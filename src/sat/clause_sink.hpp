// Abstract CNF construction interface.
//
// Encoders (Tseitin, miters, one-hot re-encodings, I/O constraints) only
// need three operations: allocate variables and add clauses. Routing them
// through this interface lets the same encoding code target either a single
// Solver or a runtime::SolverPortfolio that mirrors every variable and
// clause into N diversified solver instances kept in lock-step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>

#include "sat/types.hpp"

namespace ril::sat {

/// A chunk of clauses in one flat buffer: `lits` holds the concatenated
/// literals and `ends[i]` is the end offset of clause i, so clause i spans
/// lits[ends[i-1] .. ends[i]) (with ends[-1] read as 0). Streaming encoders
/// fill a batch and hand it to ClauseSink::add_clauses, which moves a whole
/// topological chunk across the virtual-call boundary at once instead of
/// one heap-allocated Clause per gate clause.
struct ClauseBatch {
  std::vector<Lit> lits;
  std::vector<std::uint32_t> ends;

  /// Appends one literal of the clause currently being built.
  void push(Lit l) { lits.push_back(l); }
  /// Terminates the clause currently being built.
  void seal() { ends.push_back(static_cast<std::uint32_t>(lits.size())); }
  /// Appends a complete clause.
  void add(std::initializer_list<Lit> clause) {
    lits.insert(lits.end(), clause);
    seal();
  }

  std::size_t size() const { return ends.size(); }
  bool empty() const { return ends.empty(); }
  std::size_t lit_count() const { return lits.size(); }
  void clear() {
    lits.clear();
    ends.clear();
  }
  std::span<const Lit> clause(std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return {lits.data() + begin, ends[i] - begin};
  }
};

class ClauseSink {
 public:
  virtual ~ClauseSink() = default;

  /// Creates a fresh variable and returns it.
  virtual Var new_var() = 0;
  /// Ensures variables [0, v] exist.
  virtual void ensure_var(Var v) = 0;
  /// Adds a problem clause. Returns false if the formula became trivially
  /// unsatisfiable at the root level.
  virtual bool add_clause(Clause lits) = 0;

  /// Allocates `n` fresh consecutive variables and returns the first
  /// (kNoVar when n == 0). Observably equivalent to n new_var() calls --
  /// every sink hands out dense consecutive numbers -- but a bulk reserve
  /// lets encoders pre-number a whole netlist in O(1) virtual calls.
  virtual Var new_vars(std::size_t n) {
    if (n == 0) return kNoVar;
    const Var first = new_var();
    if (n > 1) ensure_var(first + static_cast<Var>(n) - 1);
    return first;
  }

  /// Adds every clause of `batch` in order. Returns false if any clause
  /// made the formula trivially unsatisfiable at the root. The default
  /// forwards clause by clause (bit-identical to looping add_clause);
  /// the solver overrides it to insert a whole chunk without a Clause per
  /// clause, and the portfolio to hand each member the whole chunk.
  virtual bool add_clauses(const ClauseBatch& batch) {
    bool ok = true;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto c = batch.clause(i);
      if (!add_clause(Clause(c.begin(), c.end()))) ok = false;
    }
    return ok;
  }

  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(Clause(lits));
  }
};

/// Decorator that counts the variables and clauses flowing through it.
/// With a null inner sink it becomes a pure dry-run counter (allocating
/// its own variable numbers and discarding clauses), which is how the
/// attack engine prices a full circuit encoding without touching a solver.
/// Counts are clauses as *submitted*; a receiving solver may still drop
/// satisfied or tautological ones at the root.
class CountingSink final : public ClauseSink {
 public:
  explicit CountingSink(ClauseSink* inner = nullptr) : inner_(inner) {}

  Var new_var() override {
    ++vars_;
    return inner_ ? inner_->new_var() : next_var_++;
  }
  void ensure_var(Var v) override {
    if (inner_) {
      inner_->ensure_var(v);
    } else if (v >= next_var_) {
      next_var_ = v + 1;
    }
  }
  bool add_clause(Clause lits) override {
    ++clauses_;
    return inner_ ? inner_->add_clause(std::move(lits)) : true;
  }
  Var new_vars(std::size_t n) override {
    vars_ += n;
    if (inner_) return inner_->new_vars(n);
    if (n == 0) return kNoVar;
    const Var first = next_var_;
    next_var_ += static_cast<Var>(n);
    return first;
  }
  bool add_clauses(const ClauseBatch& batch) override {
    clauses_ += batch.size();
    return inner_ ? inner_->add_clauses(batch) : true;
  }
  using ClauseSink::add_clause;

  std::size_t vars() const { return vars_; }
  std::size_t clauses() const { return clauses_; }

 private:
  ClauseSink* inner_ = nullptr;
  Var next_var_ = 0;
  std::size_t vars_ = 0;
  std::size_t clauses_ = 0;
};

}  // namespace ril::sat
