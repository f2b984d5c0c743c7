#include "runtime/portfolio.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace ril::runtime {

using sat::Clause;
using sat::LBool;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::SolverConfig;
using sat::Var;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Member `index`'s inprocessing variant of `base`. Member 0 keeps the
/// base untouched (deterministic baseline); the others stagger the
/// conflict cadence and lean their budgets toward one technique each, so
/// a portfolio covers vivify-heavy, probe-heavy, and subsume-heavy
/// schedules without any member paying for all three at full strength.
sat::InprocessConfig diversified_inprocess(const sat::InprocessConfig& base,
                                           unsigned index) {
  sat::InprocessConfig c = base;
  if (index == 0) return c;
  c.interval_base = base.interval_base + (base.interval_base / 4) * (index % 4);
  switch (index % 3) {
    case 1:
      c.vivify_budget = base.vivify_budget * 2;
      c.probe_budget = base.probe_budget / 2;
      break;
    case 2:
      c.probe_budget = base.probe_budget * 2;
      c.subsume_budget = base.subsume_budget / 2;
      break;
    default:
      c.subsume_budget = base.subsume_budget * 2;
      c.vivify_budget = base.vivify_budget / 2;
      break;
  }
  return c;
}

}  // namespace

PortfolioJobConfig diversified_config(unsigned index,
                                      std::uint64_t base_seed) {
  PortfolioJobConfig job;
  SolverConfig& c = job.config;
  c.seed = splitmix64(base_seed + index);
  switch (index) {
    case 0:
      // Deterministic baseline: default knobs, no randomness consumed.
      job.name = "baseline";
      c = SolverConfig{};
      break;
    case 1:
      job.name = "rapid-restart";
      c.restart_base = 32;
      c.random_polarity_freq = 0.02;
      break;
    case 2:
      job.name = "deep-dive";
      c.restart_base = 1024;
      c.init_phase_true = true;
      break;
    case 3:
      job.name = "random-walk";
      c.random_branch_freq = 0.05;
      c.random_polarity_freq = 0.05;
      break;
    case 4:
      job.name = "hoarder";
      c.max_learned = 32768;
      c.var_decay = 0.99;
      c.restart_base = 256;
      break;
    case 5:
      job.name = "purger";
      c.max_learned = 2048;
      c.var_decay = 0.85;
      c.random_polarity_freq = 0.01;
      break;
    default: {
      // Seeded mixture over the knob space for arbitrarily wide portfolios.
      const std::uint64_t r = splitmix64(c.seed);
      job.name = "mix-" + std::to_string(index);
      c.restart_base = 32u << (r % 5);                      // 32..512
      c.var_decay = 0.85 + 0.02 * ((r >> 8) % 8);           // 0.85..0.99
      c.random_branch_freq = 0.01 * ((r >> 16) % 6);        // 0..0.05
      c.random_polarity_freq = 0.005 * ((r >> 24) % 9);     // 0..0.04
      c.max_learned = 2048u << ((r >> 32) % 5);             // 2k..32k
      c.init_phase_true = (r >> 40) & 1;
      break;
    }
  }
  return job;
}

SolverPortfolio::SolverPortfolio(unsigned jobs, std::uint64_t base_seed) {
  if (jobs < 1) jobs = 1;
  if (jobs > 64) jobs = 64;
  solvers_.reserve(jobs);
  names_.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i) {
    PortfolioJobConfig job = diversified_config(i, base_seed);
    auto solver = std::make_unique<Solver>();
    solver->set_config(job.config);
    solvers_.push_back(std::move(solver));
    names_.push_back(std::move(job.name));
  }
}

void SolverPortfolio::enable_proof(const std::string& stem) {
  if (proof_enabled()) return;
  file_traces_.reserve(solvers_.size());
  for (std::size_t i = 0; i < solvers_.size(); ++i) {
    file_traces_.push_back(std::make_unique<sat::FileProofTracer>(
        stem + ".m" + std::to_string(i) + ".drat"));
    solvers_[i]->set_proof(file_traces_[i].get());
  }
}

const sat::FileProofTracer* SolverPortfolio::winner_file_trace() const {
  if (file_traces_.empty()) return nullptr;
  return file_traces_[last_winner_].get();
}

std::uint64_t SolverPortfolio::promote_winner_trace(const std::string& path) {
  if (file_traces_.empty()) {
    throw std::logic_error(
        "SolverPortfolio::promote_winner_trace: proof logging is not "
        "enabled");
  }
  sat::FileProofTracer& winner = *file_traces_[last_winner_];
  winner.finalize_to(path);
  const std::uint64_t bytes = winner.bytes_written();
  for (std::size_t i = 0; i < file_traces_.size(); ++i) {
    if (static_cast<int>(i) != last_winner_) file_traces_[i]->abandon();
  }
  // The published winner and the abandoned losers can take no more steps;
  // detach so later incremental solves do not try to append, and drop the
  // tracers so proof_enabled() reports the detached state.
  for (auto& solver : solvers_) solver->set_proof(nullptr);
  file_traces_.clear();
  return bytes;
}

void SolverPortfolio::enable_preprocessing(
    const sat::PreprocessConfig& config) {
  if (prep_) return;
  if (solvers_.front()->num_vars() != 0 ||
      solvers_.front()->num_clauses() != 0) {
    throw std::logic_error(
        "SolverPortfolio::enable_preprocessing: call before the first "
        "new_var/add_clause");
  }
  prep_ = std::make_unique<sat::Preprocessor>(config);
}

void SolverPortfolio::enable_inprocessing(const sat::InprocessConfig& config) {
  ipc_ = config;
  ipc_.enabled = true;
  for (std::size_t i = 0; i < solvers_.size(); ++i) {
    solvers_[i]->set_inprocess(
        diversified_inprocess(ipc_, static_cast<unsigned>(i)));
  }
}

sat::InprocessStats SolverPortfolio::inprocess_stats_total() const {
  sat::InprocessStats total;
  for (const auto& solver : solvers_) {
    const sat::InprocessStats& s = solver->inprocess_stats();
    total.passes += s.passes;
    total.vivify_checked += s.vivify_checked;
    total.vivified_clauses += s.vivified_clauses;
    total.vivified_literals += s.vivified_literals;
    total.subsume_checked += s.subsume_checked;
    total.subsumed_clauses += s.subsumed_clauses;
    total.strengthened_clauses += s.strengthened_clauses;
    total.probed_literals += s.probed_literals;
    total.failed_literals += s.failed_literals;
    total.hyper_binaries += s.hyper_binaries;
  }
  return total;
}

void SolverPortfolio::freeze(Var v) {
  if (!prep_) {
    // Without preprocessing the freeze still matters to inprocessing:
    // frozen variables are exempt from failed-literal probing. Recorded
    // unconditionally so enable_inprocessing() order does not matter.
    for (auto& solver : solvers_) solver->freeze_inprocess(v);
    return;
  }
  if (prep_done_) {
    throw std::logic_error(
        "SolverPortfolio::freeze: preprocessing already ran (freeze before "
        "the first solve)");
  }
  ipc_frozen_outer_.push_back(v);
  prep_->freeze(v);
}

void SolverPortfolio::freeze(const std::vector<Var>& vars) {
  for (const Var v : vars) freeze(v);
}

void SolverPortfolio::check_not_eliminated(
    std::span<const Lit> lits) const {
  for (const Lit l : lits) {
    if (prep_->is_eliminated(l.var())) {
      throw std::logic_error(
          "SolverPortfolio: variable " + std::to_string(l.var()) +
          " was eliminated by preprocessing; freeze() it before the first "
          "solve");
    }
  }
}

Var SolverPortfolio::new_var() {
  if (prep_ && !prep_done_) return prep_->new_var();
  const Var inner = solvers_.front()->new_var();
  for (std::size_t i = 1; i < solvers_.size(); ++i) solvers_[i]->new_var();
  if (!prep_) return inner;
  // Post-preprocessing variables exist on both sides of the remap.
  const Var outer = prep_->new_var();
  remap_.append(outer, inner);
  return outer;
}

void SolverPortfolio::ensure_var(Var v) {
  if (prep_ && !prep_done_) {
    prep_->ensure_var(v);
    return;
  }
  if (prep_) {
    while (prep_->num_vars() <= static_cast<std::size_t>(v)) new_var();
    return;
  }
  for (auto& solver : solvers_) solver->ensure_var(v);
}

bool SolverPortfolio::add_clause(Clause lits) {
  if (prep_ && !prep_done_) {
    // Staged: the members see the clause (simplified) at the first solve.
    return prep_->add_clause(std::move(lits));
  }
  sat::ClauseBatch one;
  one.lits = std::move(lits);
  one.seal();
  return add_clauses(one);
}

bool SolverPortfolio::add_clauses(const sat::ClauseBatch& batch) {
  // Staged: the preprocessor keeps the whole batch in its own arena.
  if (prep_ && !prep_done_) return prep_->add_clauses(batch);
  const sat::ClauseBatch* fed = &batch;
  if (prep_) {
    remapped_.clear();
    Clause inner;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      check_not_eliminated(batch.clause(i));
      remap_.clause_to_inner(batch.clause(i), inner);
      remapped_.lits.insert(remapped_.lits.end(), inner.begin(), inner.end());
      remapped_.seal();
    }
    fed = &remapped_;
  }
  // Below this size the thread fan-out costs more than it saves.
  constexpr std::size_t kParallelBatchMin = 512;
  std::vector<char> member_ok(solvers_.size(), 1);
  const auto feed = [this, fed, &member_ok](std::size_t m) {
    if (!solvers_[m]->add_clauses(*fed)) member_ok[m] = 0;
  };
  if (solvers_.size() == 1 || fed->size() < kParallelBatchMin) {
    for (std::size_t m = 0; m < solvers_.size(); ++m) feed(m);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(solvers_.size() - 1);
    for (std::size_t m = 1; m < solvers_.size(); ++m) {
      workers.emplace_back(feed, m);
    }
    feed(0);
    for (auto& w : workers) w.join();
  }
  // Members may disagree on *detecting* root unsatisfiability (their
  // private learned clauses propagate differently), but any detection is
  // sound, so one dead member proves the shared formula UNSAT.
  bool ok = true;
  for (const char okm : member_ok) ok = ok && (okm != 0);
  if (!ok) proven_unsat_ = true;
  return ok;
}

void SolverPortfolio::finish_preprocessing(
    const std::vector<Lit>& assumptions) {
  prep_done_ = true;
  // The first solve's assumption variables must survive elimination; later
  // solves may only assume variables the caller froze explicitly.
  for (const Lit a : assumptions) {
    prep_->freeze(a.var());
    ipc_frozen_outer_.push_back(a.var());
  }
  const bool proof = proof_enabled();
  if (proof) prep_->enable_proof();
  prep_->run();

  const std::size_t outer_count = prep_->num_vars();
  if (proof) {
    // Identity numbering keeps the trace replayable without a translation
    // table (eliminated vars stay as unconstrained member variables; the
    // reconstructed model overrides them).
    remap_ = sat::Remapper::identity(outer_count);
  } else {
    std::vector<bool> keep(outer_count);
    for (std::size_t v = 0; v < outer_count; ++v) {
      keep[v] = !prep_->is_eliminated(static_cast<Var>(v));
    }
    remap_ = sat::Remapper::compacting(keep);
  }

  // With the remap fixed, the staged freeze() vars can finally reach the
  // members as inprocessing probe exemptions (inner numbering).
  for (const Var outer : ipc_frozen_outer_) {
    if (prep_->is_eliminated(outer)) continue;
    const Var inner = remap_.to_inner(outer);
    if (inner == sat::kNoVar) continue;
    for (auto& solver : solvers_) solver->freeze_inprocess(inner);
  }
  ipc_frozen_outer_.clear();

  // The simplified formula in member numbering, built once for every
  // member's batch feed. Identity numbering (proof mode) feeds it as is.
  const sat::ClauseBatch& staged = prep_->clauses();
  sat::ClauseBatch remapped;
  if (!proof) {
    remapped.lits.reserve(staged.lit_count());
    remapped.ends = staged.ends;
    for (const Lit l : staged.lits) {
      remapped.lits.push_back(remap_.lit_to_inner(l));
    }
  }
  const sat::ClauseBatch& simplified = proof ? staged : remapped;
  Clause step;  // one replayed proof step, reused
  for (std::size_t i = 0; i < solvers_.size(); ++i) {
    sat::Solver& solver = *solvers_[i];
    if (proof) {
      // The trace's axiom set is the *original* formula; the prep steps
      // derive the simplified one, and the members are then fed silently
      // so they do not re-log the simplified clauses as axioms.
      sat::FileProofTracer& trace = *file_traces_[i];
      const sat::ClauseBatch& originals = prep_->originals();
      for (std::size_t c = 0; c < originals.size(); ++c) {
        const auto lits = originals.clause(c);
        step.assign(lits.begin(), lits.end());
        trace.original(step);
      }
      const sat::PreprocessProof& steps = prep_->proof_steps();
      for (std::size_t c = 0; c < steps.kinds.size(); ++c) {
        const auto lits = steps.clauses.clause(c);
        step.assign(lits.begin(), lits.end());
        sat::emit_step(trace, steps.kinds[c], step);
      }
      solver.set_proof(nullptr);
    }
    if (remap_.inner_count() > 0) {
      solver.ensure_var(static_cast<Var>(remap_.inner_count()) - 1);
    }
    bool ok = !prep_->contradiction();
    if (!ok) {
      solver.add_clause(Clause{});
    } else {
      ok = solver.add_clauses(simplified);
    }
    if (proof) {
      // A member that went dead during the silent feed derived UNSAT by
      // root unit propagation over the live set, so the empty clause is
      // RUP here; prep-detected contradictions already closed the trace.
      sat::FileProofTracer& trace = *file_traces_[i];
      if (!ok && !trace.closed()) trace.derive({});
      solver.set_proof(&trace);
    }
    if (!ok) proven_unsat_ = true;
  }
}

SolveOutcome SolverPortfolio::solve(const std::vector<Lit>& assumptions) {
  const auto start = std::chrono::steady_clock::now();
  if (prep_ && !prep_done_) finish_preprocessing(assumptions);
  std::vector<Lit> mapped_assumptions;
  const std::vector<Lit>* effective = &assumptions;
  if (prep_) {
    check_not_eliminated(assumptions);
    mapped_assumptions.reserve(assumptions.size());
    for (const Lit a : assumptions) {
      mapped_assumptions.push_back(remap_.lit_to_inner(a));
    }
    effective = &mapped_assumptions;
  }
  SolveOutcome outcome;
  const std::size_t n = solvers_.size();
  std::vector<std::uint64_t> conflicts_before(n);
  for (std::size_t i = 0; i < n; ++i) {
    conflicts_before[i] = solvers_[i]->stats().conflicts;
  }

  int winner_index = -1;
  if (n == 1 || proven_unsat_) {
    // Serial fast path: run the baseline member on the caller's thread
    // (bit-identical to pre-portfolio behaviour). A formula already proven
    // UNSAT at the root is answered by whichever member went dead.
    std::size_t pick = 0;
    if (proven_unsat_) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!solvers_[i]->okay()) {
          pick = i;
          break;
        }
      }
    }
    Solver& solver = *solvers_[pick];
    solver.set_limits(limits_);
    solver.set_cancel_flag(external_stop_);
    outcome.result = solver.solve(*effective);
    solver.set_cancel_flag(nullptr);
    winner_index = static_cast<int>(pick);
  } else {
    std::atomic<bool> cancel{false};
    std::atomic<int> claimed{-1};
    std::atomic<std::size_t> finished{0};
    std::vector<Result> results(n, Result::kUnknown);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, i, effective, &cancel, &claimed,
                            &results, &finished] {
        Solver& solver = *solvers_[i];
        solver.set_limits(limits_);
        solver.set_cancel_flag(&cancel);
        const Result r = solver.solve(*effective);
        results[i] = r;
        if (r != Result::kUnknown) {
          int expected = -1;
          if (claimed.compare_exchange_strong(expected,
                                              static_cast<int>(i))) {
            cancel.store(true, std::memory_order_release);
          }
        }
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    // Relay an external stop into the members' shared cancel flag; the
    // members themselves only poll the per-call token.
    if (external_stop_) {
      while (finished.load(std::memory_order_acquire) < n) {
        if (external_stop_->load(std::memory_order_relaxed)) {
          cancel.store(true, std::memory_order_release);
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    for (auto& thread : threads) thread.join();
    for (auto& solver : solvers_) solver->set_cancel_flag(nullptr);
    winner_index = claimed.load();
    if (winner_index >= 0) outcome.result = results[winner_index];
  }

  if (winner_index >= 0) {
    last_winner_ = winner_index;
    outcome.winner = winner_index;
    outcome.winner_config = names_[winner_index];
    outcome.winner_seed = solvers_[winner_index]->config().seed;
    outcome.conflicts = solvers_[winner_index]->stats().conflicts -
                        conflicts_before[winner_index];
    if (prep_ && outcome.result == Result::kSat) {
      // Reconstruct the outer model: copy surviving variables from the
      // winner, then replay the elimination stack.
      ext_model_.assign(prep_->num_vars(), LBool::kUndef);
      const Solver& winner = *solvers_[winner_index];
      for (std::size_t v = 0; v < ext_model_.size(); ++v) {
        const Var outer = static_cast<Var>(v);
        if (prep_->is_eliminated(outer)) continue;
        const Var inner = remap_.to_inner(outer);
        if (inner != sat::kNoVar &&
            static_cast<std::size_t>(inner) < winner.num_vars()) {
          ext_model_[v] = winner.model_value(inner);
        }
      }
      prep_->extend_model(ext_model_);
    }
    if (proof_enabled()) {
      outcome.proof_steps = file_traces_[winner_index]->steps();
      if (outcome.result == Result::kSat) {
        // With preprocessing the member check covers the simplified
        // formula plus post-prep clauses; the preprocessor check replays
        // the reconstructed model against every *original* clause.
        bool verified = solvers_[winner_index]->verify_model(*effective);
        if (prep_) verified = verified && prep_->verify_model(ext_model_);
        outcome.model_verified = verified ? 1 : 0;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    outcome.total_conflicts +=
        solvers_[i]->stats().conflicts - conflicts_before[i];
  }
  outcome.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return outcome;
}

LBool SolverPortfolio::model_value(Var v) const {
  if (prep_) {
    if (v >= 0 && static_cast<std::size_t>(v) < ext_model_.size()) {
      return ext_model_[v];
    }
    return LBool::kUndef;
  }
  return solvers_[last_winner_]->model_value(v);
}

bool SolverPortfolio::model_bool(Var v) const {
  return model_value(v) == LBool::kTrue;
}

std::uint64_t SolverPortfolio::total_conflicts() const {
  std::uint64_t total = 0;
  for (const auto& solver : solvers_) total += solver->stats().conflicts;
  return total;
}

std::string to_json(const SolveOutcome& outcome) {
  const char* result = outcome.result == Result::kSat     ? "sat"
                       : outcome.result == Result::kUnsat ? "unsat"
                                                          : "unknown";
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "{\"result\":\"%s\",\"winner\":%d,\"config\":\"%s\","
                "\"seed\":%llu,\"conflicts\":%llu,"
                "\"total_conflicts\":%llu,\"seconds\":%.6f",
                result, outcome.winner, outcome.winner_config.c_str(),
                static_cast<unsigned long long>(outcome.winner_seed),
                static_cast<unsigned long long>(outcome.conflicts),
                static_cast<unsigned long long>(outcome.total_conflicts),
                outcome.seconds);
  std::string json(buffer);
  // Certification fields only appear when proof logging was active, so
  // consumers of the historical shape are unaffected.
  if (outcome.proof_steps != 0 || outcome.model_verified >= 0) {
    json += ",\"proof_steps\":" + std::to_string(outcome.proof_steps);
    if (outcome.model_verified >= 0) {
      json += std::string(",\"model_ok\":") +
              (outcome.model_verified == 1 ? "true" : "false");
    }
  }
  json += "}";
  return json;
}

}  // namespace ril::runtime
