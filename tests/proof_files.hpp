// Shared test helpers that put DRAT traces on disk, so every certificate
// check in the tests runs through the production entry points
// (check_refutation_file / check_derivations_file / TraceReader).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "sat/drat_check.hpp"
#include "sat/proof.hpp"

namespace ril::test {

/// A fresh path under the gtest temp directory, unique per process and
/// per call: `<TempDir>/<stem>.<pid>.<n>`.
inline std::string temp_path(const std::string& stem) {
  static unsigned counter = 0;
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid()) +
         "." + std::to_string(counter++);
}

/// Writes every step of `trace` to `path` as binary DRAT through
/// FileProofTracer (published with its end marker).
inline void write_binary(const std::string& path,
                         const sat::DratTrace& trace) {
  sat::FileProofTracer tracer(path);
  for (const sat::ProofStep& step : trace.steps()) {
    sat::emit_step(tracer, step.kind, step.lits);
  }
  tracer.finalize();
}

/// The text form of `trace`: DIMACS numbering, one 'o'/'a'/'d' line per
/// step, no end marker (text_trace_file adds it).
inline std::string to_text(const sat::DratTrace& trace) {
  std::string text;
  for (const sat::ProofStep& step : trace.steps()) {
    text += step.kind == sat::ProofStepKind::kOriginal ? 'o'
            : step.kind == sat::ProofStepKind::kDerive ? 'a'
                                                       : 'd';
    for (const sat::Lit l : step.lits) {
      text += ' ';
      if (l.sign()) text += '-';
      text += std::to_string(static_cast<long long>(l.var()) + 1);
    }
    text += " 0\n";
  }
  return text;
}

/// Writes text steps (one per line; comment and blank lines allowed) to a
/// fresh temp file followed by their "c end <n>" marker, and returns its
/// path.
inline std::string text_trace_file(const std::string& steps) {
  std::size_t count = 0;
  for (std::size_t at = 0; at < steps.size();) {
    std::size_t end = steps.find('\n', at);
    if (end == std::string::npos) end = steps.size();
    const std::size_t first = steps.find_first_not_of(" \t", at);
    if (first < end && steps[first] != 'c') ++count;
    at = end + 1;
  }
  const std::string path = temp_path("text.drat");
  std::ofstream out(path, std::ios::trunc);
  out << steps << "c end " << count << "\n";
  EXPECT_TRUE(out.good()) << path;
  return path;
}

/// Reads every step of the trace at `path` through TraceReader.
inline sat::DratTrace read_steps(const std::string& path) {
  sat::TraceReader reader(path);
  sat::DratTrace trace;
  sat::ProofStep step;
  while (reader.next(step)) sat::emit_step(trace, step.kind, step.lits);
  return trace;
}

/// Checks `trace` through a temporary binary file with `check` (one of
/// the sat::check_*_file entry points); the file is removed afterwards.
inline sat::DratCheckResult check_via_file(
    const sat::DratTrace& trace,
    sat::DratCheckResult (*check)(const std::string&)) {
  const std::string path = temp_path("check.drat");
  write_binary(path, trace);
  const sat::DratCheckResult result = check(path);
  std::remove(path.c_str());
  return result;
}

inline sat::DratCheckResult refutation_via_file(const sat::DratTrace& trace) {
  return check_via_file(trace, sat::check_refutation_file);
}

inline sat::DratCheckResult derivations_via_file(
    const sat::DratTrace& trace) {
  return check_via_file(trace, sat::check_derivations_file);
}

/// Checks hand-written text steps (see text_trace_file) with `check`.
inline sat::DratCheckResult check_text(
    const std::string& steps,
    sat::DratCheckResult (*check)(const std::string&)) {
  const std::string path = text_trace_file(steps);
  const sat::DratCheckResult result = check(path);
  std::remove(path.c_str());
  return result;
}

}  // namespace ril::test
