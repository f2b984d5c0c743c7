// Disk-backed proof streaming: FileProofTracer (binary DRAT, atomic
// temp+rename publish), TraceReader / check_refutation_file (single-pass
// streaming reads with bounded memory), truncation/garbage rejection, and
// the portfolio's winner-trace promotion -- including composition with the
// SatELite preprocessor's step replay. Every file lives under the gtest
// temp directory (proof_files.hpp).
#include "sat/proof.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "proof_files.hpp"
#include "runtime/portfolio.hpp"
#include "sat/drat_check.hpp"

namespace ril::sat {
namespace {

using runtime::SolverPortfolio;
using test::read_steps;
using test::temp_path;

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

/// Feeds every step of `trace` into `sink` in order.
void replay(const DratTrace& trace, ProofTracer& sink) {
  for (const ProofStep& step : trace.steps()) {
    emit_step(sink, step.kind, step.lits);
  }
}

void expect_same_steps(const DratTrace& a, const DratTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.steps()[i].kind, b.steps()[i].kind) << "step " << i;
    EXPECT_EQ(a.steps()[i].lits, b.steps()[i].lits) << "step " << i;
  }
}

/// A pseudo-random but deterministic trace large enough to cross several
/// stream-buffer flushes (the tracer's buffer is 1 MiB by default; we use
/// a small one in the tests that care).
DratTrace make_large_trace(std::size_t steps, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  DratTrace trace;
  for (std::size_t i = 0; i < steps; ++i) {
    Clause lits;
    const std::size_t width = 1 + rng() % 8;
    for (std::size_t k = 0; k < width; ++k) {
      lits.push_back(Lit::make(static_cast<Var>(rng() % 5000), rng() & 1));
    }
    switch (rng() % 3) {
      case 0: trace.original(lits); break;
      case 1: trace.derive(lits); break;
      default: trace.erase(lits); break;
    }
  }
  return trace;
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

// --- FileProofTracer --------------------------------------------------------

TEST(FileProofTracer, LargeTraceRoundTripsBitIdentically) {
  const std::string path = temp_path("large.drat");
  const DratTrace reference = make_large_trace(50000, 42);

  // Stream with a deliberately tiny buffer so the flush path is exercised
  // thousands of times.
  {
    FileProofTracer tracer(path, /*buffer_bytes=*/256);
    replay(reference, tracer);
    EXPECT_EQ(tracer.steps(), reference.size());
    tracer.finalize();
    EXPECT_TRUE(tracer.finalized());
  }
  ASSERT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp")) << "temp must be renamed away";

  const DratTrace reread = read_steps(path);
  expect_same_steps(reference, reread);

  // A second streaming pass over the same steps must produce the same
  // bytes -- the binary encoding is deterministic.
  const std::string first = read_bytes(path);
  {
    FileProofTracer tracer(path, /*buffer_bytes=*/1 << 20);
    replay(reference, tracer);
    tracer.finalize();
  }
  EXPECT_EQ(first, read_bytes(path));

  // The streaming reader agrees step-for-step too.
  TraceReader reader(path);
  ProofStep step;
  std::size_t i = 0;
  while (reader.next(step)) {
    ASSERT_LT(i, reference.size());
    EXPECT_EQ(step.kind, reference.steps()[i].kind);
    EXPECT_EQ(step.lits, reference.steps()[i].lits);
    ++i;
  }
  EXPECT_EQ(i, reference.size());
  EXPECT_TRUE(reader.binary());
  std::remove(path.c_str());
}

TEST(FileProofTracer, AbandonRemovesTempAndNeverPublishes) {
  const std::string path = temp_path("abandon.drat");
  std::remove(path.c_str());
  {
    FileProofTracer tracer(path);
    tracer.original({Lit::make(0)});
    tracer.abandon();
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));

  // Destruction without finalize() abandons too (the kill-mid-write
  // story: an un-finalized temp never shadows a published proof).
  {
    FileProofTracer tracer(path);
    tracer.derive({Lit::make(1, true)});
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(FileProofTracer, StepsAfterFinalizeThrow) {
  const std::string path = temp_path("sealed.drat");
  FileProofTracer tracer(path);
  tracer.original({Lit::make(0)});
  tracer.finalize();
  EXPECT_THROW(tracer.derive({Lit::make(1)}), std::logic_error);
  std::remove(path.c_str());
}

// --- truncation / garbage rejection -----------------------------------------

TEST(TraceReader, TruncatedBinaryTraceIsRejected) {
  const std::string path = temp_path("trunc.drat");
  {
    // Originals only: every step is checker-acceptable, so the streaming
    // checker must reach the torn tail and flag the parse failure instead
    // of rejecting some semantically-invalid step before it.
    std::mt19937_64 rng(7);
    FileProofTracer tracer(path);
    for (int i = 0; i < 500; ++i) {
      Clause lits;
      for (int k = 0; k < 4; ++k) {
        lits.push_back(Lit::make(static_cast<Var>(rng() % 5000), rng() & 1));
      }
      tracer.original(lits);
    }
    tracer.finalize();
  }
  const std::string full = read_bytes(path);
  // Cut the file mid-stream, as a crashed writer would leave it (if it
  // ever published, which FileProofTracer does not -- this simulates
  // external tampering or a torn copy).
  write_bytes(path, full.substr(0, full.size() / 2));
  EXPECT_THROW(read_steps(path), std::runtime_error);
  const DratCheckResult check = check_refutation_file(path);
  EXPECT_FALSE(check.valid);
  EXPECT_TRUE(check.malformed) << check.error;

  // Dropping only the end marker must also be rejected: a clean EOF
  // without the marker is indistinguishable from a truncated tail.
  write_bytes(path, full.substr(0, full.size() - 3));
  EXPECT_THROW(read_steps(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceReader, GarbageAndBadFooterAreRejectedWithLocation) {
  const std::string path = temp_path("garbage.drat");
  write_bytes(path, "this is not a proof trace\n");
  try {
    read_steps(path);
    FAIL() << "garbage trace must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }

  // Text trace whose footer count disagrees with the steps.
  write_bytes(path, "o 1 0\na -1 0\nc end 5\n");
  EXPECT_THROW(read_steps(path), std::runtime_error);
  // Text trace with content after the footer.
  write_bytes(path, "o 1 0\nc end 1\na -1 0\n");
  EXPECT_THROW(read_steps(path), std::runtime_error);
  // Text trace missing its footer entirely (torn tail).
  write_bytes(path, "o 1 0\na -1 0\n");
  EXPECT_THROW(read_steps(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceReader, FooterTamperRejectedEvenWhenRefutationChecks) {
  // A complete, checker-valid refutation whose end marker is then
  // corrupted: check_refutation_file must drain the reader past the empty
  // clause and reject the bad framing -- mid-trace literal flips can leave
  // a refutation that still checks, so the end marker is the integrity
  // anchor a tamper test can rely on.
  const std::string path = temp_path("footer_tamper.drat");
  {
    FileProofTracer tracer(path);
    tracer.original({Lit::make(0)});
    tracer.original({Lit::make(0, true)});
    tracer.derive({});
    tracer.finalize();
  }
  ASSERT_TRUE(check_refutation_file(path).valid);

  std::string bytes = read_bytes(path);
  ASSERT_GE(bytes.size(), 2u);
  bytes.back() = static_cast<char>(bytes.back() + 1);  // declared step count
  write_bytes(path, bytes);
  const DratCheckResult check = check_refutation_file(path);
  EXPECT_FALSE(check.valid);
  EXPECT_TRUE(check.malformed);
  EXPECT_NE(check.error.find("end marker"), std::string::npos) << check.error;
  std::remove(path.c_str());
}

TEST(TraceReader, TenByteVarintOverflowIsRejected) {
  // A 10-byte varint holds bits 63..69 in its last byte; only bit 63 fits
  // in 64 bits. The reader used to drop bits 64..69, so 5 + 2^64 decoded as
  // 5 and a tampered trace checked as valid.
  const std::string path = temp_path("varint.drat");
  const std::string magic = {static_cast<char>(kBinaryTraceMagic0), 'D', 'R',
                             'A', 'T', '\x01'};
  // The varint of `low` (< 128) plus `high` << 63, padded to 10 bytes.
  const auto ten_bytes = [](char low, char high) {
    std::string out(1, static_cast<char>(low | 0x80));
    out.append(8, static_cast<char>(0x80));
    out.push_back(high);
    return out;
  };

  // Literal varint 5 + 2^64: without the check it reads as literal code 3.
  write_bytes(path, magic + "o" + ten_bytes(5, 2) + '\0' + "e\x01");
  DratCheckResult check = check_derivations_file(path);
  EXPECT_FALSE(check.valid);
  EXPECT_TRUE(check.malformed);
  EXPECT_NE(check.error.find("varint overflow"), std::string::npos)
      << check.error;

  // Bit 63 itself still decodes; the value is then out of literal range.
  write_bytes(path, magic + "o" + ten_bytes(5, 1) + '\0' + "e\x01");
  check = check_derivations_file(path);
  EXPECT_TRUE(check.malformed);
  EXPECT_NE(check.error.find("literal code out of range"), std::string::npos)
      << check.error;

  // A valid three-step refutation whose end marker declares 3 + 2^64.
  const std::string x1 = "\x02";  // varint(code 0 + 2)
  const std::string not_x1 = "\x03";
  const std::string steps = "o" + x1 + '\0' + "o" + not_x1 + '\0' + "a" +
                            '\0';
  write_bytes(path, magic + steps + "e\x03");
  ASSERT_TRUE(check_refutation_file(path).valid);
  write_bytes(path, magic + steps + "e" + ten_bytes(3, 2));
  check = check_refutation_file(path);
  EXPECT_FALSE(check.valid);
  EXPECT_TRUE(check.malformed);
  EXPECT_NE(check.error.find("varint overflow"), std::string::npos)
      << check.error;
  std::remove(path.c_str());
}

TEST(TraceReader, EmptyFileIsACleanEmptyTrace) {
  const std::string path = temp_path("empty.drat");
  write_bytes(path, "");
  const DratTrace trace = read_steps(path);
  EXPECT_EQ(trace.size(), 0u);
  TraceReader reader(path);
  ProofStep step;
  EXPECT_FALSE(reader.next(step));
  std::remove(path.c_str());
}

// --- portfolio winner promotion ---------------------------------------------

TEST(PortfolioProofFiles, WinnerIsPromotedAndLosersCleanedUp) {
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    const std::string stem = temp_path("portfolio.drat");
    const unsigned jobs = 3;
    SolverPortfolio portfolio(jobs, seed);
    portfolio.enable_proof(stem);
    EXPECT_TRUE(portfolio.proof_enabled());
    add_pigeonhole(portfolio, 6, 5);
    const runtime::SolveOutcome outcome = portfolio.solve();
    ASSERT_EQ(outcome.result, Result::kUnsat);
    ASSERT_NE(portfolio.winner_file_trace(), nullptr);
    EXPECT_TRUE(portfolio.winner_file_trace()->closed());

    const std::uint64_t bytes = portfolio.promote_winner_trace(stem);
    EXPECT_GT(bytes, 0u);
    ASSERT_TRUE(file_exists(stem));
    for (unsigned i = 0; i < jobs; ++i) {
      const std::string member = stem + ".m" + std::to_string(i) + ".drat";
      EXPECT_FALSE(file_exists(member)) << member;
      EXPECT_FALSE(file_exists(member + ".tmp")) << member;
    }

    const DratCheckResult check = check_refutation_file(stem);
    EXPECT_TRUE(check.valid) << check.error;
    EXPECT_FALSE(check.malformed);
    std::remove(stem.c_str());

    // After promotion the portfolio detaches proof logging: later solves
    // are uncertified but still sound.
    EXPECT_FALSE(portfolio.proof_enabled());
  }
}

TEST(PortfolioProofFiles, PreprocessorReplayPassesStreamingChecker) {
  const std::string stem = temp_path("prep.drat");
  SolverPortfolio portfolio(2, 5);
  portfolio.enable_proof(stem);
  portfolio.enable_preprocessing();
  add_pigeonhole(portfolio, 7, 6);
  const runtime::SolveOutcome outcome = portfolio.solve();
  ASSERT_EQ(outcome.result, Result::kUnsat);
  ASSERT_NE(portfolio.winner_file_trace(), nullptr);
  ASSERT_TRUE(portfolio.winner_file_trace()->closed());
  portfolio.promote_winner_trace(stem);
  // The elimination/strengthening steps the preprocessor replayed into the
  // streamed trace must satisfy the independent streaming checker.
  const DratCheckResult check = check_refutation_file(stem);
  EXPECT_TRUE(check.valid) << check.error;
  std::remove(stem.c_str());
}

TEST(PortfolioProofFiles, SecondEnableIsANoOp) {
  // A second enable_proof keeps the first stem's tracers, and promotion
  // without proof logging is a logic error.
  const std::string first = temp_path("enable_a.drat");
  const std::string second = temp_path("enable_b.drat");
  SolverPortfolio portfolio(1, 1);
  portfolio.enable_proof(first);
  portfolio.enable_proof(second);
  EXPECT_TRUE(portfolio.proof_enabled());
  EXPECT_TRUE(file_exists(first + ".m0.drat.tmp"));
  EXPECT_FALSE(file_exists(second + ".m0.drat.tmp"));

  SolverPortfolio plain(1, 1);
  EXPECT_FALSE(plain.proof_enabled());
  EXPECT_THROW(plain.promote_winner_trace(temp_path("none.drat")),
               std::logic_error);
}

}  // namespace
}  // namespace ril::sat
