// DRAT-style proof logging for the CDCL solver.
//
// A ProofTracer is an optional sink the Solver writes clause events into:
//  * original(c)  -- a problem clause as handed to add_clause (an axiom);
//  * derive(c)    -- a clause the solver claims is implied by everything
//                    logged before it (learned clauses, root-simplified
//                    units, failed-assumption cores, and the final empty
//                    clause of a refutation);
//  * erase(c)     -- a clause removed from the database (DB reduction).
//
// Because the solver is incremental, one trace interleaves original and
// derived clauses chronologically; a checker replays the stream in order,
// so clauses added between solve() calls are in scope exactly from the
// point they appeared. Every derived clause is expected to be RUP
// (reverse-unit-propagation) with respect to the live clause set at its
// position in the stream -- the property drat_check.hpp verifies. A trace
// whose last derivation is the empty clause is a closed refutation: a
// machine-checkable certificate that the logged axioms are UNSAT.
//
// Every certificate goes to disk: FileProofTracer streams the events in a
// compact binary encoding with bounded buffering, so certified solves on
// million-gate miters never hold the proof in RAM, and TraceReader
// replays an on-disk trace (binary, or hand-written text) step by step
// for the checker in drat_check.hpp. DratTrace is a plain in-memory
// recorder of the same events, for tests that inspect the solver's steps.
//
// The solver holds a plain `ProofTracer*` that is nullptr by default; all
// emission sites are off the propagation hot path, so disabled tracing
// costs nothing (see docs/ARCHITECTURE.md, "Certified verdicts").
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace ril::sat {

/// Abstract clause-event sink the Solver emits into.
class ProofTracer {
 public:
  virtual ~ProofTracer() = default;
  virtual void original(const Clause& lits) = 0;
  virtual void derive(const Clause& lits) = 0;
  virtual void erase(const Clause& lits) = 0;
};

enum class ProofStepKind : std::uint8_t {
  kOriginal,  ///< axiom ('o' line)
  kDerive,    ///< claimed-RUP addition ('a' line)
  kErase,     ///< deletion ('d' line)
};

/// Emits one step of kind `kind` into `sink`.
inline void emit_step(ProofTracer& sink, ProofStepKind kind,
                      const Clause& lits) {
  switch (kind) {
    case ProofStepKind::kOriginal: sink.original(lits); break;
    case ProofStepKind::kDerive: sink.derive(lits); break;
    case ProofStepKind::kErase: sink.erase(lits); break;
  }
}

struct ProofStep {
  ProofStepKind kind;
  Clause lits;
};

/// In-memory recorder: keeps the event stream verbatim (tests only; a
/// certificate is always streamed through FileProofTracer).
class DratTrace final : public ProofTracer {
 public:
  void original(const Clause& lits) override {
    steps_.push_back({ProofStepKind::kOriginal, lits});
  }
  void derive(const Clause& lits) override {
    closed_ = closed_ || lits.empty();
    steps_.push_back({ProofStepKind::kDerive, lits});
  }
  void erase(const Clause& lits) override {
    steps_.push_back({ProofStepKind::kErase, lits});
  }

  const std::vector<ProofStep>& steps() const { return steps_; }
  std::size_t size() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }
  /// True once the empty clause has been derived: the trace is a complete
  /// refutation candidate.
  bool closed() const { return closed_; }
  void clear() {
    steps_.clear();
    closed_ = false;
  }

 private:
  std::vector<ProofStep> steps_;
  bool closed_ = false;
};

/// Disk-backed proof sink: appends steps to `path() + ".tmp"` in the
/// binary format below, flushing an internal buffer in bounded chunks so
/// memory stays O(buffer) no matter how long the refutation runs.
///
/// The final file only ever appears atomically: finalize() writes the end
/// marker, fsyncs, and renames the temp over `path()` (finalize_to()
/// renames elsewhere -- how a portfolio promotes its winning member's
/// trace). A tracer destroyed without finalize() unlinks its temp, so a
/// killed process never leaves a partial trace under the published name.
class FileProofTracer final : public ProofTracer {
 public:
  /// Opens `path + ".tmp"` for writing (truncating any stale temp).
  /// Throws std::runtime_error if the temp cannot be created.
  explicit FileProofTracer(std::string path,
                           std::size_t buffer_bytes = 1 << 20);
  ~FileProofTracer() override;

  FileProofTracer(const FileProofTracer&) = delete;
  FileProofTracer& operator=(const FileProofTracer&) = delete;

  void original(const Clause& lits) override;
  void derive(const Clause& lits) override;
  void erase(const Clause& lits) override;

  std::uint64_t steps() const { return steps_; }
  /// Bytes of encoded trace so far (header + steps, buffered included).
  std::uint64_t bytes_written() const { return bytes_; }
  /// True once the empty clause has been derived.
  bool closed() const { return closed_; }
  const std::string& path() const { return path_; }
  const std::string& temp_path() const { return temp_path_; }
  bool finalized() const { return fd_ < 0 && finalized_; }

  /// Seals the trace (end marker), flushes, fsyncs, and atomically
  /// renames the temp to path(). Idempotent; throws on I/O failure.
  void finalize() { finalize_to(path_); }
  /// Same, but publishes under `final_path` instead of path().
  void finalize_to(const std::string& final_path);
  /// Closes and deletes the temp without publishing anything. Idempotent.
  void abandon();

 private:
  void append_step(char tag, const Clause& lits);
  void flush_buffer();
  void write_raw(const char* data, std::size_t n);

  std::string path_;
  std::string temp_path_;
  int fd_ = -1;
  bool finalized_ = false;
  std::vector<char> buffer_;
  std::size_t buffer_limit_;
  std::uint64_t steps_ = 0;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

/// Streaming reader over an on-disk trace, binary or text (sniffed from
/// the leading magic byte). next() yields one step at a time in file
/// order with O(1) memory, throwing std::runtime_error -- line-numbered
/// for text, byte-offset for binary -- on malformed input. A non-empty
/// file must carry its end marker ('e' record in binary, "c end <n>"
/// comment in text); hitting EOF without one means the trace was
/// truncated and next() throws. A zero-byte file reads as a clean empty
/// trace (the caller decides whether "empty" is an error).
class TraceReader {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Fills `step` with the next step and returns true, or returns false
  /// at a well-terminated end of trace. Throws on malformed input.
  bool next(ProofStep& step);

  std::uint64_t steps_read() const { return steps_read_; }
  bool binary() const { return binary_; }

 private:
  bool next_binary(ProofStep& step);
  bool next_text(ProofStep& step);
  bool refill();
  [[noreturn]] void fail_at(const std::string& what) const;

  std::string path_;
  std::unique_ptr<std::ifstream> in_;
  bool binary_ = false;
  bool done_ = false;
  std::uint64_t steps_read_ = 0;
  std::uint64_t expected_steps_ = 0;
  bool end_marker_seen_ = false;
  // Binary-mode buffered input.
  std::vector<char> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  std::uint64_t byte_offset_ = 0;
  // Text-mode state.
  std::size_t line_no_ = 0;
};

// --- text format (read only) ------------------------------------------------
// One step per line, DIMACS literal numbering (var 0 <-> 1, negation <-> -):
//   o <lits> 0     original clause
//   a <lits> 0     derived (claimed-RUP) clause
//   d <lits> 0     deletion
// Lines starting with 'c' are comments. This is standard DRAT extended
// with 'o' lines so an incremental trace carries its own axiom stream.
// A text trace must end with a "c end <step-count>" marker so readers can
// reject truncated files. TraceReader accepts the text form so hand-made
// or externally produced traces can be checked; nothing here writes it.

// --- binary serialization --------------------------------------------------
// Layout: 6-byte magic {0x8F,'D','R','A','T',0x01}, then records:
//   'o'|'a'|'d'  varint(lit.code+2)*  0x00        one step
//   'e'          varint(step-count)               end marker (required)
// Varints are LSB-first 7-bit groups with the high bit as continuation.
// Literal codes are offset by 2 so the 0x00 clause terminator can never
// collide with an encoded literal (mirroring the binary-DRAT convention
// of mapping DIMACS lit v to 2|v|+sign).

/// First byte of the binary format; lets readers sniff binary vs text.
inline constexpr unsigned char kBinaryTraceMagic0 = 0x8F;

}  // namespace ril::sat
