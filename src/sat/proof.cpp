#include "sat/proof.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ril::sat {

namespace {

constexpr unsigned char kBinaryMagic[6] = {kBinaryTraceMagic0, 'D', 'R',
                                           'A',               'T', 0x01};
constexpr char kEndTag = 'e';

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("proof trace line " + std::to_string(line_no) +
                           ": " + what);
}

[[noreturn]] void sys_fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " +
                           std::strerror(errno));
}

void append_varint(std::vector<char>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

}  // namespace

// --- FileProofTracer -------------------------------------------------------

FileProofTracer::FileProofTracer(std::string path, std::size_t buffer_bytes)
    : path_(std::move(path)),
      temp_path_(path_ + ".tmp"),
      buffer_limit_(buffer_bytes < 64 ? 64 : buffer_bytes) {
  fd_ = ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) sys_fail("cannot create", temp_path_);
  buffer_.reserve(buffer_limit_ + 64);
  buffer_.insert(buffer_.end(), kBinaryMagic, kBinaryMagic + sizeof(kBinaryMagic));
  bytes_ = sizeof(kBinaryMagic);
}

FileProofTracer::~FileProofTracer() { abandon(); }

void FileProofTracer::original(const Clause& lits) {
  append_step('o', lits);
}

void FileProofTracer::derive(const Clause& lits) {
  closed_ = closed_ || lits.empty();
  append_step('a', lits);
}

void FileProofTracer::erase(const Clause& lits) {
  append_step('d', lits);
}

void FileProofTracer::append_step(char tag, const Clause& lits) {
  if (fd_ < 0)
    throw std::logic_error("proof step appended after finalize: " + path_);
  const std::size_t before = buffer_.size();
  buffer_.push_back(tag);
  for (Lit l : lits)
    append_varint(buffer_, static_cast<std::uint32_t>(l.code) + 2u);
  buffer_.push_back('\0');
  bytes_ += buffer_.size() - before;
  ++steps_;
  if (buffer_.size() >= buffer_limit_) flush_buffer();
}

void FileProofTracer::flush_buffer() {
  write_raw(buffer_.data(), buffer_.size());
  buffer_.clear();
}

void FileProofTracer::write_raw(const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd_, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      sys_fail("write failed on", temp_path_);
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

void FileProofTracer::finalize_to(const std::string& final_path) {
  if (finalized_) return;
  if (fd_ < 0)
    throw std::runtime_error("finalize after abandon: " + path_);
  const std::size_t before = buffer_.size();
  buffer_.push_back(kEndTag);
  append_varint(buffer_, steps_);
  bytes_ += buffer_.size() - before;
  flush_buffer();
  if (::fsync(fd_) != 0) sys_fail("fsync failed on", temp_path_);
  if (::close(fd_) != 0) {
    fd_ = -1;
    sys_fail("close failed on", temp_path_);
  }
  fd_ = -1;
  if (::rename(temp_path_.c_str(), final_path.c_str()) != 0)
    sys_fail("rename failed for", final_path);
  finalized_ = true;
}

void FileProofTracer::abandon() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  ::unlink(temp_path_.c_str());
}

// --- text parsing ------------------------------------------------------------

namespace {

// One parsed text line. kEnd carries the declared step count.
enum class TextLine { kBlank, kComment, kEnd, kStep };

TextLine parse_text_line(const std::string& line, std::size_t line_no,
                         ProofStep& step, std::uint64_t& end_count) {
  std::istringstream fields(line);
  std::string tag;
  if (!(fields >> tag)) return TextLine::kBlank;
  if (tag == "c") {
    std::string word;
    if (fields >> word && word == "end") {
      if (!(fields >> end_count))
        fail(line_no, "malformed end marker (missing step count)");
      std::string trailing;
      if (fields >> trailing) fail(line_no, "junk after end marker");
      return TextLine::kEnd;
    }
    return TextLine::kComment;
  }
  if (tag == "o") {
    step.kind = ProofStepKind::kOriginal;
  } else if (tag == "a") {
    step.kind = ProofStepKind::kDerive;
  } else if (tag == "d") {
    step.kind = ProofStepKind::kErase;
  } else {
    fail(line_no, "unknown step tag '" + tag + "'");
  }
  step.lits.clear();
  long long dimacs = 0;
  bool terminated = false;
  while (fields >> dimacs) {
    if (dimacs == 0) {
      terminated = true;
      break;
    }
    const long long magnitude = dimacs < 0 ? -dimacs : dimacs;
    if (magnitude > 0x3fffffff) fail(line_no, "literal out of range");
    step.lits.push_back(
        Lit::make(static_cast<Var>(magnitude - 1), dimacs < 0));
  }
  if (!terminated) fail(line_no, "missing 0 terminator");
  std::string trailing;
  if (fields >> trailing) fail(line_no, "junk after 0 terminator");
  return TextLine::kStep;
}

}  // namespace

// --- TraceReader -----------------------------------------------------------

TraceReader::TraceReader(const std::string& path)
    : path_(path),
      in_(std::make_unique<std::ifstream>(path, std::ios::binary)) {
  if (!*in_) sys_fail("cannot open", path_);
  const int first = in_->peek();
  if (first == std::char_traits<char>::eof()) {
    done_ = true;  // zero-byte file: clean empty trace
    return;
  }
  binary_ = static_cast<unsigned char>(first) == kBinaryTraceMagic0;
  if (binary_) {
    buf_.resize(1 << 16);
    char magic[sizeof(kBinaryMagic)];
    in_->read(magic, sizeof(magic));
    if (in_->gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
        std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0)
      throw std::runtime_error("proof trace " + path_ +
                               ": bad binary magic header");
    byte_offset_ = sizeof(kBinaryMagic);
  }
}

TraceReader::~TraceReader() = default;

void TraceReader::fail_at(const std::string& what) const {
  if (binary_) {
    throw std::runtime_error("proof trace " + path_ + " byte " +
                             std::to_string(byte_offset_) + ": " + what);
  }
  throw std::runtime_error("proof trace " + path_ + " line " +
                           std::to_string(line_no_) + ": " + what);
}

bool TraceReader::refill() {
  if (buf_pos_ < buf_len_) return true;
  in_->read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_len_ = static_cast<std::size_t>(in_->gcount());
  buf_pos_ = 0;
  return buf_len_ > 0;
}

bool TraceReader::next(ProofStep& step) {
  if (done_) return false;
  return binary_ ? next_binary(step) : next_text(step);
}

bool TraceReader::next_binary(ProofStep& step) {
  const auto read_byte = [&](int& out) -> bool {
    if (!refill()) return false;
    out = static_cast<unsigned char>(buf_[buf_pos_++]);
    ++byte_offset_;
    return true;
  };
  const auto read_varint = [&](std::uint64_t& value) {
    value = 0;
    int shift = 0;
    for (;;) {
      int b = 0;
      if (!read_byte(b)) fail_at("truncated varint");
      // The 10th byte may carry bit 63 only: higher bits, or a further
      // byte, would not fit in 64 bits.
      if (shift == 63 && b > 1) fail_at("varint overflow");
      value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return;
      shift += 7;
    }
  };

  int tag = 0;
  if (!read_byte(tag))
    fail_at("truncated trace (missing end marker)");
  if (tag == kEndTag) {
    read_varint(expected_steps_);
    if (expected_steps_ != steps_read_)
      fail_at("end marker declares " + std::to_string(expected_steps_) +
              " steps but trace has " + std::to_string(steps_read_));
    int extra = 0;
    if (read_byte(extra)) fail_at("trailing bytes after end marker");
    end_marker_seen_ = true;
    done_ = true;
    return false;
  }
  switch (tag) {
    case 'o': step.kind = ProofStepKind::kOriginal; break;
    case 'a': step.kind = ProofStepKind::kDerive; break;
    case 'd': step.kind = ProofStepKind::kErase; break;
    default:
      fail_at("unknown step tag byte " + std::to_string(tag));
  }
  step.lits.clear();
  for (;;) {
    std::uint64_t value = 0;
    read_varint(value);
    if (value == 0) break;
    if (value < 2 || value - 2 > 0x7fffffffull)
      fail_at("literal code out of range");
    step.lits.push_back(
        lit_from_code(static_cast<std::int32_t>(value - 2)));
  }
  ++steps_read_;
  return true;
}

bool TraceReader::next_text(ProofStep& step) {
  const auto parse = [&](const std::string& line, ProofStep& out,
                         std::uint64_t& end_count) {
    try {
      return parse_text_line(line, line_no_, out, end_count);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(path_ + ": " + e.what());
    }
  };
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_no_;
    std::uint64_t end_count = 0;
    switch (parse(line, step, end_count)) {
      case TextLine::kBlank:
      case TextLine::kComment:
        continue;
      case TextLine::kEnd: {
        if (end_count != steps_read_)
          fail_at("end marker declares " + std::to_string(end_count) +
                  " steps but trace has " + std::to_string(steps_read_));
        while (std::getline(*in_, line)) {
          ++line_no_;
          ProofStep extra;
          std::uint64_t extra_count = 0;
          if (parse(line, extra, extra_count) != TextLine::kBlank)
            fail_at("content after end marker");
        }
        end_marker_seen_ = true;
        done_ = true;
        return false;
      }
      case TextLine::kStep:
        ++steps_read_;
        return true;
    }
  }
  fail_at("truncated trace (missing end marker)");
}

}  // namespace ril::sat
