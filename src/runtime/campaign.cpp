#include "runtime/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace ril::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string format_seconds(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Position of the value of the top-level key `"field":` in `line` (past
/// any spaces or tabs after the colon, as in `"field": value`), or npos.
/// `line` is either a whole object (`{...}`, keys at depth 1) or an
/// object's unwrapped body as json_object_field returns it (depth 0).
/// String contents and nested objects/arrays are skipped, so a key inside
/// `"data":{...}` never shadows a missing top-level one.
std::size_t find_field_value(const std::string& line,
                             const std::string& field) {
  const std::string needle = "\"" + field + "\":";
  std::size_t pos = line.find_first_not_of(" \t\r\n");
  if (pos == std::string::npos) return std::string::npos;
  const int top = line[pos] == '{' ? 1 : 0;
  int depth = 0;
  for (; pos < line.size(); ++pos) {
    const char c = line[pos];
    if (c == '"') {
      if (depth == top && line.compare(pos, needle.size(), needle) == 0) {
        pos += needle.size();
        while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
          ++pos;
        }
        return pos;
      }
      // Skip the string: it ends at the next '"' not escaped by an odd
      // run of backslashes. find() steps over megabyte-sized inline
      // netlists at memchr speed.
      std::size_t backslashes = 1;
      while (backslashes % 2 == 1) {
        pos = line.find('"', pos + 1);
        if (pos == std::string::npos) return pos;
        backslashes = 0;
        while (line[pos - 1 - backslashes] == '\\') ++backslashes;
      }
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return std::string::npos;
}

}  // namespace

std::string json_string_field(const std::string& line,
                              const std::string& field) {
  auto pos = find_field_value(line, field);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '"') {
    return {};
  }
  ++pos;
  std::string out;
  while (pos < line.size()) {
    const char c = line[pos];
    if (c == '"') return out;
    if (c == '\\' && pos + 1 < line.size()) {
      const char next = line[++pos];
      switch (next) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        default: out += next;
      }
    } else {
      out += c;
    }
    ++pos;
  }
  return {};  // unterminated string
}

double json_number_field(const std::string& line, const std::string& field,
                         double fallback) {
  const auto pos = find_field_value(line, field);
  if (pos == std::string::npos) return fallback;
  // std::from_chars, not std::stod: stod reads the decimal separator from
  // the global LC_NUMERIC, so resuming a campaign under a comma-decimal
  // locale would truncate "0.25" to 0. from_chars always parses the JSON
  // ("C") number format.
  const char* begin = line.data() + pos;
  const char* end = line.data() + line.size();
  double value = fallback;
  const auto result = std::from_chars(begin, end, value);
  if (result.ec != std::errc() || result.ptr == begin) return fallback;
  return value;
}

bool json_bool_field(const std::string& line, const std::string& field,
                     bool fallback) {
  const auto pos = find_field_value(line, field);
  if (pos == std::string::npos) return fallback;
  if (line.compare(pos, 4, "true") == 0) return true;
  if (line.compare(pos, 5, "false") == 0) return false;
  return fallback;
}

std::string json_object_field(const std::string& line,
                              const std::string& field) {
  auto pos = find_field_value(line, field);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '{') {
    return {};
  }
  const std::size_t body_start = pos + 1;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++depth;
    else if (c == '}') {
      if (--depth == 0) return line.substr(body_start, i - body_start);
    }
  }
  return {};  // unbalanced
}

std::string job_record_json(const JobRecord& record) {
  std::string out = "{\"key\":\"" + json_escape(record.key) +
                    "\",\"status\":\"" + json_escape(record.status) +
                    "\",\"queue_seconds\":" +
                    format_seconds(record.queue_seconds) +
                    ",\"run_seconds\":" + format_seconds(record.run_seconds);
  if (!record.error.empty()) {
    out += ",\"error\":\"" + json_escape(record.error) + "\"";
  }
  if (!record.payload.empty()) {
    out += ",\"data\":{" + record.payload + "}";
  }
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// JsonlWriter
// ---------------------------------------------------------------------------

void JsonlWriter::open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  out_.open(path, std::ios::app);
  if (!out_) throw std::runtime_error("cannot open " + path);
  path_ = path;
}

bool JsonlWriter::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!out_.is_open()) return false;
  out_ << line << "\n";
  out_.flush();  // survive a kill mid-run
  if (!out_.fail()) return true;
  // Disk full / I/O error: the record is lost for resume purposes. Count
  // it, warn once, and clear the stream state so later records still get
  // a chance to land (a transient ENOSPC may pass).
  failures_.fetch_add(1, std::memory_order_relaxed);
  if (!warned_) {
    warned_ = true;
    std::fprintf(stderr,
                 "warning: checkpoint write to %s failed (disk full or I/O "
                 "error); records may be missing on resume\n",
                 path_.c_str());
  }
  out_.clear();
  return false;
}

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

JobQueue::JobQueue(unsigned workers) {
  const unsigned count = std::max(1u, std::min(workers, 256u));
  active_.assign(count, nullptr);
  pool_.reserve(count);
  for (unsigned w = 0; w < count; ++w) {
    pool_.emplace_back([this, w] { worker_loop(w); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

JobQueue::~JobQueue() {
  cancel_all();
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
  watchdog_.join();
}

void JobQueue::submit(std::string key, double timeout_seconds, RunFn run,
                      DoneFn done) {
  Pending pending;
  pending.key = std::move(key);
  pending.timeout = timeout_seconds;
  pending.run = std::move(run);
  pending.done = std::move(done);
  pending.enqueued = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cancelling_) {
      // The queue is shutting down: fail fast instead of queueing work
      // that would only be dropped.
      JobRecord record;
      record.key = std::move(pending.key);
      record.status = "error";
      record.error = "cancelled";
      if (pending.done) pending.done(std::move(record));
      return;
    }
    queue_.push_back(std::move(pending));
  }
  work_cv_.notify_one();
}

void JobQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void JobQueue::cancel_all() {
  std::deque<Pending> dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelling_ = true;
    dropped.swap(queue_);
  }
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (JobContext* ctx : active_) {
      if (ctx) ctx->cancel_.store(true, std::memory_order_relaxed);
    }
  }
  for (Pending& pending : dropped) {
    JobRecord record;
    record.key = std::move(pending.key);
    record.status = "error";
    record.error = "cancelled";
    if (pending.done) pending.done(std::move(record));
  }
  idle_cv_.notify_all();
}

std::size_t JobQueue::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + running_;
}

void JobQueue::arm(unsigned slot, JobContext* ctx, double timeout) {
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    ctx->timeout_ = timeout;
    if (timeout > 0) {
      ctx->deadline_ = Clock::now() + std::chrono::duration_cast<
          Clock::duration>(std::chrono::duration<double>(timeout));
      ctx->has_deadline_ = true;
    }
    active_[slot] = ctx;
  }
  // Close the pop/cancel race: cancel_all() may have iterated active_
  // after this worker popped the job (observing cancelling_ == false) but
  // before the registration above, in which case nobody set our flag.
  std::lock_guard<std::mutex> lock(mutex_);
  if (cancelling_) ctx->cancel_.store(true, std::memory_order_relaxed);
}

void JobQueue::disarm(unsigned slot) {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  active_[slot] = nullptr;
}

void JobQueue::watchdog_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      const auto now = Clock::now();
      for (JobContext* ctx : active_) {
        if (ctx && ctx->has_deadline_ && now >= ctx->deadline_) {
          ctx->cancel_.store(true, std::memory_order_relaxed);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void JobQueue::worker_loop(unsigned slot) {
  for (;;) {
    Pending pending;
    bool cancelled = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
      cancelled = cancelling_;
      ++running_;
    }

    JobRecord record;
    record.key = pending.key;
    const auto start = Clock::now();
    record.queue_seconds = seconds_between(pending.enqueued, start);

    if (cancelled) {
      record.status = "error";
      record.error = "cancelled";
    } else {
      JobContext ctx;
      arm(slot, &ctx, pending.timeout);
      try {
        record.payload = pending.run ? pending.run(ctx) : std::string();
        record.status = "ok";
      } catch (const std::exception& e) {
        record.status = "error";
        record.error = e.what();
      } catch (...) {
        record.status = "error";
        record.error = "unknown exception";
      }
      disarm(slot);
    }
    record.run_seconds = seconds_between(start, Clock::now());

    if (pending.done) {
      try {
        pending.done(std::move(record));
      } catch (...) {
        // A throwing completion callback must not take down the worker.
      }
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// run_campaign
// ---------------------------------------------------------------------------

CampaignSummary run_campaign(const std::vector<CampaignJob>& jobs,
                             const CampaignOptions& options) {
  {
    std::unordered_set<std::string> keys;
    for (const CampaignJob& job : jobs) {
      if (!keys.insert(job.key).second) {
        throw std::invalid_argument("run_campaign: duplicate job key '" +
                                    job.key + "'");
      }
    }
  }

  CampaignSummary summary;
  summary.records.resize(jobs.size());
  const auto campaign_start = Clock::now();

  // Restore terminal records from a previous (possibly killed) run.
  std::unordered_map<std::string, JobRecord> restored;
  if (options.resume && !options.out_path.empty()) {
    std::ifstream in(options.out_path);
    std::string line;
    while (std::getline(in, line)) {
      const std::string key = json_string_field(line, "key");
      const std::string status = json_string_field(line, "status");
      if (key.empty() || (status != "ok" && status != "error")) continue;
      JobRecord record;
      record.key = key;
      record.status = "cached";
      record.error = json_string_field(line, "error");
      record.payload = json_object_field(line, "data");
      record.queue_seconds = json_number_field(line, "queue_seconds");
      record.run_seconds = json_number_field(line, "run_seconds");
      restored[key] = std::move(record);  // last line wins
    }
  }

  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto it = restored.find(jobs[i].key);
    if (it != restored.end()) {
      summary.records[i] = it->second;
      ++summary.cached;
    } else {
      pending.push_back(i);
    }
  }

  JsonlWriter checkpoint;
  if (!options.out_path.empty()) checkpoint.open(options.out_path);

  const unsigned workers = std::max<unsigned>(
      1, std::min<unsigned>(std::min<unsigned>(options.jobs, 256),
                            std::max<std::size_t>(pending.size(), 1)));

  std::atomic<std::size_t> errors{0};
  {
    JobQueue queue(workers);
    for (std::size_t index : pending) {
      const CampaignJob& job = jobs[index];
      queue.submit(
          job.key, job.timeout_seconds,
          [&job](JobContext& ctx) {
            return job.run ? job.run(ctx) : std::string();
          },
          [&summary, &checkpoint, &errors, index](JobRecord&& record) {
            if (record.status == "error") {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
            if (checkpoint.is_open()) {
              checkpoint.write_line(job_record_json(record));
            }
            summary.records[index] = std::move(record);  // distinct: safe
          });
    }
    queue.wait_idle();
  }

  summary.completed = pending.size();
  summary.errors = errors.load();
  summary.checkpoint_failures = checkpoint.failures();
  summary.seconds = seconds_between(campaign_start, Clock::now());
  return summary;
}

}  // namespace ril::runtime
