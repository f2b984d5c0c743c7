// Parallel, crash-isolated campaign runner.
//
// The paper's evaluation is a *campaign*: hundreds of independent
// (benchmark x scheme x budget) cells, each seconds-to-hours of solver
// work. run_campaign() executes a declarative list of such cells on a
// thread pool and makes the sweep survivable:
//
//  * work queue — `jobs` worker threads drain the cell list; each cell is
//    an independent closure, so the pool saturates the machine without the
//    cells knowing about each other;
//  * per-job deadline — a watchdog thread raises the job's JobContext
//    cancel flag when its wall-clock budget passes; cells wire that flag
//    into AttackBudget / SatAttackOptions::cancel so an in-flight CDCL
//    search unwinds cooperatively instead of being killed;
//  * exception isolation — a throwing cell is recorded as
//    `"status":"error"` with the exception text; the sweep continues;
//  * JSONL checkpoint/resume — every finished cell is appended (and
//    flushed) to `out_path` as one JSON line; with `resume`, keys already
//    present in that file are not re-run and their recorded payloads are
//    returned as `"cached"` records, so a killed campaign restarts where
//    it died.
//
// The pool itself is the reusable `JobQueue`: a long-lived submit/complete
// worker pool with the deadline watchdog and cooperative cancellation
// built in. run_campaign() is one batch client of it; the attack service
// daemon (src/service) keeps one alive for its whole process lifetime.
//
// Cells stay deterministic: a cell derives everything from its own seeds,
// so the same job list produces the same verdicts at any `jobs` width —
// only the wall clock changes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ril::runtime {

/// Cooperative context handed to a running campaign job. The runner raises
/// the cancel flag when the job's wall-clock deadline passes or the whole
/// campaign is aborted; job bodies hand cancel_flag() to
/// SatAttackOptions::cancel / AttackBudget / SolverPortfolio so in-flight
/// solves unwind instead of overrunning the deadline.
class JobContext {
 public:
  const std::atomic<bool>& cancel_flag() const { return cancel_; }
  bool cancelled() const { return cancel_.load(std::memory_order_relaxed); }
  /// The job's deadline in seconds (0 = none).
  double timeout_seconds() const { return timeout_; }

 private:
  friend class JobQueue;
  std::atomic<bool> cancel_{false};
  double timeout_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// One cell of a campaign. `key` must be unique within the job list; it is
/// the checkpoint identity (resume skips keys already present in the JSONL
/// stream). `run` returns the cell's JSON payload *fields* — a fragment
/// like `"cell":"0.61","iterations":12` without enclosing braces — which
/// the runner wraps into the record's `"data"` object.
struct CampaignJob {
  std::string key;
  /// Per-job wall-clock deadline in seconds; 0 disables the watchdog.
  double timeout_seconds = 0;
  std::function<std::string(JobContext&)> run;
};

/// Result of one cell, either executed now or restored from the JSONL
/// stream (`status == "cached"`).
struct JobRecord {
  std::string key;
  std::string status;  ///< "ok" | "error" | "cached"
  std::string error;   ///< exception text when status == "error"
  std::string payload; ///< the job's JSON fields (empty on error)
  double queue_seconds = 0;  ///< enqueue -> start wait
  double run_seconds = 0;    ///< start -> finish
};

/// Serializes one record as a single JSON line (stable key order):
/// {"key":...,"status":...,"queue_seconds":...,"run_seconds":...,
///  ["error":...,]["data":{<payload>}]}
std::string job_record_json(const JobRecord& record);

/// Append-only JSONL stream with write-failure detection. Every line is
/// flushed so the stream survives a kill mid-run; a failed write (disk
/// full, I/O error) is *counted* instead of silently dropped — the first
/// failure also warns once on stderr, because a checkpoint stream that
/// loses records makes a later --resume re-run or lose jobs. The stream
/// error state is cleared after each failure so later records still get a
/// chance to land. Thread-safe.
class JsonlWriter {
 public:
  JsonlWriter() = default;

  /// Opens `path` for append; throws std::runtime_error when the file
  /// cannot be opened.
  void open(const std::string& path);
  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }

  /// Appends one line (a newline is added) and flushes. Returns false when
  /// the write failed; the failure is counted and warned once.
  bool write_line(const std::string& line);

  /// Lines that failed to reach disk.
  std::size_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::ofstream out_;
  std::string path_;
  std::atomic<std::size_t> failures_{0};
  bool warned_ = false;
};

/// Long-lived worker pool with per-job wall-clock deadlines, a 10 ms
/// watchdog, cooperative cancellation, and completion callbacks. submit()
/// enqueues a job; a worker runs it inside an exception-isolating frame
/// and hands the finished JobRecord to the job's `done` callback (invoked
/// on the worker thread — callbacks synchronize their own state).
/// cancel_all() raises every running job's cancel flag and fails queued
/// jobs with status "error"/"cancelled". The destructor cancels and joins.
class JobQueue {
 public:
  explicit JobQueue(unsigned workers);
  ~JobQueue();

  using RunFn = std::function<std::string(JobContext&)>;
  using DoneFn = std::function<void(JobRecord&&)>;

  /// Enqueues one job. `timeout_seconds` <= 0 disables the deadline.
  void submit(std::string key, double timeout_seconds, RunFn run,
              DoneFn done);

  /// Blocks until the queue is empty and no job is running.
  void wait_idle();

  /// Cancels running jobs (cooperatively) and fails queued ones. New
  /// submissions after this call are failed immediately.
  void cancel_all();

  unsigned workers() const { return static_cast<unsigned>(pool_.size()); }
  /// Jobs currently queued or running.
  std::size_t in_flight() const;

 private:
  struct Pending {
    std::string key;
    double timeout = 0;
    RunFn run;
    DoneFn done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop(unsigned slot);
  void watchdog_loop();
  void arm(unsigned slot, JobContext* ctx, double timeout);
  void disarm(unsigned slot);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Pending> queue_;
  std::size_t running_ = 0;
  bool stopping_ = false;
  bool cancelling_ = false;

  std::mutex slots_mutex_;
  std::vector<JobContext*> active_;  // one slot per worker, null when idle

  std::vector<std::thread> pool_;
  std::thread watchdog_;
};

struct CampaignOptions {
  /// Worker threads; clamped to [1, 256].
  unsigned jobs = 1;
  /// JSONL stream path; empty disables checkpointing.
  std::string out_path;
  /// Skip jobs whose key already has a terminal ("ok"/"error") line in
  /// out_path; their payloads are returned as "cached" records.
  bool resume = false;
};

struct CampaignSummary {
  /// One record per submitted job, in submission order.
  std::vector<JobRecord> records;
  std::size_t completed = 0;  ///< ran in this invocation
  std::size_t cached = 0;     ///< restored from the JSONL stream
  std::size_t errors = 0;     ///< jobs that threw (this invocation)
  /// JSONL checkpoint lines that failed to reach disk (disk full / I/O
  /// error); those cells' results are *not* resumable.
  std::size_t checkpoint_failures = 0;
  double seconds = 0;         ///< campaign wall clock
};

/// Runs the jobs; see file comment. Throws std::invalid_argument on
/// duplicate job keys (resume identity would be ambiguous).
CampaignSummary run_campaign(const std::vector<CampaignJob>& jobs,
                             const CampaignOptions& options);

// ----- minimal JSONL field access (the subset job_record_json emits) -----

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(const std::string& text);

/// Extracts the string value of the top-level `"field":"..."` from a JSON
/// object line (or an unwrapped object body); keys inside nested objects,
/// arrays or strings never match. Returns "" when the field is absent.
std::string json_string_field(const std::string& line,
                              const std::string& field);

/// Extracts the numeric value of `"field":N`. Returns `fallback` when the
/// field is absent or non-numeric. Locale-independent: always parses the
/// JSON ("C" locale) number format, regardless of LC_NUMERIC.
double json_number_field(const std::string& line, const std::string& field,
                         double fallback = 0);

/// Extracts the value of `"field":true|false`. Returns `fallback` when
/// the field is absent or not a boolean.
bool json_bool_field(const std::string& line, const std::string& field,
                     bool fallback = false);

/// Extracts the body of `"field":{...}` (without the braces) via brace
/// matching that ignores braces inside strings. Returns "" when absent.
std::string json_object_field(const std::string& line,
                              const std::string& field);

}  // namespace ril::runtime
