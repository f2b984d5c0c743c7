#include "service/service.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "core/ril_block.hpp"
#include "locking/schemes.hpp"
#include "netlist/bench_io.hpp"
#include "sat/drat_check.hpp"

namespace ril::service {

using runtime::json_bool_field;
using runtime::json_escape;
using runtime::json_number_field;
using runtime::json_string_field;

namespace {

std::string key_to_string(const std::vector<bool>& key) {
  std::string out;
  out.reserve(key.size());
  for (bool b : key) out += b ? '1' : '0';
  return out;
}

std::vector<bool> key_from_string(const std::string& text) {
  std::vector<bool> key;
  for (char c : text) {
    if (c == '0') key.push_back(false);
    else if (c == '1') key.push_back(true);
  }
  return key;
}

std::string fmt_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", seconds);
  return buffer;
}

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

HttpResponse json_response(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse error_response(int status, const std::string& message) {
  return json_response(status,
                       "{\"error\":\"" + json_escape(message) + "\"}");
}

}  // namespace

AttackService::AttackService(ServiceOptions options)
    : options_(options), queue_(options.workers == 0 ? 1 : options.workers) {
  if (!options_.journal_path.empty()) {
    replay_journal();
    journal_.open(options_.journal_path);
  }
}

AttackService::~AttackService() {
  // Cancel cooperatively, then wait for workers to finish winding down.
  // The wait is load-bearing: queue_ is destroyed *last* among the members
  // a job callback touches (it is declared first), so without it a still-
  // running job's run/done callbacks could fire against already-destroyed
  // jobs_/journal_/caches.
  queue_.cancel_all();
  queue_.wait_idle();
}

bool AttackService::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  return shutdown_;
}

void AttackService::wait_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_; });
}

std::string AttackService::stats_json() const {
  std::ostringstream out;
  out << "{\"jobs_in_flight\":" << queue_.in_flight()
      << ",\"workers\":" << queue_.workers()
      << ",\"netlist_cache\":{\"hits\":" << netlists_.hits()
      << ",\"misses\":" << netlists_.misses()
      << ",\"entries\":" << netlists_.size() << "}"
      << ",\"skeleton_cache\":{\"hits\":" << skeletons_.hits()
      << ",\"misses\":" << skeletons_.misses()
      << ",\"entries\":" << skeletons_.size()
      << ",\"bytes\":" << skeletons_.memory_bytes() << "}"
      << ",\"verifier_cache\":{\"hits\":" << verifiers_.hits()
      << ",\"misses\":" << verifiers_.misses()
      << ",\"entries\":" << verifiers_.size() << "}"
      << ",\"journal_failures\":" << journal_.failures() << "}";
  return out.str();
}

std::string AttackService::job_json(const Job& job) const {
  std::string out = "{\"id\":\"" + json_escape(job.id) + "\",\"type\":\"" +
                    json_escape(job.type) + "\",\"status\":\"" +
                    json_escape(job.status) + "\"";
  if (!job.error.empty()) {
    out += ",\"error\":\"" + json_escape(job.error) + "\"";
  }
  out += ",\"queue_seconds\":" + fmt_seconds(job.queue_seconds);
  out += ",\"run_seconds\":" + fmt_seconds(job.run_seconds);
  if (!job.proof_path.empty()) {
    out += ",\"proof_path\":\"" + json_escape(job.proof_path) + "\"";
  }
  if (!job.payload.empty()) out += ",\"data\":{" + job.payload + "}";
  out += "}";
  return out;
}

void AttackService::journal_write(const Job& job) {
  if (journal_.is_open()) journal_.write_line(job_json(job));
}

void AttackService::replay_journal() {
  std::ifstream in(options_.journal_path);
  if (!in) return;  // first boot: nothing to replay
  std::string line;
  std::uint64_t max_id = 0;
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  while (std::getline(in, line)) {
    const std::string id = json_string_field(line, "id");
    if (id.empty()) continue;
    Job& job = jobs_[id];
    job.id = id;
    job.type = json_string_field(line, "type");
    job.status = json_string_field(line, "status");
    job.error = json_string_field(line, "error");
    job.queue_seconds = json_number_field(line, "queue_seconds");
    job.run_seconds = json_number_field(line, "run_seconds");
    job.proof_path = json_string_field(line, "proof_path");
    job.payload = runtime::json_object_field(line, "data");
    job.replayed = true;
    // "job-<n>" -> n, to keep ids unique across restarts.
    const std::size_t dash = id.rfind('-');
    if (dash != std::string::npos) {
      const std::uint64_t n =
          std::strtoull(id.c_str() + dash + 1, nullptr, 10);
      if (n > max_id) max_id = n;
    }
  }
  // A job that reached the journal as "queued"/"running" but never got a
  // terminal line died with the process: surface it, don't silently drop.
  for (auto& [id, job] : jobs_) {
    if (job.status == "queued" || job.status == "running") {
      job.status = "lost";
      job.error = "process exited before the job finished";
    }
  }
  next_job_ = max_id + 1;
}

HttpResponse AttackService::handle(const HttpRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  HttpResponse response;
  if (request.target == "/v1/health" && request.method == "GET") {
    response = json_response(
        200, "{\"ok\":true,\"service\":\"ril\",\"api\":\"v1\"}");
  } else if (request.target == "/v1/stats" && request.method == "GET") {
    response = json_response(200, stats_json());
  } else if (request.target == "/v1/jobs" && request.method == "POST") {
    response = submit_job(request);
  } else if (request.target == "/v1/shutdown" && request.method == "POST") {
    {
      std::lock_guard<std::mutex> lock(shutdown_mutex_);
      shutdown_ = true;
    }
    shutdown_cv_.notify_all();
    queue_.cancel_all();
    response = json_response(200, "{\"ok\":true,\"stopping\":true}");
  } else if (request.target.rfind("/v1/jobs/", 0) == 0) {
    std::string id = request.target.substr(9);
    const bool want_proof = id.size() > 6 &&
                            id.compare(id.size() - 6, 6, "/proof") == 0;
    if (want_proof) id.resize(id.size() - 6);
    if (request.method != "GET") {
      response = error_response(405, "use GET for job retrieval");
    } else {
      response = want_proof ? job_proof(id) : job_status(id);
    }
  } else {
    response = error_response(404, "no such endpoint: " + request.target);
  }
  // Per-request latency, appended to every JSON body (the closing '}' is
  // guaranteed by construction above).
  if (response.content_type == "application/json" &&
      !response.body.empty() && response.body.back() == '}') {
    response.body.back() = ',';
    response.body +=
        "\"request_seconds\":" + fmt_seconds(now_minus(t0)) + "}";
  }
  return response;
}

HttpResponse AttackService::submit_job(const HttpRequest& request) {
  const std::string& body = request.body;
  const std::string type = json_string_field(body, "type");
  if (type != "attack" && type != "verify" && type != "lock" &&
      type != "check-proof") {
    return error_response(
        400, "job type must be attack|verify|lock|check-proof");
  }
  double timeout = json_number_field(body, "timeout",
                                     options_.default_timeout_seconds);
  if (timeout < 0) timeout = 0;

  std::string id;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    id = "job-" + std::to_string(next_job_++);
    Job& job = jobs_[id];
    job.id = id;
    job.type = type;
    job.status = "queued";
    journal_write(job);
  }

  // The worker body: dispatch on type, return the payload JSON fields.
  auto run = [this, type, body, id](runtime::JobContext& ctx) {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_[id].status = "running";
    }
    std::string proof_path;
    std::string payload;
    if (type == "attack") payload = run_attack(body, id, ctx, &proof_path);
    else if (type == "verify") payload = run_verify(body, ctx);
    else if (type == "lock") payload = run_lock(body, ctx, &proof_path);
    else payload = run_check_proof(body);
    if (!proof_path.empty()) {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_[id].proof_path = proof_path;
    }
    return payload;
  };
  auto done = [this, id](runtime::JobRecord&& record) {
    Job snapshot;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      Job& job = jobs_[id];
      job.status = record.status == "ok" ? "ok" : "error";
      job.error = record.error;
      job.payload = std::move(record.payload);
      job.queue_seconds = record.queue_seconds;
      job.run_seconds = record.run_seconds;
      snapshot = job;
    }
    journal_write(snapshot);
    jobs_cv_.notify_all();
  };
  queue_.submit(id, timeout, std::move(run), std::move(done));

  if (request.query_param("wait") == "1") {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_cv_.wait(lock, [&] {
      const auto it = jobs_.find(id);
      return it != jobs_.end() && it->second.status != "queued" &&
             it->second.status != "running";
    });
    return json_response(200, job_json(jobs_.at(id)));
  }
  return json_response(202, "{\"id\":\"" + id + "\",\"status\":\"queued\"}");
}

HttpResponse AttackService::job_status(const std::string& id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return error_response(404, "no such job: " + id);
  }
  return json_response(200, job_json(it->second));
}

HttpResponse AttackService::job_proof(const std::string& id) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return error_response(404, "no such job: " + id);
    path = it->second.proof_path;
  }
  if (path.empty()) {
    return error_response(404, "job " + id + " has no certificate");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return error_response(404, "certificate file missing: " + path);
  HttpResponse response;
  response.content_type = "application/octet-stream";
  response.body.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  return response;
}

std::shared_ptr<const netlist::Netlist> AttackService::resolve_netlist(
    const std::string& body, const std::string& field, std::string* hex_out,
    std::string* telemetry) {
  std::string text = json_string_field(body, field);
  bool verilog = false;
  if (text.empty()) {
    const std::string path = json_string_field(body, field + "_path");
    if (path.empty()) {
      throw std::runtime_error("missing \"" + field + "\" or \"" + field +
                               "_path\"");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    verilog = path.size() > 2 && path.compare(path.size() - 2, 2, ".v") == 0;
  } else {
    verilog = text.find("module ") != std::string::npos;
  }
  const auto t0 = std::chrono::steady_clock::now();
  bool hit = false;
  std::string hex;
  auto parsed = netlists_.get(text, verilog, &hex, &hit);
  if (parsed->node_count() == 0 || parsed->outputs().empty()) {
    throw std::runtime_error(field +
                             ": no usable netlist parsed (corrupt input?)");
  }
  if (hex_out) *hex_out = hex;
  if (telemetry) {
    *telemetry += ",\"" + field + "_cache\":\"" +
                  (hit ? "hit" : "miss") + "\",\"" + field + "_hash\":\"" +
                  hex + "\",\"" + field +
                  "_parse_seconds\":" + fmt_seconds(now_minus(t0));
  }
  return parsed;
}

std::string AttackService::run_attack(const std::string& body,
                                      const std::string& id,
                                      runtime::JobContext& ctx,
                                      std::string* proof_path) {
  std::string telemetry;
  std::string locked_hex;
  const auto locked = resolve_netlist(body, "locked", &locked_hex,
                                      &telemetry);
  const auto activated =
      resolve_netlist(body, "activated", nullptr, &telemetry);
  if (!activated->key_inputs().empty()) {
    throw std::runtime_error(
        "activated netlist must not have key inputs (unlock it first)");
  }
  attacks::Oracle oracle(*activated, {});

  attacks::SatAttackOptions options;
  options.time_limit_seconds = ctx.timeout_seconds();
  options.max_iterations = static_cast<std::size_t>(
      json_number_field(body, "max_iterations", 0));
  options.jobs = static_cast<unsigned>(
      json_number_field(body, "jobs", options_.solver_jobs));
  if (options.jobs == 0) options.jobs = 1;
  options.cancel = &ctx.cancel_flag();
  options.certify = json_bool_field(body, "certify");
  if (options.certify) {
    // One certificate file per job id, streamed while the attack runs.
    const std::string name = json_string_field(body, "proof_name");
    *proof_path =
        options_.proof_dir + "/" + (name.empty() ? id : name) + ".drat";
    options.proof_file = *proof_path;
  }

  // Level-2 cache: replay a captured miter skeleton for this locked
  // content, or capture one on the first encounter.
  attacks::engine::MiterSkeleton captured;
  const auto skeleton = skeletons_.find(locked_hex);
  if (skeleton) {
    options.miter_skeleton = skeleton.get();
    telemetry += ",\"skeleton_cache\":\"hit\"";
  } else {
    options.capture_skeleton = &captured;
    telemetry += ",\"skeleton_cache\":\"miss\"";
  }

  const auto result = attacks::run_sat_attack(*locked, oracle, options);
  if (!skeleton && !captured.empty()) {
    skeletons_.put(locked_hex,
                   std::make_shared<attacks::engine::MiterSkeleton>(
                       std::move(captured)));
  }
  if (result.proof_path.empty()) *proof_path = "";  // nothing published

  std::string payload = "\"attack\":\"sat\",\"status\":\"" +
                        to_string(result.status) + "\"";
  if (result.status == attacks::SatAttackStatus::kKeyFound) {
    payload += ",\"key\":\"" + key_to_string(result.key) + "\"";
  }
  payload += ",\"iterations\":" + std::to_string(result.iterations);
  payload += ",\"conflicts\":" + std::to_string(result.conflicts);
  payload += ",\"attack_seconds\":" + fmt_seconds(result.seconds);
  if (result.proof_status != attacks::ProofStatus::kNotRequested) {
    payload += ",\"proof\":\"" + to_string(result.proof_status) + "\"";
    payload += ",\"proof_steps\":" + std::to_string(result.proof_steps);
    payload += ",\"proof_bytes\":" + std::to_string(result.proof_bytes);
  }
  payload += telemetry;
  return payload;
}

std::string AttackService::run_verify(const std::string& body,
                                      runtime::JobContext& ctx) {
  std::string telemetry;
  std::string locked_hex;
  std::string activated_hex;
  const auto locked = resolve_netlist(body, "locked", &locked_hex,
                                      &telemetry);
  const auto activated =
      resolve_netlist(body, "activated", &activated_hex, &telemetry);
  const std::vector<bool> key =
      key_from_string(json_string_field(body, "key"));

  bool warm = false;
  const auto verifier = verifiers_.get(
      locked_hex, locked, activated_hex, activated, options_.solver_jobs,
      content_hash(locked_hex), &warm);
  const auto outcome =
      verifier->verify(key, ctx.timeout_seconds(), &ctx.cancel_flag());

  std::string payload = "\"verifier_cache\":\"";
  payload += warm ? "hit" : "miss";
  payload += "\",\"status\":\"";
  payload += outcome.status == sat::Result::kUnknown ? "unknown"
             : outcome.equivalent                    ? "equivalent"
                                                     : "different";
  payload += "\",\"equivalent\":";
  payload += outcome.equivalent ? "true" : "false";
  payload += ",\"conflicts\":" + std::to_string(outcome.conflicts);
  payload += ",\"solve_seconds\":" + fmt_seconds(outcome.seconds);
  payload += ",\"verifier_uses\":" + std::to_string(outcome.uses);
  payload += telemetry;
  return payload;
}

std::string AttackService::run_lock(const std::string& body,
                                    runtime::JobContext&,
                                    std::string* /*proof_path*/) {
  std::string telemetry;
  const auto host = resolve_netlist(body, "host", nullptr, &telemetry);
  const std::string scheme = json_string_field(body, "scheme");
  const auto bits =
      static_cast<std::size_t>(json_number_field(body, "bits", 32));
  const auto size =
      static_cast<std::size_t>(json_number_field(body, "size", 8));
  const auto seed =
      static_cast<std::uint64_t>(json_number_field(body, "seed", 1));

  netlist::Netlist locked;
  std::vector<bool> key;
  if (scheme == "ril") {
    core::RilBlockConfig config;
    config.size = size;
    auto ril = locking::lock_ril(
        *host, static_cast<std::size_t>(json_number_field(body, "blocks", 1)),
        config, seed);
    locked = std::move(ril.locked.netlist);
    key = ril.info.functional_key;
  } else {
    locking::LockedCircuit result;
    if (scheme == "xor") result = locking::lock_xor(*host, bits, seed);
    else if (scheme == "sarlock") result = locking::lock_sarlock(*host, bits, seed);
    else if (scheme == "antisat") result = locking::lock_antisat(*host, bits, seed);
    else if (scheme == "sfll") result = locking::lock_sfll_hd0(*host, bits, seed);
    else if (scheme == "lut") result = locking::lock_lut(*host, bits, seed);
    else if (scheme == "fulllock") result = locking::lock_fulllock(*host, size, seed);
    else if (scheme == "routing") result = locking::lock_banyan_routing(*host, size, seed);
    else throw std::runtime_error("unknown lock scheme: " + scheme);
    locked = std::move(result.netlist);
    key = std::move(result.key);
  }
  std::string payload = "\"scheme\":\"" + json_escape(scheme) + "\"";
  payload += ",\"key\":\"" + key_to_string(key) + "\"";
  payload += ",\"key_bits\":" + std::to_string(key.size());
  payload +=
      ",\"locked\":\"" + json_escape(netlist::write_bench_string(locked)) +
      "\"";
  payload += telemetry;
  return payload;
}

std::string AttackService::run_check_proof(const std::string& body) {
  std::string path = json_string_field(body, "proof_path");
  if (path.empty()) {
    // "job":"job-3" checks that job's published certificate.
    const std::string job_id = json_string_field(body, "job");
    if (!job_id.empty()) {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      const auto it = jobs_.find(job_id);
      if (it != jobs_.end()) path = it->second.proof_path;
    }
  }
  if (path.empty()) {
    throw std::runtime_error("check-proof needs \"proof_path\" or \"job\"");
  }
  const bool open = json_bool_field(body, "open");
  const sat::DratCheckResult result =
      open ? sat::check_derivations_file(path)
           : sat::check_refutation_file(path);
  std::string payload = "\"proof_path\":\"" + json_escape(path) + "\"";
  payload += ",\"open\":";
  payload += open ? "true" : "false";
  payload += ",\"valid\":";
  payload += result.valid ? "true" : "false";
  payload += ",\"malformed\":";
  payload += result.malformed ? "true" : "false";
  if (!result.error.empty()) {
    payload += ",\"proof_error\":\"" + json_escape(result.error) + "\"";
  }
  payload += ",\"derivations\":" + std::to_string(result.stats.derivations);
  payload += ",\"originals\":" + std::to_string(result.stats.originals);
  return payload;
}

}  // namespace ril::service
