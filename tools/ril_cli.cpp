// `ril` -- command-line front end for the RIL-Blocks tool suite.
//
//   ril gen <name> <out.bench> [--scale F]
//       Emit a benchmark circuit (c7552, b15, s35932, s38584, b20, aes,
//       sha256, md5, gps).
//
//   ril lock <scheme> <in.bench> <out.bench> <key.txt> [options]
//       Schemes: ril | xor | sarlock | antisat | sfll | lut | fulllock |
//       routing. RIL options: --blocks N --size N --lutk M --output-net
//       --scan. Generic: --bits N --seed S. Writes the locked netlist and
//       the correct key (functional key for RIL; with --scan a second line
//       carries the oracle scan key).
//
//   ril attack <method> <locked.bench> <activated.bench> [--timeout S]
//              [--jobs N | --portfolio] [--stats out.json] [--no-specialize]
//              [--no-preprocess] [--no-inprocess]
//              [--certify [--proof out.drat]]
//       Methods: sat | appsat | onehot | removal | sps | bypass. The
//       activated netlist (no key inputs) acts as the oracle. Prints the
//       result and, when a key is recovered, verifies it by SAT CEC.
//       --jobs N races N diversified CDCL configurations per solve
//       (first-to-finish-wins, losers cancelled); --portfolio uses all
//       hardware threads; --stats writes per-solve JSON records (seed,
//       winning configuration, conflicts, wall time, constraint clause
//       costs); --no-specialize reverts the SAT/AppSAT I/O constraints to
//       the historical full-circuit re-encoding. SatELite-style
//       preprocessing (subsumption, self-subsuming resolution, bounded
//       variable elimination) of the miter and key formulas and
//       restart-time inprocessing (clause vivification, learned-clause
//       subsumption, failed-literal probing) inside the solvers are both
//       on by default; --no-preprocess and --no-inprocess turn them off
//       independently. --certify
//       (sat only) streams every miter solve's DRAT trace to disk as
//       binary DRAT (bounded memory), self-checks SAT models, and
//       validates the final certificate with the independent RUP checker:
//       a refutation after miter-UNSAT, an open certificate when the run
//       stops earlier (timeout, --max-iterations). --proof publishes it
//       (atomic temp+rename) for offline `ril check-proof [--open]`;
//       without --proof it is checked in a temp directory and removed.
//       Preprocessing and inprocessing compose with --certify: elimination,
//       vivification, and probing steps are all emitted into the trace.
//
//   ril check-proof <trace.drat> [--open]
//       Re-validate a previously written certificate (binary or text)
//       with the streaming forward RUP checker. By default the trace must
//       be a complete refutation (ends in the empty clause); --open
//       accepts open certificates -- every step RUP-checks but no empty
//       clause lands -- which is what an attack that stopped before
//       miter-UNSAT (timeout, --max-iterations) publishes. Exit codes:
//       0 valid, 1 invalid proof, 2 usage, 3 missing/unreadable file,
//       4 empty trace, 5 malformed/truncated trace.
//
//   ril analyze <file.bench> [key.txt]
//       Structural report: stats, detected routing networks and keyed
//       LUTs, and (with a key) output corruptibility.
//
//   ril unlock <locked.bench> <key.txt> <out.bench>
//       Specialize the key, simplify, and write the unlocked netlist.
//
//   ril campaign <spec.campaign> [--jobs N] [--out results.jsonl] [--resume]
//               [--solver-jobs N] [--no-preprocess] [--no-inprocess]
//       Run a whole experiment suite from one declarative spec: each
//       non-comment line is `<key> <circuit> <scale> <scheme[:opt=v,...]>
//       <attack> <timeout> <seed>`. --jobs N runs N cells concurrently;
//       --out streams one JSON line per cell (see docs/ARCHITECTURE.md for
//       the schema); --resume skips cells already present in that file.
//
//   ril serve [--port N] [--workers N] [--solver-jobs N]
//             [--journal file.jsonl] [--proof-dir DIR] [--timeout S]
//       Long-lived attack-as-a-service daemon: lock / attack / verify /
//       check-proof jobs over HTTP/1.1 + JSON on 127.0.0.1, with
//       cross-request netlist / CNF-skeleton / warm-verifier caches,
//       per-job deadlines, a kill-safe JSONL journal, and streamed DRAT
//       certificate retrieval. See docs/SERVICE.md for the API.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "attacks/appsat.hpp"
#include "attacks/bypass.hpp"
#include "attacks/metrics.hpp"
#include "attacks/oracle.hpp"
#include "attacks/removal.hpp"
#include "attacks/routing_encoding.hpp"
#include "attacks/sat_attack.hpp"
#include "attacks/sps.hpp"
#include "benchgen/suite.hpp"
#include "cnf/equivalence.hpp"
#include "locking/schemes.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/verilog_io.hpp"
#include "netlist/simplify.hpp"
#include "netlist/stats.hpp"
#include "runtime/campaign.hpp"
#include "sat/drat_check.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "sat/proof.hpp"
#include "sca/circuit_dpa.hpp"

namespace {

using namespace ril;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message) std::fprintf(stderr, "error: %s\n", message);
  std::fprintf(stderr,
               "usage:\n"
               "  ril gen <name> <out.bench> [--scale F]\n"
               "  ril lock <scheme> <in.bench> <out.bench> <key.txt>"
               " [--blocks N --size N --lutk M --output-net --scan"
               " --bits N --seed S]\n"
               "  ril attack <method> <locked.bench> <activated.bench>"
               " [--timeout S --jobs N --portfolio --stats out.json"
               " --no-specialize --no-preprocess --no-inprocess --certify"
               " --proof out.drat --max-iterations N]\n"
               "  ril check-proof <trace.drat> [--open]\n"
               "  ril analyze <file.bench> [key.txt]\n"
               "  ril unlock <locked.bench> <key.txt> <out.bench>\n"
               "  ril campaign <spec.campaign> [--jobs N --out results.jsonl"
               " --resume --solver-jobs N --no-preprocess --no-inprocess"
               " --certify --proof-dir DIR]\n"
               "  ril serve [--port N --workers N --solver-jobs N"
               " --journal file.jsonl --proof-dir DIR --timeout S]\n");
  std::exit(2);
}

struct Args {
  std::vector<std::string> positional;
  double scale = 1.0;
  double timeout = 60.0;
  std::size_t blocks = 1;
  std::size_t size = 8;
  std::size_t lutk = 2;
  std::size_t bits = 32;
  std::size_t max_iterations = 0;
  std::uint64_t seed = 1;
  unsigned jobs = 1;
  unsigned solver_jobs = 1;
  std::string stats_path;
  std::string out_path;
  std::string proof_path;
  bool resume = false;
  bool output_net = false;
  bool scan = false;
  bool specialize = true;
  /// Preprocessing is on by default at every scale (per-scheme results in
  /// BENCH_solver.json); --no-preprocess turns it off.
  bool preprocess = true;
  /// Restart-time inprocessing inside the solvers; --no-inprocess turns it
  /// off independently of --no-preprocess.
  bool inprocess = true;
  bool certify = false;
  /// check-proof: accept an open certificate (no empty clause required).
  bool open_certificate = false;
  std::string proof_dir;
  /// serve: TCP port to bind (0 = ephemeral, printed on startup).
  unsigned port = 0;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing option value");
      return argv[++i];
    };
    if (arg == "--scale") args.scale = std::atof(value());
    else if (arg == "--timeout") args.timeout = std::atof(value());
    else if (arg == "--blocks") args.blocks = std::strtoull(value(), nullptr, 10);
    else if (arg == "--size") args.size = std::strtoull(value(), nullptr, 10);
    else if (arg == "--lutk") args.lutk = std::strtoull(value(), nullptr, 10);
    else if (arg == "--bits") args.bits = std::strtoull(value(), nullptr, 10);
    else if (arg == "--max-iterations") args.max_iterations = std::strtoull(value(), nullptr, 10);
    else if (arg == "--seed") args.seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--jobs") args.jobs = std::max(1u, static_cast<unsigned>(std::strtoul(value(), nullptr, 10)));
    else if (arg == "--portfolio") args.jobs = std::max(1u, std::thread::hardware_concurrency());
    else if (arg == "--solver-jobs") args.solver_jobs = std::max(1u, static_cast<unsigned>(std::strtoul(value(), nullptr, 10)));
    else if (arg == "--out") args.out_path = value();
    else if (arg == "--resume") args.resume = true;
    else if (arg == "--stats") args.stats_path = value();
    else if (arg == "--output-net") args.output_net = true;
    else if (arg == "--scan") args.scan = true;
    else if (arg == "--no-specialize") args.specialize = false;
    else if (arg == "--preprocess") args.preprocess = true;
    else if (arg == "--no-preprocess") args.preprocess = false;
    else if (arg == "--inprocess") args.inprocess = true;
    else if (arg == "--no-inprocess") args.inprocess = false;
    else if (arg == "--certify") args.certify = true;
    else if (arg == "--open") args.open_certificate = true;
    else if (arg == "--proof") args.proof_path = value();
    else if (arg == "--proof-dir") args.proof_dir = value();
    else if (arg == "--port") {
      const unsigned long port = std::strtoul(value(), nullptr, 10);
      if (port > 65535) usage("--port must be in [0, 65535]");
      args.port = static_cast<unsigned>(port);
    }
    else if (arg == "--workers") args.jobs = std::max(1u, static_cast<unsigned>(std::strtoul(value(), nullptr, 10)));
    else if (arg == "--journal") args.out_path = value();
    else if (arg.rfind("--", 0) == 0) usage(("unknown option " + arg).c_str());
    else args.positional.push_back(arg);
  }
  return args;
}

bool has_suffix(const std::string& path, const char* suffix) {
  const std::string s = suffix;
  return path.size() >= s.size() &&
         path.compare(path.size() - s.size(), s.size(), s) == 0;
}

netlist::Netlist read_netlist(const std::string& path) {
  netlist::Netlist nl = has_suffix(path, ".v")
                            ? netlist::read_verilog_file(path)
                            : netlist::read_bench_file(path);
  // The parsers accept a file with no recognizable statements as an empty
  // netlist; surface that as an error instead of attacking thin air.
  if (nl.node_count() == 0 || nl.outputs().empty()) {
    throw std::runtime_error(path +
                             ": no usable netlist parsed (missing gates or "
                             "outputs; corrupt input?)");
  }
  return nl;
}

void write_netlist(const std::string& path, const netlist::Netlist& nl) {
  if (has_suffix(path, ".v")) {
    netlist::write_verilog_file(path, nl);
  } else {
    netlist::write_bench_file(path, nl);
  }
}

std::vector<bool> read_key_line(const std::string& line) {
  std::vector<bool> key;
  for (char c : line) {
    if (c == '0') key.push_back(false);
    else if (c == '1') key.push_back(true);
  }
  return key;
}

std::vector<bool> read_key_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open key file " + path).c_str());
  std::string line;
  std::getline(in, line);
  return read_key_line(line);
}

void write_key_file(const std::string& path,
                    const std::vector<bool>& functional,
                    const std::vector<bool>* scan_key) {
  std::ofstream out(path);
  if (!out) usage(("cannot open key file " + path).c_str());
  for (bool b : functional) out << (b ? '1' : '0');
  out << "\n";
  if (scan_key) {
    for (bool b : *scan_key) out << (b ? '1' : '0');
    out << "\n";
  }
}

/// Prints the per-configuration win tally of a recorded portfolio run.
void print_portfolio_wins(const std::vector<attacks::SolveRecord>& log) {
  if (log.empty()) return;
  std::map<std::string, std::size_t> wins;
  for (const auto& record : log) {
    if (record.outcome.winner >= 0) ++wins[record.outcome.winner_config];
  }
  std::printf("portfolio wins:");
  for (const auto& [config, count] : wins) {
    std::printf(" %s=%zu", config.c_str(), count);
  }
  std::printf("\n");
}

/// Writes the attack-level + per-solve stats JSON shared by sat/appsat.
void write_stats_file(const std::string& path, const char* attack,
                      const Args& args, const std::string& status,
                      std::size_t iterations, double seconds,
                      std::uint64_t conflicts, std::size_t encoded_clauses,
                      std::size_t saved_clauses,
                      const std::vector<attacks::SolveRecord>& log,
                      const std::string& extra_fields = "") {
  std::ofstream stats(path);
  if (!stats) usage(("cannot open stats file " + path).c_str());
  stats << "{\"attack\":\"" << attack << "\",\"jobs\":" << args.jobs
        << ",\"status\":\"" << status << "\",\"iterations\":" << iterations
        << ",\"seconds\":" << seconds << ",\"conflicts\":" << conflicts
        << ",\"encoded_clauses\":" << encoded_clauses
        << ",\"saved_clauses\":" << saved_clauses
        << ",\"preprocess\":" << (args.preprocess ? "true" : "false")
        << ",\"inprocess\":" << (args.inprocess ? "true" : "false")
        << extra_fields << ",\"solves\":[\n";
  for (std::size_t i = 0; i < log.size(); ++i) {
    stats << attacks::solve_record_json(log[i])
          << (i + 1 < log.size() ? ",\n" : "\n");
  }
  stats << "]}\n";
  std::printf("per-solve stats -> %s\n", path.c_str());
}

/// JSON fragment describing the certification outcome. Empty unless the
/// attack was run with --certify so the legacy telemetry shape is untouched.
std::string certification_fields(const attacks::SatAttackResult& result) {
  if (result.proof_status == attacks::ProofStatus::kNotRequested) return "";
  return ",\"proof\":\"" + attacks::to_string(result.proof_status) +
         "\",\"proof_steps\":" + std::to_string(result.proof_steps) +
         ",\"proof_bytes\":" + std::to_string(result.proof_bytes) +
         ",\"models_ok\":" + (result.models_verified ? "true" : "false");
}

/// JSON fragment with the miter preprocessor's counters and wall time, as
/// a "preprocess_stats" object next to the "preprocess" on/off flag.
/// Empty when the miter was not preprocessed.
std::string preprocess_fields(const attacks::SatAttackResult& result) {
  if (!result.preprocessed) return "";
  const sat::PreprocessStats& p = result.preprocess;
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.6f", p.seconds);
  return ",\"preprocess_stats\":{\"clauses_before\":" +
         std::to_string(p.clauses_before) +
         ",\"clauses_after\":" + std::to_string(p.clauses_after) +
         ",\"vars_before\":" + std::to_string(p.vars_before) +
         ",\"vars_after\":" + std::to_string(p.vars_after) +
         ",\"eliminated\":" + std::to_string(p.eliminated_vars) +
         ",\"subsumed\":" + std::to_string(p.subsumed_clauses) +
         ",\"strengthened\":" + std::to_string(p.strengthened_literals) +
         ",\"rounds\":" + std::to_string(p.rounds) +
         ",\"seconds\":" + seconds + "}";
}

/// JSON fragment with the aggregated inprocessing counters. Empty when the
/// attack ran with --no-inprocess, keeping the legacy telemetry shape.
std::string inprocess_fields(const attacks::SatAttackResult& result) {
  if (!result.inprocessed) return "";
  const sat::InprocessStats& s = result.inprocess;
  return ",\"inprocess_passes\":" + std::to_string(s.passes) +
         ",\"vivified\":" + std::to_string(s.vivified_clauses) +
         ",\"subsumed\":" +
         std::to_string(s.subsumed_clauses + s.strengthened_clauses) +
         ",\"failed_literals\":" + std::to_string(s.failed_literals) +
         ",\"hyper_binaries\":" + std::to_string(s.hyper_binaries);
}

int cmd_gen(const Args& args) {
  if (args.positional.size() != 2) usage("gen needs <name> <out.bench>");
  const auto nl = benchgen::make_benchmark(args.positional[0], args.scale);
  write_netlist(args.positional[1], nl);
  std::printf("%s -> %s (%s)\n", args.positional[0].c_str(),
              args.positional[1].c_str(),
              netlist::format_stats(netlist::compute_stats(nl)).c_str());
  return 0;
}

int cmd_lock(const Args& args) {
  if (args.positional.size() != 4) {
    usage("lock needs <scheme> <in.bench> <out.bench> <key.txt>");
  }
  const std::string& scheme = args.positional[0];
  netlist::Netlist host = read_netlist(args.positional[1]);
  if (host.dff_count() > 0) {
    std::printf("note: sequential input; locking the combinational core\n");
    host = host.combinational_core();
  }

  netlist::Netlist locked;
  std::vector<bool> key;
  const std::vector<bool>* scan_key = nullptr;
  std::vector<bool> scan_storage;
  if (scheme == "ril") {
    core::RilBlockConfig config;
    config.size = args.size;
    config.output_network = args.output_net;
    config.scan_obfuscation = args.scan;
    config.lut_inputs = args.lutk;
    auto ril = locking::lock_ril(host, args.blocks, config, args.seed);
    locked = std::move(ril.locked.netlist);
    key = ril.info.functional_key;
    if (args.scan) {
      scan_storage = ril.info.oracle_scan_key;
      scan_key = &scan_storage;
    }
  } else {
    locking::LockedCircuit result;
    if (scheme == "xor") result = locking::lock_xor(host, args.bits, args.seed);
    else if (scheme == "sarlock") result = locking::lock_sarlock(host, args.bits, args.seed);
    else if (scheme == "antisat") result = locking::lock_antisat(host, args.bits, args.seed);
    else if (scheme == "sfll") result = locking::lock_sfll_hd0(host, args.bits, args.seed);
    else if (scheme == "lut") result = locking::lock_lut(host, args.bits, args.seed);
    else if (scheme == "fulllock") result = locking::lock_fulllock(host, args.size, args.seed);
    else if (scheme == "routing") result = locking::lock_banyan_routing(host, args.size, args.seed);
    else usage(("unknown scheme " + scheme).c_str());
    locked = std::move(result.netlist);
    key = std::move(result.key);
  }
  write_netlist(args.positional[2], locked);
  write_key_file(args.positional[3], key, scan_key);
  std::printf("locked with %s: %s, key width %zu -> %s / %s\n",
              scheme.c_str(),
              netlist::format_stats(netlist::compute_stats(locked)).c_str(),
              key.size(), args.positional[2].c_str(),
              args.positional[3].c_str());
  return 0;
}

int cmd_attack(const Args& args) {
  if (args.positional.size() != 3) {
    usage("attack needs <method> <locked.bench> <activated.bench>");
  }
  const std::string& method = args.positional[0];
  const netlist::Netlist locked =
      read_netlist(args.positional[1]);
  const netlist::Netlist activated =
      read_netlist(args.positional[2]);
  if (!activated.key_inputs().empty()) {
    usage("activated netlist must not have key inputs (use `ril unlock`)");
  }
  attacks::Oracle oracle(activated, {});

  auto verify = [&](const std::vector<bool>& key) {
    sat::SolverLimits limits{.time_limit_seconds = args.timeout};
    const auto eq =
        cnf::check_equivalence(locked, activated, key, {}, limits);
    return eq.equivalent() ? "correct (CEC UNSAT)"
           : eq.status == sat::Result::kUnknown ? "unverified (CEC timeout)"
                                                : "WRONG";
  };

  if (method == "sat" || method == "appsat" || method == "onehot") {
    attacks::SatAttackOptions options;
    options.time_limit_seconds = args.timeout;
    options.max_iterations = args.max_iterations;
    options.jobs = args.jobs;
    options.portfolio_seed = args.seed;
    options.record_solves = args.jobs > 1 || !args.stats_path.empty();
    options.specialize_dips = args.specialize;
    options.preprocess = args.preprocess;
    options.inprocess = args.inprocess;
    options.certify = args.certify || !args.proof_path.empty();
    // --proof names where the streamed certificate is published.
    options.proof_file = args.proof_path;
    if (method == "sat") {
      const auto result = attacks::run_sat_attack(locked, oracle, options);
      std::printf("sat attack: %s in %.2fs, %zu DIPs, %llu conflicts"
                  " (%u jobs)\n",
                  to_string(result.status).c_str(), result.seconds,
                  result.iterations,
                  static_cast<unsigned long long>(result.conflicts),
                  args.jobs);
      if (result.preprocessed) {
        const sat::PreprocessStats& p = result.preprocess;
        std::printf("preprocess: miter %zu -> %zu clauses, %zu -> %zu vars"
                    " (%zu eliminated, %zu subsumed, %zu strengthened)"
                    " in %.3fs\n",
                    p.clauses_before, p.clauses_after, p.vars_before,
                    p.vars_after, p.eliminated_vars, p.subsumed_clauses,
                    p.strengthened_literals, p.seconds);
      }
      if (result.inprocessed && result.inprocess.passes > 0) {
        const sat::InprocessStats& s = result.inprocess;
        std::printf("inprocess: %llu passes, %llu vivified, %llu subsumed,"
                    " %llu failed literals, %llu hyper-binaries\n",
                    static_cast<unsigned long long>(s.passes),
                    static_cast<unsigned long long>(s.vivified_clauses),
                    static_cast<unsigned long long>(s.subsumed_clauses +
                                                    s.strengthened_clauses),
                    static_cast<unsigned long long>(s.failed_literals),
                    static_cast<unsigned long long>(s.hyper_binaries));
      }
      if (result.saved_clauses > 0) {
        std::printf("constraint clauses: %zu encoded, %zu saved by cone"
                    " specialization\n",
                    result.encoded_clauses, result.saved_clauses);
      }
      if (options.certify) {
        std::printf("certificate: %s (%llu steps), models %s\n",
                    to_string(result.proof_status).c_str(),
                    static_cast<unsigned long long>(result.proof_steps),
                    result.models_verified ? "self-checked" : "UNSOUND");
        if (!result.proof_path.empty()) {
          std::printf("proof trace -> %s (%llu bytes, streamed)\n",
                      result.proof_path.c_str(),
                      static_cast<unsigned long long>(result.proof_bytes));
          if (result.proof_status == attacks::ProofStatus::kOpen) {
            std::printf("open certificate: validate with"
                        " `ril check-proof --open %s`\n",
                        result.proof_path.c_str());
          }
        }
      }
      print_portfolio_wins(result.solve_log);
      if (!args.stats_path.empty()) {
        write_stats_file(args.stats_path, "sat", args,
                         to_string(result.status), result.iterations,
                         result.seconds, result.conflicts,
                         result.encoded_clauses, result.saved_clauses,
                         result.solve_log,
                         certification_fields(result) +
                             preprocess_fields(result) +
                             inprocess_fields(result));
      }
      if (result.status == attacks::SatAttackStatus::kKeyFound) {
        std::printf("recovered key: ");
        for (bool b : result.key) std::printf("%c", b ? '1' : '0');
        std::printf("\nkey check: %s\n", verify(result.key));
      }
    } else if (method == "onehot") {
      const auto result =
          attacks::run_sat_attack_onehot(locked, oracle, options);
      std::printf("one-hot attack: %s in %.2fs, %zu DIPs "
                  "(%zu routing components, %zu key bits -> %zu selectors)\n",
                  to_string(result.status).c_str(), result.seconds,
                  result.iterations, result.components,
                  result.routing_key_bits_replaced, result.selector_bits);
      if (result.status == attacks::SatAttackStatus::kKeyFound) {
        sat::SolverLimits limits{.time_limit_seconds = args.timeout};
        const auto eq = cnf::check_equivalence(result.reconstructed,
                                               activated, {}, {}, limits);
        std::printf("reconstruction: %s\n",
                    eq.equivalent() ? "equivalent to oracle" : "NOT exact");
      }
    } else {
      attacks::AppSatOptions appsat;
      appsat.time_limit_seconds = args.timeout;
      appsat.jobs = args.jobs;
      appsat.portfolio_seed = args.seed;
      appsat.record_solves = options.record_solves;
      appsat.specialize_dips = args.specialize;
      appsat.preprocess = args.preprocess;
      appsat.inprocess = args.inprocess;
      const auto result = attacks::run_appsat(locked, oracle, appsat);
      std::printf("appsat: %s in %.2fs, %zu DIPs, sampled error %.3f,"
                  " %llu conflicts (%u jobs)\n",
                  to_string(result.status).c_str(), result.seconds,
                  result.iterations, result.sampled_error,
                  static_cast<unsigned long long>(result.conflicts),
                  args.jobs);
      if (result.saved_clauses > 0) {
        std::printf("constraint clauses: %zu encoded, %zu saved by cone"
                    " specialization\n",
                    result.encoded_clauses, result.saved_clauses);
      }
      print_portfolio_wins(result.solve_log);
      if (!args.stats_path.empty()) {
        write_stats_file(args.stats_path, "appsat", args,
                         to_string(result.status), result.iterations,
                         result.seconds, result.conflicts,
                         result.encoded_clauses, result.saved_clauses,
                         result.solve_log);
      }
      if (!result.key.empty()) {
        std::printf("key check: %s\n", verify(result.key));
      }
    }
    return 0;
  }
  if (method == "removal") {
    const auto result = attacks::run_removal_attack(locked);
    sat::SolverLimits limits{.time_limit_seconds = args.timeout};
    const auto eq =
        cnf::check_equivalence(result.recovered, activated, {}, {}, limits);
    std::printf("removal: cuts=%zu grounded=%zu reconstruction %s\n",
                result.cuts, result.grounded_keys,
                eq.equivalent() ? "EQUIVALENT (defense broken)"
                                : "wrong (defense held)");
    return 0;
  }
  if (method == "sps") {
    const auto result = attacks::run_sps_attack(locked);
    sat::SolverLimits limits{.time_limit_seconds = args.timeout};
    const auto eq =
        cnf::check_equivalence(result.recovered, activated, {}, {}, limits);
    std::printf("sps: cuts=%zu max skew=%.3f reconstruction %s\n",
                result.cuts, result.max_observed_skew,
                eq.equivalent() ? "EQUIVALENT (defense broken)"
                                : "wrong (defense held)");
    return 0;
  }
  if (method == "bypass") {
    attacks::BypassOptions options;
    options.time_limit_seconds = args.timeout;
    options.jobs = args.jobs;
    options.portfolio_seed = args.seed;
    const auto result = attacks::run_bypass_attack(locked, oracle, options);
    std::printf("bypass: %s, %zu patterns\n",
                to_string(result.status).c_str(), result.patterns);
    if (result.status == attacks::BypassStatus::kBypassed) {
      sat::SolverLimits limits{.time_limit_seconds = args.timeout};
      const auto eq =
          cnf::check_equivalence(result.pirated, activated, {}, {}, limits);
      std::printf("pirated chip %s\n",
                  eq.equivalent() ? "EQUIVALENT (defense broken)"
                                  : "wrong (defense held)");
    }
    return 0;
  }
  usage(("unknown attack method " + method).c_str());
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) usage("analyze needs <file.bench>");
  const netlist::Netlist nl = read_netlist(args.positional[0]);
  std::printf("%s: %s\n", nl.name().c_str(),
              netlist::format_stats(netlist::compute_stats(nl)).c_str());
  const auto components = attacks::find_routing_networks(nl);
  std::printf("routing networks: %zu\n", components.size());
  for (const auto& component : components) {
    std::printf("  %zu-in/%zu-out, %zu switches, terminal=%s\n",
                component.inputs.size(), component.outputs.size(),
                component.key_inputs.size(),
                component.terminal ? "yes" : "no");
  }
  const auto luts = sca::find_keyed_luts(nl);
  std::size_t attackable = 0;
  for (const auto& lut : luts) attackable += lut.attackable;
  std::printf("keyed 2-input LUTs: %zu (%zu with key-free input cones)\n",
              luts.size(), attackable);
  if (args.positional.size() > 1) {
    const auto key = read_key_file(args.positional[1]);
    const double corruption =
        attacks::output_corruptibility(nl, key, 8192, args.seed);
    std::printf("output corruptibility: %.4f\n", corruption);
  }
  return 0;
}

int cmd_unlock(const Args& args) {
  if (args.positional.size() != 3) {
    usage("unlock needs <locked.bench> <key.txt> <out.bench>");
  }
  const netlist::Netlist locked =
      read_netlist(args.positional[0]);
  const auto key = read_key_file(args.positional[1]);
  netlist::Netlist fixed = locking::specialize_keys(locked, key);
  const auto stats = netlist::simplify(fixed);
  write_netlist(args.positional[2], fixed);
  std::printf("unlocked: %s (folded %zu, pruned %zu) -> %s\n",
              netlist::format_stats(netlist::compute_stats(fixed)).c_str(),
              stats.constants_folded, stats.gates_pruned,
              args.positional[2].c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// `ril campaign` -- run a declarative experiment suite.
// ---------------------------------------------------------------------------

/// One parsed spec line:
///   <key> <circuit> <scale> <scheme[:opt=v,...]> <attack> <timeout> <seed>
/// Scheme options: blocks=N size=N lutk=M bits=N outnet scan.
struct CampaignCell {
  std::string key;
  std::string circuit;
  double scale = 1.0;
  std::string scheme;
  std::map<std::string, std::string> scheme_opts;
  std::string attack;
  double timeout = 10.0;
  std::uint64_t seed = 1;
};

std::vector<CampaignCell> parse_campaign_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open campaign spec " + path);
  }
  std::vector<CampaignCell> cells;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    CampaignCell cell;
    std::string scheme_field;
    if (!(fields >> cell.key >> cell.circuit >> cell.scale >> scheme_field >>
          cell.attack >> cell.timeout >> cell.seed)) {
      throw std::runtime_error(
          path + ":" + std::to_string(line_no) +
          ": expected <key> <circuit> <scale> <scheme[:opt=v,...]> "
          "<attack> <timeout> <seed>");
    }
    const auto colon = scheme_field.find(':');
    cell.scheme = scheme_field.substr(0, colon);
    if (colon != std::string::npos) {
      std::istringstream opts(scheme_field.substr(colon + 1));
      std::string opt;
      while (std::getline(opts, opt, ',')) {
        if (opt.empty()) continue;
        const auto eq = opt.find('=');
        cell.scheme_opts[opt.substr(0, eq)] =
            eq == std::string::npos ? "1" : opt.substr(eq + 1);
      }
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::size_t scheme_opt(const CampaignCell& cell, const char* name,
                       std::size_t fallback) {
  const auto it = cell.scheme_opts.find(name);
  if (it == cell.scheme_opts.end()) return fallback;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Runs one campaign cell: build the host, lock it, attack the oracle, and
/// report what the attacker walked away with.
std::string run_campaign_cell(const CampaignCell& cell, const Args& args,
                              runtime::JobContext& ctx) {
  const auto host = benchgen::make_benchmark(cell.circuit, cell.scale);

  netlist::Netlist locked;
  std::vector<bool> oracle_key;
  std::vector<std::size_t> se_positions;
  std::vector<bool> functional_key;
  if (cell.scheme == "ril") {
    core::RilBlockConfig config;
    config.size = scheme_opt(cell, "size", 8);
    config.lut_inputs = scheme_opt(cell, "lutk", 2);
    config.output_network = scheme_opt(cell, "outnet", 0) != 0;
    config.scan_obfuscation = scheme_opt(cell, "scan", 0) != 0;
    auto ril = locking::lock_ril(host, scheme_opt(cell, "blocks", 1), config,
                                 cell.seed);
    locked = std::move(ril.locked.netlist);
    functional_key = ril.info.functional_key;
    oracle_key = config.scan_obfuscation ? ril.info.oracle_scan_key
                                         : ril.info.functional_key;
    se_positions = ril.info.se_key_positions;
  } else {
    locking::LockedCircuit result;
    const std::size_t bits = scheme_opt(cell, "bits", 16);
    if (cell.scheme == "xor") result = locking::lock_xor(host, bits, cell.seed);
    else if (cell.scheme == "sarlock") result = locking::lock_sarlock(host, bits, cell.seed);
    else if (cell.scheme == "antisat") result = locking::lock_antisat(host, bits, cell.seed);
    else if (cell.scheme == "sfll") result = locking::lock_sfll_hd0(host, bits, cell.seed);
    else if (cell.scheme == "lut") result = locking::lock_lut(host, bits, cell.seed);
    else if (cell.scheme == "fulllock") result = locking::lock_fulllock(host, scheme_opt(cell, "size", 8), cell.seed);
    else if (cell.scheme == "routing") result = locking::lock_banyan_routing(host, scheme_opt(cell, "size", 8), cell.seed);
    else throw std::runtime_error("unknown scheme '" + cell.scheme + "'");
    locked = std::move(result.netlist);
    functional_key = result.key;
    oracle_key = std::move(result.key);
  }

  auto verdict_payload = [&](const std::string& verdict) {
    return "\"cell\":\"" + runtime::json_escape(verdict) + "\",\"circuit\":\"" +
           runtime::json_escape(cell.circuit) + "\",\"scheme\":\"" +
           runtime::json_escape(cell.scheme) + "\",\"attack\":\"" +
           runtime::json_escape(cell.attack) + "\"";
  };
  auto sat_telemetry = [](const attacks::SatAttackResult& result) {
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  ",\"iterations\":%zu,\"conflicts\":%llu,"
                  "\"encoded_clauses\":%zu,\"saved_clauses\":%zu,"
                  "\"attack_seconds\":%.3f",
                  result.iterations,
                  static_cast<unsigned long long>(result.conflicts),
                  result.encoded_clauses, result.saved_clauses,
                  result.seconds);
    return std::string(buffer) + certification_fields(result);
  };
  // A recovered key is deployed with the hidden SE bits inactive; it only
  // counts as broken if the deployed key realizes the host function.
  auto breaks_scheme = [&](std::vector<bool> key) {
    for (std::size_t pos : se_positions) key[pos] = false;
    sat::SolverLimits limits{.time_limit_seconds = cell.timeout};
    return cnf::check_equivalence(locked, host, key, {}, limits).equivalent();
  };

  attacks::Oracle oracle(locked, oracle_key);
  if (cell.attack == "sat" || cell.attack == "onehot") {
    attacks::SatAttackOptions options;
    options.time_limit_seconds = cell.timeout;
    options.jobs = args.solver_jobs;
    options.portfolio_seed = cell.seed;
    options.cancel = &ctx.cancel_flag();
    options.certify = args.certify;
    options.preprocess = args.preprocess;
    options.inprocess = args.inprocess;
    // --proof-dir: stream each certified cell's miter certificate to
    // <dir>/<cell-key>.drat (cell keys are sanitized for the filesystem).
    if (options.certify && !args.proof_dir.empty()) {
      std::string name = cell.key;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '.' && c != '_') {
          c = '_';
        }
      }
      options.proof_file = args.proof_dir + "/" + name + ".drat";
    }
    if (cell.attack == "onehot") {
      const auto result = attacks::run_sat_attack_onehot(locked, oracle,
                                                         options);
      const bool broken =
          result.status == attacks::SatAttackStatus::kKeyFound &&
          cnf::check_equivalence(result.reconstructed, host, {}, {},
                                 sat::SolverLimits{.time_limit_seconds =
                                                       cell.timeout})
              .equivalent();
      char buffer[96];
      std::snprintf(buffer, sizeof(buffer),
                    ",\"iterations\":%zu,\"attack_seconds\":%.3f",
                    result.iterations, result.seconds);
      return verdict_payload(broken ? "broken" : "resilient") + buffer;
    }
    const auto result = attacks::run_sat_attack(locked, oracle, options);
    const bool broken =
        result.status == attacks::SatAttackStatus::kKeyFound &&
        breaks_scheme(result.key);
    return verdict_payload(broken ? "broken" : "resilient") +
           sat_telemetry(result);
  }
  if (cell.attack == "appsat") {
    attacks::AppSatOptions options;
    options.time_limit_seconds = cell.timeout;
    options.jobs = args.solver_jobs;
    options.portfolio_seed = cell.seed;
    options.max_iterations = 64;
    options.preprocess = args.preprocess;
    options.inprocess = args.inprocess;
    options.cancel = &ctx.cancel_flag();
    const auto result = attacks::run_appsat(locked, oracle, options);
    const bool broken = !result.key.empty() && breaks_scheme(result.key);
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  ",\"iterations\":%zu,\"attack_seconds\":%.3f",
                  result.iterations, result.seconds);
    return verdict_payload(broken ? "broken" : "resilient") + buffer;
  }
  if (cell.attack == "removal") {
    const auto result = attacks::run_removal_attack(locked);
    const bool broken = cnf::check_equivalence(result.recovered, host)
                            .equivalent();
    return verdict_payload(broken ? "broken" : "resilient");
  }
  if (cell.attack == "sps") {
    const auto result = attacks::run_sps_attack(locked);
    const bool broken = cnf::check_equivalence(result.recovered, host)
                            .equivalent();
    return verdict_payload(broken ? "broken" : "resilient");
  }
  if (cell.attack == "bypass") {
    attacks::BypassOptions options;
    options.time_limit_seconds = cell.timeout;
    const auto result = attacks::run_bypass_attack(locked, oracle, options);
    const bool broken =
        result.status == attacks::BypassStatus::kBypassed &&
        cnf::check_equivalence(result.pirated, host).equivalent();
    return verdict_payload(broken ? "broken" : "resilient");
  }
  (void)functional_key;
  throw std::runtime_error("unknown attack '" + cell.attack + "'");
}

/// Re-validates a DRAT certificate written by `ril attack sat --proof`,
/// reading the trace (binary or text) from disk in one streaming pass.
/// --open drops the empty-clause requirement (open certificates from
/// attacks that stopped before miter-UNSAT). Distinct exit codes keep
/// failures scriptable: 0 valid, 1 invalid proof, 2 usage,
/// 3 missing/unreadable file, 4 empty trace, 5 malformed trace.
int cmd_check_proof(const Args& args) {
  if (args.positional.size() != 1) usage("check-proof needs <trace.drat>");
  const std::string& path = args.positional[0];
  // Probe the file up front so missing/unreadable (3) and empty (4) get
  // their own one-line diagnostics instead of a generic parse error.
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (!probe) {
      std::fprintf(stderr, "check-proof: cannot open %s: %s\n", path.c_str(),
                   std::strerror(errno));
      return 3;
    }
    if (probe.tellg() == std::streampos(0)) {
      std::fprintf(stderr, "check-proof: %s: empty trace (no proof steps)\n",
                   path.c_str());
      return 4;
    }
  }
  sat::DratCheckResult check;
  try {
    check = args.open_certificate ? sat::check_derivations_file(path)
                                  : sat::check_refutation_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check-proof: %s\n", e.what());
    return 5;
  }
  if (check.malformed) {
    std::fprintf(stderr, "check-proof: %s\n", check.error.c_str());
    return 5;
  }
  std::printf("%s: %llu steps checked (%llu originals, %llu derivations,"
              " %llu deletions, %llu propagations)\n",
              path.c_str(),
              static_cast<unsigned long long>(
                  check.stats.originals + check.stats.derivations +
                  check.stats.deletions + check.stats.ignored_deletions),
              static_cast<unsigned long long>(check.stats.originals),
              static_cast<unsigned long long>(check.stats.derivations),
              static_cast<unsigned long long>(check.stats.deletions),
              static_cast<unsigned long long>(check.stats.propagations));
  if (check.valid) {
    std::printf(args.open_certificate
                    ? "proof VALID: open certificate, every step RUP-checked\n"
                    : "proof VALID: complete RUP refutation\n");
    return 0;
  }
  std::fprintf(stderr, "check-proof: %s: INVALID: %s%s\n", path.c_str(),
               check.error.c_str(),
               !args.open_certificate &&
                       check.error == "trace never derives the empty clause"
                   ? " (open certificate? retry with --open)"
                   : "");
  std::printf("proof INVALID: %s\n", check.error.c_str());
  return 1;
}

/// `ril serve` -- the attack-as-a-service daemon (docs/SERVICE.md).
/// Binds 127.0.0.1:<port> (0 picks an ephemeral port, printed on stdout),
/// runs jobs on --workers queue slots with --solver-jobs-wide portfolios,
/// journals every terminal job to --journal, and streams certified attack
/// proofs into --proof-dir. Stops on POST /v1/shutdown.
int cmd_serve(const Args& args) {
  service::ServiceOptions options;
  options.workers = args.jobs;
  options.solver_jobs = args.solver_jobs;
  options.journal_path = args.out_path;
  if (!args.proof_dir.empty()) options.proof_dir = args.proof_dir;
  options.default_timeout_seconds = args.timeout;

  service::AttackService attack_service(options);
  service::HttpServer server(
      [&attack_service](const service::HttpRequest& request) {
        return attack_service.handle(request);
      });
  // More acceptor threads than workers so status polls are never starved
  // behind long wait=1 submissions.
  server.start(args.port, args.jobs + 4);
  std::printf("ril serve: listening on 127.0.0.1:%u (%u workers, %u solver"
              " jobs)\n",
              server.port(), args.jobs, args.solver_jobs);
  if (!options.journal_path.empty()) {
    std::printf("ril serve: journal -> %s\n", options.journal_path.c_str());
  }
  std::fflush(stdout);
  attack_service.wait_shutdown();
  server.stop();
  std::printf("ril serve: shutdown complete\n");
  return 0;
}

int cmd_campaign(const Args& args) {
  if (args.positional.size() != 1) usage("campaign needs <spec.campaign>");
  const auto cells = parse_campaign_spec(args.positional[0]);
  if (cells.empty()) {
    std::fprintf(stderr, "campaign spec %s has no cells\n",
                 args.positional[0].c_str());
    return 1;
  }

  std::vector<runtime::CampaignJob> jobs;
  jobs.reserve(cells.size());
  for (const CampaignCell& cell : cells) {
    runtime::CampaignJob job;
    job.key = cell.key;
    // Lock + attack + equivalence check, each timeout-bounded.
    job.timeout_seconds = 4 * cell.timeout + 60;
    job.run = [&cell, &args](runtime::JobContext& ctx) {
      return run_campaign_cell(cell, args, ctx);
    };
    jobs.push_back(std::move(job));
  }

  runtime::CampaignOptions options;
  options.jobs = args.jobs;
  options.out_path = args.out_path;
  options.resume = args.resume;
  const auto summary = runtime::run_campaign(jobs, options);

  for (const auto& record : summary.records) {
    const std::string wrapped = "{" + record.payload + "}";
    if (record.status == "error") {
      std::printf("%-32s ERROR  %s\n", record.key.c_str(),
                  record.error.c_str());
    } else {
      std::printf("%-32s %-9s  %6.2fs%s\n", record.key.c_str(),
                  runtime::json_string_field(wrapped, "cell").c_str(),
                  record.run_seconds,
                  record.status == "cached" ? "  (resumed)" : "");
    }
  }
  std::printf("campaign: %zu cells ran, %zu resumed, %zu errors in %.2fs",
              summary.completed, summary.cached, summary.errors,
              summary.seconds);
  if (!args.out_path.empty()) {
    std::printf(" -> %s", args.out_path.c_str());
  }
  std::printf("\n");
  return summary.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    const Args args = parse(argc, argv);
    if (command == "gen") return cmd_gen(args);
    if (command == "lock") return cmd_lock(args);
    if (command == "attack") return cmd_attack(args);
    if (command == "check-proof") return cmd_check_proof(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "unlock") return cmd_unlock(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "serve") return cmd_serve(args);
    usage(("unknown command " + command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "error: unexpected failure\n");
    return 1;
  }
}
