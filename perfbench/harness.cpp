// Benchmark harness: drives the library layers from outside for the
// attack-ril and large-host workloads, and makes and checks the inputs of
// the serve-mixed workload. run.py owns the workload definitions, the
// statistics and the report; this program only does the timed work and
// prints raw samples as one JSON object on its last stdout line.
//
//   perfbench_harness attack-ril --seed N --seconds S --trace 0|1
//                                [--spans FILE]
//   perfbench_harness large-host --seed N --seconds S --trace 0|1
//                                --workdir DIR [--spans FILE]
//   perfbench_harness serve-inputs --seed N --workdir DIR
//   perfbench_harness check-keys --list FILE
//
// With --trace 1 every call into a layer is wrapped in a span (name,
// start, end, parent, owner) kept in memory and written to --spans as
// JSON lines when the run ends. With --trace 0 no span is recorded; only
// the per-operation times the end-to-end metrics need are taken.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "benchgen/suite.hpp"
#include "cnf/equivalence.hpp"
#include "cnf/tseitin.hpp"
#include "locking/schemes.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/simulator.hpp"
#include "runtime/campaign.hpp"
#include "runtime/portfolio.hpp"
#include "sat/clause_sink.hpp"
#include "sat/solver.hpp"

namespace {

using namespace ril;
using runtime::json_escape;
using Clock = std::chrono::steady_clock;

// --- small utilities ---------------------------------------------------------

/// splitmix64: the seed-to-input derivation used throughout, so the same
/// --seed gives the same inputs on every machine.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_interval(std::uint64_t x) {
  return static_cast<double>(mix(x) >> 11) / 9007199254740992.0;
}

/// Full-precision number for the JSON output (never rounded to a fixed
/// grid: the statistics are taken downstream).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string key_string(const std::vector<bool>& key) {
  std::string s(key.size(), '0');
  for (std::size_t i = 0; i < key.size(); ++i) s[i] = key[i] ? '1' : '0';
  return s;
}

std::vector<bool> parse_key(const std::string& s) {
  std::vector<bool> key(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '0' && s[i] != '1') throw std::runtime_error("bad key: " + s);
    key[i] = s[i] == '1';
  }
  return key;
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

std::vector<std::string_view> sorted_lines(const std::string& text) {
  std::vector<std::string_view> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text.data() + begin, end - begin);
    begin = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// --- tracing -----------------------------------------------------------------

/// In-memory span log. A span with start < 0 carries only a duration (a
/// per-solve time taken from the attack's own solve log, which records how
/// long each solve ran but not when it started).
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }
  /// A traced run alternates traced and untraced operations, so the
  /// tracing overhead can be measured on the same work.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  long begin(const char* name, long parent, const std::string& owner) {
    if (!enabled_) return -1;
    spans_.push_back({name, now(), -1.0, parent, owner});
    return static_cast<long>(spans_.size()) - 1;
  }
  void end(long id) {
    if (id >= 0) spans_[id].end = now();
  }
  void duration(const char* name, double seconds, long parent,
                const std::string& owner) {
    if (enabled_) spans_.push_back({name, -1.0, seconds, parent, owner});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start\":" << num(s.start) << ",\"end\":" << num(s.end)
          << ",\"parent\":" << s.parent << ",\"owner\":\""
          << json_escape(s.owner) << "\"}\n";
    }
    if (!out.flush()) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;  ///< duration when start < 0
    long parent;
    std::string owner;
  };
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, long parent = -1,
        const std::string& owner = {})
      : tracer_(tracer), id_(tracer.begin(name, parent, owner)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  long id_;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- arguments ---------------------------------------------------------------

struct Args {
  std::string command;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  std::string workdir = ".";
  std::string list;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--spans") args.spans = value;
    else if (flag == "--workdir") args.workdir = value;
    else if (flag == "--list") args.list = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  return args;
}

/// Set-up is repeated this many times per run and reported per repetition
/// (run.py takes the median), so work moved into set-up shows steadily.
/// These set-ups take 0.1-0.3 s and single ones vary by a third, so the
/// median is taken over more of them than serve-mixed's 2 s set-ups.
constexpr int kSetupReps = 7;

// --- attack-ril --------------------------------------------------------------

/// One RIL-locked instance in the paper's Table I shapes.
struct RilShape {
  const char* host;
  double scale;
  std::size_t blocks;
  bool output_network;  ///< 8x8x8 when true, 8x8 otherwise
};

// Shapes whose attacks all finish well inside the per-attack budget. A
// round is one instance of each shape, locked with its own seed.
constexpr RilShape kRilShapes[] = {
    {"c7552", 0.15, 1, false}, {"c7552", 0.15, 2, false},
    {"c7552", 0.15, 3, false}, {"c7552", 0.15, 1, true},
    {"c7552", 0.15, 2, true},  {"b15", 0.1, 1, false},
};
/// Rounds every run attacks; their conflict and iteration totals are the
/// counters that must repeat exactly between runs of one seed.
constexpr std::size_t kRilFixedRounds = 4;
/// Rounds made in set-up: the most a run can attack (a 30 s window takes
/// about 10 on a 4-core x86 VM).
constexpr std::size_t kRilMaxRounds = 24;
/// Threads for the key checks after the window (the machine's other cores).
constexpr unsigned kCheckThreads = 3;
/// A timed-out attack measures the budget, not the system: it fails.
constexpr double kAttackBudgetSeconds = 60;

struct RilInstance {
  std::string label;
  std::shared_ptr<const netlist::Netlist> host;
  netlist::Netlist locked;
  std::unique_ptr<attacks::Oracle> oracle;
};

std::vector<RilInstance> make_ril_plan(std::uint64_t seed) {
  std::vector<std::shared_ptr<const netlist::Netlist>> hosts;
  for (const RilShape& shape : kRilShapes) {
    std::shared_ptr<const netlist::Netlist> host;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (kRilShapes[i].host == std::string(shape.host) &&
          kRilShapes[i].scale == shape.scale) {
        host = hosts[i];
      }
    }
    if (!host) {
      host = std::make_shared<const netlist::Netlist>(
          benchgen::make_benchmark(shape.host, shape.scale));
    }
    hosts.push_back(host);
  }
  std::vector<RilInstance> plan;
  for (std::size_t copy = 0; copy < kRilMaxRounds; ++copy) {
    for (std::size_t s = 0; s < std::size(kRilShapes); ++s) {
      const RilShape& shape = kRilShapes[s];
      core::RilBlockConfig config;
      config.size = 8;
      config.output_network = shape.output_network;
      const std::uint64_t lock_seed = mix(seed * 1000003 + copy * 64 + s);
      auto ril = locking::lock_ril(*hosts[s], shape.blocks, config, lock_seed);
      RilInstance inst;
      inst.label = std::string(shape.host) + "/" +
                   (shape.output_network ? "8x8x8" : "8x8") + "x" +
                   std::to_string(shape.blocks) + "/" +
                   std::to_string(copy);
      inst.host = hosts[s];
      inst.locked = std::move(ril.locked.netlist);
      // The oracle is the activated chip: the key-free host circuit.
      inst.oracle = std::make_unique<attacks::Oracle>(*hosts[s],
                                                      std::vector<bool>{});
      plan.push_back(std::move(inst));
    }
  }
  return plan;
}

/// Forwards queries to the activated chip, wrapping each in a span.
class TracedOracle final : public attacks::QueryOracle {
 public:
  TracedOracle(attacks::QueryOracle& inner, Tracer& tracer, long parent,
               const std::string& owner)
      : inner_(inner), tracer_(tracer), parent_(parent), owner_(owner) {}

  std::vector<bool> query(const std::vector<bool>& data) override {
    ++queries_;
    Scope span(tracer_, "attacks.oracle", parent_, owner_);
    return inner_.query(data);
  }
  std::size_t queries() const { return queries_; }

 private:
  attacks::QueryOracle& inner_;
  Tracer& tracer_;
  long parent_;
  const std::string& owner_;
  std::size_t queries_ = 0;
};

std::string setup_json(const std::vector<double>& setup) {
  std::string out;
  for (const double v : setup) out += (out.empty() ? "" : ",") + num(v);
  return "[" + out + "]";
}

int run_attack_ril(const Args& args) {
  Tracer tracer(args.trace, Clock::now());
  std::vector<double> setup;
  std::vector<RilInstance> plan;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    Scope span(tracer, "setup");
    plan = make_ril_plan(args.seed);
    setup.push_back(seconds_since(t0));
  }

  struct Sample {
    std::size_t instance;
    bool traced;
    double start;
    double seconds;
    bool ok;
    std::string why;
    std::string key;
    attacks::SatAttackResult result;
    std::size_t oracle_queries;
    std::size_t solves;
    double solve_s;
  };
  std::vector<Sample> samples;

  // Untraced, each instance is attacked once, in whole rounds, until the
  // window ends; the fixed rounds always run. Traced, the fixed rounds run
  // traced and then again untraced, so the tracing overhead is measured on
  // the same work.
  const std::size_t shapes = std::size(kRilShapes);
  const std::size_t fixed = kRilFixedRounds * shapes;
  const double window_start = tracer.now();
  const auto t_window = Clock::now();
  auto more = [&](std::size_t done) {
    if (args.trace) return done < 2 * fixed;
    return done < plan.size() &&
           (done % shapes != 0 || done < fixed ||
            seconds_since(t_window) < args.seconds);
  };
  for (std::size_t done = 0; more(done); ++done) {
    const std::size_t i = args.trace ? done % fixed : done;
    tracer.set_enabled(args.trace && done < fixed);
    RilInstance& inst = plan[i];
    const std::string owner = "attack-" + std::to_string(done);
    const long attack_span = tracer.begin("attacks.sat_attack", -1, owner);
    TracedOracle oracle(*inst.oracle, tracer, attack_span, owner);
    attacks::SatAttackOptions options;
    options.jobs = 1;
    options.time_limit_seconds = kAttackBudgetSeconds;
    options.record_solves = tracer.enabled();
    const double start = tracer.now();
    const auto t0 = Clock::now();
    attacks::SatAttackResult result =
        attacks::run_sat_attack(inst.locked, oracle, options);
    const double seconds = seconds_since(t0);
    tracer.end(attack_span);
    result.proof_trace.reset();

    double solve_s = 0;
    for (const auto& record : result.solve_log) {
      tracer.duration("sat.solve", record.outcome.seconds, attack_span, owner);
      solve_s += record.outcome.seconds;
    }
    const std::size_t solves = result.solve_log.size();
    Sample sample{i,       tracer.enabled(),       start,
                  seconds, true,                   {},
                  key_string(result.key),          std::move(result),
                  oracle.queries(),                solves,
                  solve_s};
    sample.result.solve_log.clear();
    if (sample.result.status != attacks::SatAttackStatus::kKeyFound) {
      sample.ok = false;
      sample.why = "status " + attacks::to_string(sample.result.status);
    }
    // Exact-counter repeat check: at jobs = 1 an instance's conflicts, DIP
    // count and canonical key are a property of the input alone.
    if (i != done) {
      const Sample& first = samples[i];
      if (first.key != sample.key ||
          first.result.conflicts != sample.result.conflicts ||
          first.result.iterations != sample.result.iterations) {
        sample.ok = false;
        sample.why = "repeat differs from the first attack on this instance";
      }
    }
    samples.push_back(std::move(sample));
  }
  const double window_end = tracer.now();
  tracer.set_enabled(args.trace);

  // Key check, outside the timed window and spread over a few threads
  // (check_equivalence reads the netlists only): each instance's recovered
  // key against the activated circuit; repeats must reproduce that key.
  const std::size_t attacked = args.trace ? fixed : samples.size();
  std::vector<char> equivalent(attacked, 1);
  std::vector<double> cec_seconds(attacked, 0.0);
  std::atomic<std::size_t> next{0};
  auto check_keys = [&] {
    for (std::size_t i; (i = next++) < attacked;) {
      if (!samples[i].ok) continue;
      const auto t0 = Clock::now();
      equivalent[i] = cnf::check_equivalence(plan[i].locked, *plan[i].host,
                                             samples[i].result.key, {})
                          .equivalent();
      cec_seconds[i] = seconds_since(t0);
    }
  };
  std::vector<std::thread> checkers;
  for (unsigned t = 0; t < kCheckThreads; ++t) checkers.emplace_back(check_keys);
  for (std::thread& t : checkers) t.join();
  for (std::size_t i = 0; i < attacked; ++i) {
    tracer.duration("cnf.cec", cec_seconds[i], -1, "attack-" + std::to_string(i));
    if (equivalent[i]) continue;
    for (Sample& s : samples) {
      if (s.instance == i) {
        s.ok = false;
        s.why = "recovered key is not equivalent";
      }
    }
  }
  if (!args.spans.empty()) tracer.write(args.spans);

  std::uint64_t pass_conflicts = 0;
  std::size_t pass_iterations = 0;
  std::ostringstream out;
  for (std::size_t n = 0; n < samples.size(); ++n) {
    const Sample& s = samples[n];
    const attacks::SatAttackResult& r = s.result;
    if (n < fixed) {
      pass_conflicts += r.conflicts;
      pass_iterations += r.iterations;
    }
    const double prep_reduction =
        r.preprocessed && r.preprocess.clauses_before > 0
            ? 1.0 - static_cast<double>(r.preprocess.clauses_after) /
                        static_cast<double>(r.preprocess.clauses_before)
            : 0.0;
    out << (n ? "," : "") << "{\"instance\":\"" << plan[s.instance].label
        << "\",\"owner\":\"attack-" << n
        << "\",\"traced\":" << (s.traced ? "true" : "false")
        << ",\"start\":" << num(s.start) << ",\"seconds\":" << num(s.seconds)
        << ",\"host_gates\":" << plan[s.instance].host->gate_count()
        << ",\"ok\":" << (s.ok ? "true" : "false") << ",\"why\":\""
        << json_escape(s.why) << "\",\"conflicts\":" << r.conflicts
        << ",\"iterations\":" << r.iterations
        << ",\"oracle_queries\":" << s.oracle_queries
        << ",\"solves\":" << s.solves << ",\"solve_s\":" << num(s.solve_s)
        << ",\"encoded_clauses\":" << r.encoded_clauses
        << ",\"saved_clauses\":" << r.saved_clauses
        << ",\"preprocess_clause_reduction\":" << num(prep_reduction) << "}";
  }
  std::cout << "{\"workload\":\"attack-ril\",\"setup_s\":"
            << setup_json(setup) << ",\"window\":[" << num(window_start) << ","
            << num(window_end) << "],\"fixed_instances\":" << fixed
            << ",\"pass_conflicts\":" << pass_conflicts
            << ",\"pass_iterations\":" << pass_iterations
            << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"attacks\":["
            << out.str() << "]}" << std::endl;
  return 0;
}

// --- large-host --------------------------------------------------------------

struct LargeHost {
  const char* name;
  double scale;  ///< before the seed's jitter
};
// aes-deep: strash-heavy, mostly 2-input gates; lut-fabric: no strash
// hits, 4-input LUTs, far more clauses per gate. Both ~200k gates here.
constexpr LargeHost kLargeHosts[] = {{"aes-deep", 0.2}, {"lut-fabric", 0.2}};
constexpr std::size_t kLargeKeyBits = 128;
constexpr int kSimWords = 4;  // 256 vectors per traced simulation

struct PassResult {
  std::size_t gates = 0;
  double seconds = 0;
  bool ok = true;
  std::string why;
  std::size_t bench_bytes = 0;
  bool byte_identical = false;
  std::size_t clauses = 0;         ///< traced run only
  std::size_t sim_gate_evals = 0;  ///< traced run only
};

PassResult run_pass(const std::string& name, double scale,
                    std::uint64_t lock_seed, const std::string& path,
                    Tracer& tracer, const std::string& owner) {
  PassResult pass;
  const long pass_span = tracer.begin("large.pass", -1, owner);
  auto stage = [&](const char* span_name, auto&& body) {
    const auto t0 = Clock::now();
    {
      Scope span(tracer, span_name, pass_span, owner);
      body();
    }
    pass.seconds += seconds_since(t0);
  };

  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::string host_name;
  {
    netlist::Netlist host;
    stage("benchgen.build", [&] { host = benchgen::make_benchmark(name, scale); });
    pass.gates = host.gate_count();
    host_name = host.name();
    nodes = host.node_count();
    edges = host.fanin_pool_size();
    stage("netlist.write", [&] { netlist::write_bench_file(path, host); });
  }
  netlist::Netlist reread;
  stage("netlist.read", [&] { reread = netlist::read_bench_file(path); });
  {
    // Read-back check, outside the pass time: counts agree and writing the
    // read-back netlist reproduces the file's lines. The writer's gate
    // order follows node numbering, which the reader assigns differently,
    // so the lines are compared as a multiset; byte identity is reported.
    // The reader names a netlist after its file; the header carries it.
    Scope span(tracer, "check.readback", pass_span, owner);
    reread.set_name(host_name);
    const std::string written = read_file(path);
    const std::string rewritten = netlist::write_bench_string(reread);
    pass.bench_bytes = written.size();
    pass.byte_identical = rewritten == written;
    if (reread.gate_count() != pass.gates || reread.node_count() != nodes ||
        reread.fanin_pool_size() != edges) {
      pass.ok = false;
      pass.why = "read-back counts differ";
    } else if (!pass.byte_identical &&
               sorted_lines(rewritten) != sorted_lines(written)) {
      pass.ok = false;
      pass.why = "re-written read-back has different lines";
    }
  }
  locking::LockedCircuit locked;
  stage("locking.lock", [&] {
    locked = locking::lock_xor(reread, kLargeKeyBits, lock_seed);
  });
  reread = netlist::Netlist();
  stage("cnf.encode_solver", [&] {
    sat::Solver solver;
    cnf::encode_circuit(locked.netlist, solver);
  });
  stage("cnf.encode_portfolio", [&] {
    runtime::SolverPortfolio portfolio(2, lock_seed);
    cnf::encode_circuit(locked.netlist, portfolio);
  });
  tracer.end(pass_span);

  if (tracer.enabled()) {
    // Layer probes outside the pass, traced run only.
    {
      Scope span(tracer, "cnf.encode_dry", -1, owner);
      // The dry encode, whose gap to the solver encode is the
      // clause-insertion cost.
      sat::CountingSink sink;
      cnf::encode_circuit(locked.netlist, sink);
      pass.clauses = sink.clauses();
    }
    Scope span(tracer, "netlist.sim", -1, owner);
    netlist::Simulator simulator(locked.netlist);
    for (int w = 0; w < kSimWords; ++w) {
      std::uint64_t x = mix(lock_seed + w);
      for (const netlist::NodeId in : locked.netlist.inputs()) {
        simulator.set_input(in, x = mix(x));
      }
      simulator.evaluate();
    }
    pass.sim_gate_evals = kSimWords * 64 * locked.netlist.gate_count();
  }
  return pass;
}

int run_large_host(const Args& args) {
  Tracer tracer(args.trace, Clock::now());
  const std::string path =
      args.workdir + "/large-" + std::to_string(args.seed) + ".bench";
  double scales[std::size(kLargeHosts)];
  for (std::size_t h = 0; h < std::size(kLargeHosts); ++h) {
    // +-2% gate budget per seed, so each seed is its own input.
    scales[h] = kLargeHosts[h].scale *
                (0.98 + 0.04 * unit_interval(args.seed * 31 + h));
  }

  // Set-up: a warm-up pass over small versions of both hosts (code and
  // allocator pages), repeated like every workload's set-up.
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    Scope span(tracer, "setup");
    for (const LargeHost& host : kLargeHosts) {
      Tracer off(false, Clock::now());
      run_pass(host.name, 0.01, args.seed, path, off, {});
    }
    setup.push_back(seconds_since(t0));
  }

  std::ostringstream samples;
  const double window_start = tracer.now();
  const auto t_window = Clock::now();
  std::size_t done = 0;
  // Whole pairs only: one operation is a pass over every host.
  for (; done % std::size(kLargeHosts) != 0 ||
         done < std::size(kLargeHosts) ||
         seconds_since(t_window) < args.seconds;
       ++done) {
    const std::size_t h = done % std::size(kLargeHosts);
    tracer.set_enabled(args.trace && (done / std::size(kLargeHosts)) % 2 == 0);
    const std::string owner = "pass-" + std::to_string(done);
    const double start = tracer.now();
    const PassResult pass =
        run_pass(kLargeHosts[h].name, scales[h], mix(args.seed + h), path,
                 tracer, owner);
    samples << (done ? "," : "") << "{\"host\":\"" << kLargeHosts[h].name
            << "\",\"owner\":\"" << owner
            << "\",\"traced\":" << (tracer.enabled() ? "true" : "false")
            << ",\"start\":" << num(start) << ",\"end\":" << num(tracer.now())
            << ",\"gates\":" << pass.gates
            << ",\"bench_bytes\":" << pass.bench_bytes
            << ",\"byte_identical\":" << (pass.byte_identical ? "true" : "false")
            << ",\"clauses\":" << pass.clauses
            << ",\"sim_gate_evals\":" << pass.sim_gate_evals
            << ",\"seconds\":" << num(pass.seconds)
            << ",\"ok\":" << (pass.ok ? "true" : "false") << ",\"why\":\""
            << json_escape(pass.why) << "\"}";
  }
  const double window_end = tracer.now();
  tracer.set_enabled(args.trace);
  std::remove(path.c_str());
  if (!args.spans.empty()) tracer.write(args.spans);

  std::cout << "{\"workload\":\"large-host\",\"setup_s\":" << setup_json(setup)
            << ",\"window\":[" << num(window_start) << "," << num(window_end)
            << "],\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"passes\":["
            << samples.str() << "]}" << std::endl;
  return 0;
}

// --- serve-mixed inputs ------------------------------------------------------

/// Pool of small RIL-locked hosts the serve client attacks and verifies
/// repeatedly (cache hits), the host its lock jobs lock afresh (cache
/// misses), and one larger host for iteration-capped attacks.
constexpr std::size_t kServePool = 3;
constexpr const char* kServeSmallHost = "c7552";
constexpr double kServeSmallScale = 0.05;
constexpr const char* kServeLargeHost = "b20";
constexpr double kServeLargeScale = 1.0;
/// Key bits per pool instance whose flip is known to change the function.
constexpr std::size_t kSensitiveBits = 8;

int run_serve_inputs(const Args& args) {
  const std::string dir = args.workdir;
  const netlist::Netlist small =
      benchgen::make_benchmark(kServeSmallHost, kServeSmallScale);
  write_file(dir + "/small.host.bench", netlist::write_bench_string(small));
  std::ostringstream pool;
  for (std::size_t i = 0; i < kServePool; ++i) {
    core::RilBlockConfig config;
    config.size = 8;
    const std::uint64_t lock_seed = mix(args.seed * 7919 + i);
    auto ril = locking::lock_ril(small, 1, config, lock_seed);
    const netlist::Netlist& locked = ril.locked.netlist;
    const std::vector<bool>& key = ril.info.functional_key;
    const std::string path = dir + "/pool" + std::to_string(i) + ".bench";
    write_file(path, netlist::write_bench_string(locked));
    // Ground truth for the verify jobs: single-bit flips that a CEC shows
    // to change the function (many RIL key bits are don't-cares).
    std::ostringstream flips;
    std::size_t found = 0;
    for (std::size_t probe = 0; probe < 4 * key.size() && found < kSensitiveBits;
         ++probe) {
      const std::size_t bit = mix(lock_seed + probe) % key.size();
      std::vector<bool> flipped = key;
      flipped[bit] = !flipped[bit];
      if (!cnf::check_equivalence(locked, small, flipped, {}).equivalent()) {
        flips << (found++ ? "," : "") << bit;
      }
    }
    if (found == 0) throw std::runtime_error("no sensitive key bit found");
    pool << (i ? "," : "") << "{\"locked_path\":\"" << json_escape(path)
         << "\",\"key\":\"" << key_string(key) << "\",\"flip_bits\":["
         << flips.str() << "]}";
  }

  const netlist::Netlist large =
      benchgen::make_benchmark(kServeLargeHost, kServeLargeScale);
  core::RilBlockConfig config;
  config.size = 8;
  // One larger host, the same for every seed: its capped attacks are the
  // serve tail, and the seed already varies the pool and the job stream.
  auto ril = locking::lock_ril(large, 1, config, mix(104729));
  write_file(dir + "/large.host.bench", netlist::write_bench_string(large));
  write_file(dir + "/large.locked.bench",
             netlist::write_bench_string(ril.locked.netlist));

  std::cout << "{\"small_host_path\":\"" << json_escape(dir)
            << "/small.host.bench\",\"pool\":[" << pool.str()
            << "],\"large_host_path\":\"" << json_escape(dir)
            << "/large.host.bench\",\"large_locked_path\":\""
            << json_escape(dir) << "/large.locked.bench\",\"large_gates\":"
            << ril.locked.netlist.gate_count() << "}" << std::endl;
  return 0;
}

// --- check-keys --------------------------------------------------------------

/// Each line of --list: locked_path <TAB> activated_path <TAB> key. Prints
/// one verdict per line ("ok" or the reason), in order.
int run_check_keys(const Args& args) {
  std::ifstream in(args.list);
  if (!in) throw std::runtime_error("cannot read " + args.list);
  std::string line;
  std::ostringstream verdicts;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string locked_path, activated_path, key;
    std::getline(fields, locked_path, '\t');
    std::getline(fields, activated_path, '\t');
    std::getline(fields, key, '\t');
    std::string verdict = "ok";
    try {
      const netlist::Netlist locked = netlist::read_bench_file(locked_path);
      const netlist::Netlist activated =
          netlist::read_bench_file(activated_path);
      const auto eq =
          cnf::check_equivalence(locked, activated, parse_key(key), {});
      if (!eq.equivalent()) verdict = "key is not equivalent";
    } catch (const std::exception& e) {
      verdict = e.what();
    }
    verdicts << (n++ ? "," : "") << "\"" << json_escape(verdict) << "\"";
  }
  std::cout << "{\"verdicts\":[" << verdicts.str() << "]}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "attack-ril") return run_attack_ril(args);
    if (args.command == "large-host") return run_large_host(args);
    if (args.command == "serve-inputs") return run_serve_inputs(args);
    if (args.command == "check-keys") return run_check_keys(args);
    throw std::runtime_error("unknown command " + args.command);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
