#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload attack-ril|large-host|serve-mixed \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the harness and the
`ril` CLI from the sources into .bench_build/perfbench. Each workload runs
in its own fresh process (the harness, or the `ril serve` daemon), whose
own VmHWM is its peak RSS. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, taken
from spans around every call into a layer (see DESIGN.md). The exit code
is non-zero if any correctness check failed or the run could not finish.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve_mixed  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("attack-ril", "large-host", "serve-mixed")

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
]

PER_LAYER = [  # name, unit
    ("netlist.read_mb_per_s", "MB/s"),
    ("netlist.write_mb_per_s", "MB/s"),
    ("netlist.sim_gate_evals_per_s", "1/s"),
    ("benchgen.build_gates_per_s", "1/s"),
    ("locking.lock_s", "s"),
    ("cnf.encode_dry_clauses_per_s", "1/s"),
    ("cnf.encode_solver_clauses_per_s", "1/s"),
    ("cnf.encode_portfolio_clauses_per_s", "1/s"),
    ("cnf.cec_s", "s"),
    ("sat.solve_s", "s"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.conflicts_per_s", "1/s"),
    ("sat.solve_share", "ratio"),
    ("sat.preprocess_clause_reduction", "ratio"),
    ("sat.verify_solve_s", "s"),
    ("sat.proof_bytes", "bytes"),
    ("sat.proof_check_steps_per_s", "1/s"),
    ("attacks.iterations", "count"),
    ("attacks.oracle_queries", "count"),
    ("attacks.oracle_s", "s"),
    ("attacks.dip_overhead_s", "s"),
    ("attacks.encoded_clauses", "count"),
    ("attacks.saved_clauses", "count"),
    ("runtime.queue_wait_s", "s"),
    ("service.transport_s", "s"),
    ("service.handler_s", "s"),
    ("service.netlist_hit_ratio", "ratio"),
    ("service.netlist_lookups", "count"),
    ("service.skeleton_hit_ratio", "ratio"),
    ("service.skeleton_lookups", "count"),
    ("service.verifier_hit_ratio", "ratio"),
    ("service.verifier_lookups", "count"),
    ("service.parse_s", "s"),
    ("service.skeleton_bytes", "bytes"),
    ("service.verify_latency_p50_s", "s"),
    ("service.attack_latency_p50_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.uncovered_share", "ratio"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------------

def build():
    """Configures once, then builds incrementally; build output goes to
    stderr so the last stdout line stays the result."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench_harness", "ril"], check=True, stdout=sys.stderr)
    return (os.path.join(BUILD, "perfbench_harness"),
            os.path.join(BUILD, "ril_tools", "ril"))


def source_digest():
    """Identifies the program and benchmark sources, so recorded counters
    are only compared between runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


# --- running one workload -----------------------------------------------------

def run_harness(harness, workload, args, workdir, spans_path):
    cmd = [harness, workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if spans_path:
        cmd += ["--spans", spans_path]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=170).stdout
    return json.loads(out.strip().splitlines()[-1])


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def sum_durations(spans, name, owners=None):
    return sum(stats.duration(s) for s in spans if s["name"] == name
               and (owners is None or s["owner"] in owners))


def segments(samples, start_key, end_of):
    """Contiguous stretches of traced operations, gaps between them
    included: the timed wall time the spans should cover."""
    result = []
    current = None
    for sample in samples:
        if sample["traced"]:
            if current is None:
                current = [sample[start_key], end_of(sample)]
            else:
                current[1] = end_of(sample)
        elif current is not None:
            result.append(tuple(current))
            current = None
    if current is not None:
        result.append(tuple(current))
    return result


def paired_overhead(samples, key_of):
    """Traced over untraced time of the same operations (same instance or
    host), over the operations that ran both ways."""
    traced, untraced = {}, {}
    for s in samples:
        (traced if s["traced"] else untraced).setdefault(key_of(s), []).append(
            s["seconds"])
    keys = [k for k in traced if k in untraced]
    if not keys:
        return 0.0
    return stats.overhead(sum(stats.median(traced[k]) for k in keys),
                          sum(stats.median(untraced[k]) for k in keys))


def summarize_attack_ril(raw, spans):
    attacks = raw["attacks"]
    wall = raw["window"][1] - raw["window"][0]
    times = [a["seconds"] for a in attacks]
    # Attacks per second at the geometric-mean time-to-key: one hard
    # instance cannot dominate it; latency_tail_s reports the hard ones.
    e2e = {"work_per_s": 1.0 / stats.geomean(times),
           "latency_p50_s": stats.median(times),
           "latency_tail": stats.tail(times)}
    notes = ["attacks %d in %.2f s (%.4f attacks/s of window); fixed first "
             "%d instances: conflicts %d, iterations %d"
             % (len(attacks), wall, len(attacks) / wall,
                raw["fixed_instances"], raw["pass_conflicts"],
                raw["pass_iterations"])]
    layer = {}
    if spans is not None:
        first = attacks[:raw["fixed_instances"]]   # traced, fixed rounds
        owners = {a["owner"] for a in first}
        attack_s = sum(a["seconds"] for a in first)
        solve_s = sum(a["solve_s"] for a in first)
        oracle_s = sum_durations(spans, "attacks.oracle", owners)
        own = stats.self_times(spans)
        conflicts = sum(a["conflicts"] for a in first)
        queries = sum(a["oracle_queries"] for a in first)
        layer.update({
            "netlist.sim_gate_evals_per_s": sum(
                a["oracle_queries"] * a["host_gates"] for a in first) / oracle_s,
            "cnf.cec_s": stats.median([stats.duration(s) for s in spans
                                       if s["name"] == "cnf.cec"]),
            "sat.solve_s": solve_s,
            "sat.solves": sum(a["solves"] for a in first),
            "sat.conflicts": conflicts,
            "sat.conflicts_per_s": conflicts / solve_s,
            "sat.solve_share": solve_s / attack_s,
            "sat.preprocess_clause_reduction": stats.median(
                [a["preprocess_clause_reduction"] for a in first]),
            "attacks.iterations": sum(a["iterations"] for a in first),
            "attacks.oracle_queries": queries,
            "attacks.oracle_s": oracle_s,
            "attacks.dip_overhead_s": sum(
                own[s["id"]] for s in spans
                if s["name"] == "attacks.sat_attack" and s["owner"] in owners),
            "attacks.encoded_clauses": sum(a["encoded_clauses"] for a in first),
            "attacks.saved_clauses": sum(a["saved_clauses"] for a in first),
            "trace.overhead": paired_overhead(attacks, lambda a: a["instance"]),
            "trace.uncovered_share": 1.0 - stats.coverage(
                spans, segments(attacks, "start",
                                lambda a: a["start"] + a["seconds"])),
        })
    return e2e, layer, attacks, notes


def summarize_large_host(raw, spans):
    passes = raw["passes"]
    pairs = [passes[i:i + 2] for i in range(0, len(passes) - 1, 2)]
    gates = sum(p["gates"] for p in passes)
    seconds = sum(p["seconds"] for p in passes)
    # One operation is a pass over both hosts; its latency is stated per
    # million gates so the two hosts' sizes do not enter it.
    per_mgate = [sum(p["seconds"] for p in pair) * 1e6 /
                 sum(p["gates"] for p in pair) for pair in pairs]
    # Median over pairs, so one pass slowed by the machine moves it less.
    e2e = {"work_per_s": stats.median([
               sum(p["gates"] for p in pair) / sum(p["seconds"] for p in pair)
               for pair in pairs]),
           "latency_p50_s": stats.median(per_mgate),
           "latency_tail": stats.tail(per_mgate)}
    identical = all(p["byte_identical"] for p in passes)
    notes = ["pipeline_gates_per_s %.0f over %d passes (%d pairs); latency "
             "is seconds per 1M gates; re-written read-back byte-identical: "
             "%s (lines always compared as a multiset)"
             % (gates / seconds, len(passes), len(pairs),
                "yes" if identical else "no")]
    layer = {}
    if spans is not None:
        traced = [p for p in passes if p["traced"]]
        owners = {p["owner"] for p in traced}

        def per_s(amount, name):
            return amount / sum_durations(spans, name, owners)

        clauses = sum(p["clauses"] for p in traced)
        layer.update({
            "netlist.read_mb_per_s": per_s(
                sum(p["bench_bytes"] for p in traced) / 1e6, "netlist.read"),
            "netlist.write_mb_per_s": per_s(
                sum(p["bench_bytes"] for p in traced) / 1e6, "netlist.write"),
            "netlist.sim_gate_evals_per_s": per_s(
                sum(p["sim_gate_evals"] for p in traced), "netlist.sim"),
            "benchgen.build_gates_per_s": per_s(
                sum(p["gates"] for p in traced), "benchgen.build"),
            "locking.lock_s": stats.median([
                stats.duration(s) for s in spans
                if s["name"] == "locking.lock" and s["owner"] in owners]),
            "cnf.encode_dry_clauses_per_s": per_s(clauses, "cnf.encode_dry"),
            "cnf.encode_solver_clauses_per_s": per_s(clauses,
                                                     "cnf.encode_solver"),
            "cnf.encode_portfolio_clauses_per_s": per_s(
                clauses, "cnf.encode_portfolio"),
            "trace.overhead": paired_overhead(passes, lambda p: p["host"]),
            "trace.uncovered_share": 1.0 - stats.coverage(
                spans, segments(passes, "start", lambda p: p["end"])),
        })
    return e2e, layer, passes, notes


def summarize_serve(raw, trace):
    jobs = raw["jobs"]
    wall = raw["window"][1] - raw["window"][0]
    latencies = [j["latency"] for j in jobs]
    verify = [j for j in jobs if j["type"] == "verify" and j["ok"]]
    attacks = [j for j in jobs if j["type"] == "attack" and j["ok"]]
    e2e = {"work_per_s": len(jobs) / wall,
           "latency_p50_s": stats.median(latencies),
           "latency_tail": stats.tail(latencies)}
    counts = {}
    for j in jobs:
        counts[j["kind"]] = counts.get(j["kind"], 0) + 1
    verify_p50 = stats.median([j["latency"] for j in verify])
    attack_p50 = stats.median([j["latency"] for j in attacks])
    cache = raw["cache"]
    notes = ["jobs %d in %.2f s at %d closed-loop clients: %s" % (
                 len(jobs), wall, serve_mixed.CLIENTS,
                 ", ".join("%s %d" % kv for kv in sorted(counts.items()))),
             "verify_latency_p50_s %.6f  attack_latency_p50_s %.6f" % (
                 verify_p50, attack_p50),
             "cache hits/lookups in the window: " + ", ".join(
                 "%s %d/%d" % (name, c["hits"], c["hits"] + c["misses"])
                 for name, c in sorted(cache.items()))]
    layer = {}
    if trace:
        spans = raw["spans"]

        def ratio(name):
            c = cache[name]
            lookups = c["hits"] + c["misses"]
            return (c["hits"] / lookups if lookups else 0.0), lookups

        traced_verify = [j for j in verify if j["traced"]]
        parse = [v for j in jobs if j["ok"] for k, v in j["data"].items()
                 if k.endswith("_parse_seconds")
                 and j["data"].get(k[:-len("_parse_seconds")] + "_cache") == "miss"]
        proofs = [j["data"]["proof_bytes"] for j in attacks
                  if j["data"].get("proof") == "valid"]
        checks = [j for j in jobs if j["type"] == "check-proof" and j["ok"]]
        locks = [j for j in jobs if j["type"] == "lock" and j["ok"]]
        netlist_ratio, netlist_lookups = ratio("netlist_cache")
        skeleton_ratio, skeleton_lookups = ratio("skeleton_cache")
        verifier_ratio, verifier_lookups = ratio("verifier_cache")
        untraced_verify = [j["latency"] for j in verify if not j["traced"]]
        layer.update({
            "locking.lock_s": stats.median([j["run_seconds"] for j in locks])
            if locks else 0.0,
            "sat.verify_solve_s": stats.median(
                [j["data"]["solve_seconds"] for j in verify]),
            "sat.proof_bytes": stats.median(proofs) if proofs else 0.0,
            "sat.proof_check_steps_per_s": sum(
                j["data"]["originals"] + j["data"]["derivations"]
                for j in checks) / sum(j["run_seconds"] for j in checks)
            if checks else 0.0,
            "runtime.queue_wait_s": sum(j["queue_seconds"] for j in jobs)
            / len(jobs),
            "service.transport_s": stats.median(
                [j["latency"] - j["request_seconds"] for j in traced_verify]),
            "service.handler_s": stats.median(
                [j["request_seconds"] - j["queue_seconds"] - j["run_seconds"]
                 for j in traced_verify]),
            "service.netlist_hit_ratio": netlist_ratio,
            "service.netlist_lookups": netlist_lookups,
            "service.skeleton_hit_ratio": skeleton_ratio,
            "service.skeleton_lookups": skeleton_lookups,
            "service.verifier_hit_ratio": verifier_ratio,
            "service.verifier_lookups": verifier_lookups,
            "service.parse_s": stats.median(parse) if parse else 0.0,
            "service.skeleton_bytes": raw["skeleton_bytes"],
            "service.verify_latency_p50_s": verify_p50,
            "service.attack_latency_p50_s": attack_p50,
            "trace.overhead": stats.overhead(
                stats.median([j["latency"] for j in traced_verify]),
                stats.median(untraced_verify)) if untraced_verify else 0.0,
            "trace.uncovered_share": 1.0 - stats.coverage(
                spans, [tuple(raw["window"])]),
        })
    return e2e, layer, jobs, notes


# --- exact counters -----------------------------------------------------------

def check_counters(raw, seed):
    """attack-ril's fixed-round conflicts and iterations must repeat exactly
    between runs of the same code and seed; returns a message on mismatch."""
    record = {"instances": raw["fixed_instances"],
              "conflicts": raw["pass_conflicts"],
              "iterations": raw["pass_iterations"]}
    directory = os.path.join(BUILD, "counters", source_digest())
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "attack-ril-%d.json" % seed)
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        if previous != record:
            return "counters differ from an earlier run: %s vs %s" % (
                record, previous)
        return None
    with open(path, "w") as f:
        json.dump(record, f)
    return None


# --- main ---------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    harness, ril = build()
    os.makedirs(BUILD, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD, prefix="run-") as workdir:
        spans_path = os.path.join(workdir, "spans.jsonl") if args.trace else ""
        if args.workload == "serve-mixed":
            raw = serve_mixed.run(harness, ril, workdir, args.seed,
                                  args.seconds, args.trace == 1)
            e2e, layer, ops, notes = summarize_serve(raw, args.trace == 1)
        else:
            raw = run_harness(harness, args.workload, args, workdir, spans_path)
            spans = read_spans(spans_path) if args.trace else None
            summarize = (summarize_attack_ril if args.workload == "attack-ril"
                         else summarize_large_host)
            e2e, layer, ops, notes = summarize(raw, spans)

    attempted, failed = stats.count_failures(ops)
    problems = ["%s: %s" % (op.get("owner", op.get("kind", "?")), op["why"])
                for op in ops if not op["ok"]]
    if args.workload == "attack-ril":
        mismatch = check_counters(raw, args.seed)
        if mismatch:
            failed += 1
            problems.append(mismatch)

    tail_value, tail_pct, beyond, n = e2e.pop("latency_tail")
    e2e.update({"setup_s": stats.median(raw["setup_s"]),
                "peak_rss_mb": raw["peak_rss_mb"],
                "latency_tail_s": tail_value})
    print("workload %s  seed %d  seconds %g  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    for note in notes:
        print("  " + note)
    print("  failed_frac %.6f (%d of %d operations failed)" % (
        stats.failed_frac(attempted, failed), failed, attempted))
    print("  latency_tail_s is p%.1f: %d of %d samples beyond%s" % (
        tail_pct, beyond, n, "" if beyond else " (too few samples: maximum)"))
    for problem in problems[:20]:
        print("  FAILED " + problem)

    if args.trace:
        names = PER_LAYER
        values = {name: layer.get(name, 0.0) for name, _ in PER_LAYER}
    else:
        names = END_TO_END
        values = e2e
    for name, unit in names:
        print("  %-38s %.9g %s" % (name, values[name], unit))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            serve_mixed.ServeError, OSError, ValueError, KeyError) as exc:
        log("perfbench: run failed: %s: %s" % (type(exc).__name__, exc))
        sys.exit(2)
