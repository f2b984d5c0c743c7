"""The serve-mixed workload: a `ril serve` daemon (--workers 2
--solver-jobs 1) driven by two closed-loop clients, each sending its next
job only after the previous reply, as CI scripts and campaign drivers do.

Every reply is parsed with a real JSON parser, every request body is
compact JSON, and a job is accepted either as a 200 result or as a 202
followed by polling GET /v1/jobs/<id>.
"""

import json
import os
import random
import re
import shutil
import socket
import subprocess
import threading
import time


WORKERS = 2
CLIENTS = 2
SETUP_REPS = 3
JOB_DEADLINE_S = 60
LARGE_MAX_ITERATIONS = 2

# One round of closed-loop steps; every client runs whole rounds, so a run
# holds the same job multiset whatever its seed and length. The daemon has
# no recorded traffic and its only client in the repository (the CI service
# smoke) sends no verify jobs, so the mix is assumed; DESIGN.md gives the
# reason for each count. A certified attack is followed by a check-proof
# job on its certificate, and a fresh attack is preceded by the lock job
# that makes its host.
ROUND = (["verify-ok"] * 8 + ["verify-flip"] * 8 + ["attack-pool"] * 2
         + ["attack-fresh", "attack-capped"])


class ServeError(Exception):
    pass


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def parse_response(data):
    """(status, body) of one HTTP/1.1 response read to end of stream."""
    head, sep, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if not sep or len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ServeError("malformed HTTP response: %r" % data[:80])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "identity").lower() != "identity":
        raise ServeError("unsupported transfer encoding %r"
                         % headers["transfer-encoding"])
    if "content-length" in headers:
        length = int(headers["content-length"])
        if len(body) < length:
            raise ServeError("response body cut short: %d of %d bytes"
                             % (len(body), length))
        body = body[:length]
    return int(parts[1]), body


class Daemon:
    """A `ril serve` child process on an ephemeral loopback port."""

    def __init__(self, ril, cwd, proof_dir):
        self.proc = subprocess.Popen(
            [ril, "serve", "--port", "0", "--workers", str(WORKERS),
             "--solver-jobs", "1", "--proof-dir", proof_dir],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not match:
            self.kill()
            raise ServeError("daemon did not start: %r" % line)
        self.port = int(match.group(1))

    def request(self, method, target, body=None):
        """One exchange on a fresh connection that the request asks the
        server to close, so the reply ends at end of stream. Written on a
        bare socket: http.client's header parsing took as long as the
        daemon's own work on a verify job and swung from run to run, and
        the job latencies are client-side."""
        payload = (body or "").encode()
        head = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Type: application/json\r\nContent-Length: %d\r\n"
                "Connection: close\r\n\r\n" % (method, target, len(payload)))
        chunks = []
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=JOB_DEADLINE_S + 30) as conn:
            conn.sendall(head.encode() + payload)
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return parse_response(b"".join(chunks))

    def get_json(self, target):
        status, data = self.request("GET", target)
        if status != 200:
            raise ServeError("GET %s -> %d" % (target, status))
        return json.loads(data)

    def wait_healthy(self):
        deadline = time.monotonic() + 30
        while True:
            try:
                self.get_json("/v1/health")
                return
            except (OSError, ServeError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def submit(self, job):
        """Runs one job to its end and returns the final job reply."""
        status, data = self.request("POST", "/v1/jobs?wait=1", _compact(job))
        reply = json.loads(data)
        if status == 202:
            while reply.get("status") in ("queued", "running", None):
                time.sleep(0.002)
                reply = self.get_json("/v1/jobs/" + reply["id"])
        elif status != 200:
            raise ServeError("submit -> %d: %s" % (status, reply.get("error")))
        return reply

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM for the daemon")

    def shutdown(self):
        try:
            self.request("POST", "/v1/shutdown")
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Inputs:
    def __init__(self, manifest):
        self.small_host = manifest["small_host_path"]
        self.pool = manifest["pool"]
        self.large_host = manifest["large_host_path"]
        self.large_locked = manifest["large_locked_path"]


def make_inputs(harness, seed, directory):
    out = subprocess.run([harness, "serve-inputs", "--seed", str(seed),
                          "--workdir", directory],
                         check=True, capture_output=True, text=True).stdout
    return Inputs(json.loads(out.strip().splitlines()[-1]))


def warm_up(daemon, inputs):
    """Fills the three caches the way a running service has them filled:
    every pool host attacked and verified once, the large host attacked."""
    jobs = []
    for i, entry in enumerate(inputs.pool):
        jobs.append({"type": "verify", "locked_path": entry["locked_path"],
                     "activated_path": inputs.small_host,
                     "key": entry["key"]})
        jobs.append({"type": "attack", "locked_path": entry["locked_path"],
                     "activated_path": inputs.small_host, "certify": True,
                     "proof_name": "warm-%d" % i})
    jobs.append({"type": "attack", "locked_path": inputs.large_locked,
                 "activated_path": inputs.large_host, "certify": True,
                 "max_iterations": LARGE_MAX_ITERATIONS,
                 "proof_name": "warm-large"})
    for job in jobs:
        reply = daemon.submit(job)
        if reply.get("status") != "ok":
            raise ServeError("warm-up %s failed: %s" % (job["type"],
                                                         reply.get("error")))


class Client(threading.Thread):
    """One closed-loop client: each job is sent after the previous reply."""

    def __init__(self, index, daemon, inputs, seed, stop_at, trace):
        super().__init__()
        self.index = index
        self.daemon = daemon
        self.inputs = inputs
        self.rng = random.Random(seed * 1009 + index)
        self.turns = {}  # steps of each kind so far: picks the pool entry
        self.stop_at = stop_at
        self.trace = trace
        self.jobs = []
        self.spans = []
        self.keys = []  # (locked bench text or path, key, job) to CEC later
        self.error = None
        self.lock_seed = seed * 100003 + index * 50000

    def run(self):
        try:
            block = list(ROUND)
            while time.monotonic() < self.stop_at:
                self.rng.shuffle(block)
                for kind in block:
                    self.step(kind)
        except Exception as exc:  # reported as a failed run by the caller
            self.error = "%s: %s" % (type(exc).__name__, exc)

    def job(self, kind, body, check):
        traced = self.trace and len(self.jobs) % 2 == 0
        t0 = time.monotonic()
        ok, why, reply = True, "", {}
        try:
            reply = self.daemon.submit(body)
        except (OSError, ServeError, ValueError) as exc:
            ok, why = False, "%s: %s" % (type(exc).__name__, exc)
        t1 = time.monotonic()
        data = reply.get("data", {})
        if ok and reply.get("status") != "ok":
            ok, why = False, "job %s: %s" % (reply.get("status"),
                                             reply.get("error"))
        if ok:
            why = check(data)
            ok = not why
        record = {"kind": kind, "type": body["type"], "ok": ok, "why": why,
                  "start": t0, "end": t1, "latency": t1 - t0,
                  "traced": traced,
                  "request_seconds": reply.get("request_seconds", 0.0),
                  "queue_seconds": reply.get("queue_seconds", 0.0),
                  "run_seconds": reply.get("run_seconds", 0.0), "data": data}
        self.jobs.append(record)
        if traced:
            self.record_spans(record)
        return ok, reply, record

    def record_spans(self, job):
        """Splits the client latency with the fields the API returns:
        the job's own span is transport (its self time); the daemon's
        request time holds the queue wait, the run and the handler."""
        owner = "client-%d-job-%d" % (self.index, len(self.jobs) - 1)
        parent = len(self.spans)
        self.spans.append({"name": "service.job", "start": job["start"],
                           "end": job["end"], "parent": -1, "owner": owner})
        request = job["request_seconds"]
        queue = job["queue_seconds"]
        run = job["run_seconds"]
        for name, seconds in (("runtime.queue", queue),
                              ("job." + job["type"], run),
                              ("service.handler", request - queue - run)):
            self.spans.append({"name": name, "start": -1.0, "end": seconds,
                               "parent": parent, "owner": owner})

    def step(self, kind):
        inputs = self.inputs
        turn = self.turns.get(kind, 0)
        self.turns[kind] = turn + 1
        # Pool entries and flipped bits are taken in turn, not drawn, so
        # the jobs of a round do not depend on the random stream.
        entry = inputs.pool[turn % len(inputs.pool)]
        if kind.startswith("verify"):
            key = entry["key"]
            flip = kind == "verify-flip"
            if flip:
                bits = entry["flip_bits"]
                bit = bits[turn // len(inputs.pool) % len(bits)]
                key = key[:bit] + ("1" if key[bit] == "0" else "0") + key[bit + 1:]
            want = "different" if flip else "equivalent"
            self.job(kind,
                     {"type": "verify", "locked_path": entry["locked_path"],
                      "activated_path": inputs.small_host, "key": key},
                     lambda d: "" if d.get("status") == want
                     else "verify said %s, want %s" % (d.get("status"), want))
        elif kind == "attack-pool":
            self.certified_attack(kind, {"locked_path": entry["locked_path"],
                                         "activated_path": inputs.small_host},
                                  entry["locked_path"])
        elif kind == "attack-fresh":
            self.lock_seed += 1
            ok, _, record = self.job(
                "lock", {"type": "lock", "scheme": "ril",
                         "host_path": inputs.small_host, "blocks": 1,
                         "size": 8, "seed": self.lock_seed},
                lambda d: "" if d.get("locked") and d.get("key")
                else "lock returned no netlist or key")
            if ok:
                locked = record["data"]["locked"]
                self.keys.append((locked, record["data"]["key"], record))
                self.certified_attack(kind, {"locked": locked,
                                             "activated_path": inputs.small_host},
                                      locked)
        else:
            self.certified_attack(kind, {"locked_path": inputs.large_locked,
                                         "activated_path": inputs.large_host,
                                         "max_iterations": LARGE_MAX_ITERATIONS},
                                  None)

    def certified_attack(self, kind, fields, locked):
        capped = locked is None
        want_status = "iteration-limit" if capped else "key-found"
        want_proof = "open" if capped else "valid"
        body = {"type": "attack", "certify": True,
                "proof_name": "client-%d" % self.index}
        body.update(fields)

        def check(d):
            if d.get("status") != want_status or d.get("proof") != want_proof:
                return "attack %s/%s, want %s/%s" % (
                    d.get("status"), d.get("proof"), want_status, want_proof)
            return ""

        ok, reply, record = self.job(kind, body, check)
        if not ok:
            return
        if not capped:
            self.keys.append((locked, record["data"]["key"], record))
        # Closed certificates must check as refutations, open ones as
        # derivations; the certificate file is this client's, so the next
        # attack cannot overwrite it before the check has run.
        self.job("check-proof", {"type": "check-proof", "job": reply["id"],
                                 "open": capped},
                 lambda d: "" if d.get("valid") is True and not d.get("malformed")
                 else "certificate rejected: %s" % d.get("proof_error"))


def renumber(span_lists):
    """Merges per-client span lists into one with global ids."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for span in spans:
            span = dict(span, id=len(merged))
            if span["parent"] != -1:
                span["parent"] += base
            merged.append(span)
    return merged


def cache_counters(stats_json):
    return {name: (stats_json[name]["hits"], stats_json[name]["misses"])
            for name in ("netlist_cache", "skeleton_cache", "verifier_cache")}


def check_keys(harness, workdir, small_host, clients):
    """CECs every distinct recovered or issued key against the activated
    host and fails the job that produced a key that does not unlock."""
    entries = [entry for client in clients for entry in client.keys]
    pairs = sorted({(locked, key) for locked, key, _ in entries})
    lines = []
    for n, (locked, key) in enumerate(pairs):
        path = locked
        if not os.path.isabs(locked):   # inline bench text from a lock job
            path = os.path.join(workdir, "fresh-%d.bench" % n)
            with open(path, "w") as out:
                out.write(locked)
        lines.append("%s\t%s\t%s\n" % (path, small_host, key))
    listing = os.path.join(workdir, "keys.tsv")
    with open(listing, "w") as out:
        out.writelines(lines)
    out = subprocess.run([harness, "check-keys", "--list", listing],
                         check=True, capture_output=True, text=True).stdout
    verdicts = json.loads(out.strip().splitlines()[-1])["verdicts"]
    if len(verdicts) != len(pairs):
        raise ServeError("key check returned %d verdicts for %d keys"
                         % (len(verdicts), len(pairs)))
    bad = {pair for pair, verdict in zip(pairs, verdicts) if verdict != "ok"}
    for locked, key, job in entries:
        if (locked, key) in bad:
            job["ok"], job["why"] = False, "key does not unlock the host"


def run(harness, ril, workdir, seed, seconds, trace):
    """Returns the raw record of one serve-mixed run."""
    setup = []
    daemon = None
    run_dir = None
    try:
        for rep in range(SETUP_REPS):
            if daemon is not None:
                daemon.shutdown()
                daemon = None
                shutil.rmtree(run_dir, ignore_errors=True)
            run_dir = os.path.join(workdir, "serve-%d-%d" % (seed, rep))
            proof_dir = os.path.join(run_dir, "proofs")
            os.makedirs(proof_dir, exist_ok=True)
            t0 = time.monotonic()
            inputs = make_inputs(harness, seed, run_dir)
            daemon = Daemon(ril, run_dir, proof_dir)
            daemon.wait_healthy()
            warm_up(daemon, inputs)
            setup.append(time.monotonic() - t0)

        before = cache_counters(daemon.get_json("/v1/stats"))
        t_start = time.monotonic()
        clients = [Client(i, daemon, inputs, seed, t_start + seconds, trace)
                   for i in range(CLIENTS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        t_end = max([t_start] + [j["end"] for c in clients for j in c.jobs])
        after_json = daemon.get_json("/v1/stats")
        after = cache_counters(after_json)
        peak_rss = daemon.peak_rss_mb()
        daemon.shutdown()
        daemon = None
        errors = [c.error for c in clients if c.error]
        if errors:
            raise ServeError("client failed: " + "; ".join(errors))
        check_keys(harness, run_dir, inputs.small_host, clients)
    finally:
        if daemon is not None:
            daemon.kill()
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)

    cache = {name: {"hits": after[name][0] - before[name][0],
                    "misses": after[name][1] - before[name][1]}
             for name in before}
    return {"workload": "serve-mixed", "setup_s": setup,
            "window": [t_start, t_end], "peak_rss_mb": peak_rss,
            "jobs": [job for client in clients for job in client.jobs],
            "spans": renumber([client.spans for client in clients]),
            "cache": cache,
            "skeleton_bytes": after_json["skeleton_cache"].get("bytes", 0)}
