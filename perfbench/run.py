#!/usr/bin/env python3
"""End-to-end benchmark for the Streamline simulator, its result store and
its experiment daemon, timed from outside the program.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload channel --seed 1 --seconds 10 --trace 0

The script builds cmd/streamline, cmd/sweep and cmd/streamlined from source
into .bench_build/ (the Go build cache lives there too), sets the workload
up, repeats whole passes of operations for --seconds, checks every output,
and prints one JSON object as the last line of stdout. A human-readable
report goes to stderr. See perfbench/README.md for the workloads and the
metrics.
"""

import argparse
import functools
import http.client
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
WORK = os.path.join(BUILD, "work")
TRACES = os.path.join(BUILD, "traces")

# Experiments every sweep and daemon pass runs (all with -quick). Each one
# reaches a different reuse layer: table1 is many tiny runs, fig7 is long
# unchained channel runs, fig9 is a chained payload ladder (checkpoint
# forks), asyncpp is attack-backed (Out-level cache), smt is the L2
# variant on its own machine config.
SWEEP_EXPS = ["table1", "fig7", "fig9", "asyncpp", "smt"]

# Channel runs per pass: three payload seeds of CHANNEL_BITS bits each.
CHANNEL_SEEDS = 3
CHANNEL_BITS = 500000

# Set-up is repeated at least SETUPS_MIN and at most SETUPS_MAX times per
# run, stopping once SETUP_BUDGET_S seconds have gone into it, and its
# median is reported: cheap set-ups get more samples, costly ones fewer.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 7, 5.0

PROGRESS_RE = re.compile(r"^\[\d+/\d+\] .* done \(")
STORE_RE = re.compile(r"^\[store: (\d+) hits, (\d+) misses, (\d+) entries")
KEY_RE = re.compile(r"^[0-9a-f]{32}$")


class BenchError(Exception):
    """The program could not be built or started: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter_ns()


# ---------------------------------------------------------------- tracing


class Trace:
    """In-memory span recorder. Spans are opened and closed by the benchmark
    around each call into the program, so every span is timed from outside.
    When off, every method returns after one attribute check."""

    def __init__(self, on):
        self.on = on
        self.events = []
        self.stack = []

    def begin(self, name, **args):
        if self.on:
            self.stack.append((name, now(), args))

    def end(self, t_end=None):
        if not self.on:
            return
        name, start, args = self.stack.pop()
        self.mark(name, start, now() if t_end is None else t_end, **args)

    def mark(self, name, start, end, **args):
        """Records a finished span whose bounds were observed elsewhere,
        such as the arrival times of a child process's output lines."""
        if self.on:
            self.events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "args": args, "depth": len(self.stack),
            })

    def self_times_ms(self):
        """Self time per span name: each span's duration minus the part of
        it that its direct children cover."""
        events = sorted(self.events, key=lambda e: (e["ts"], e["depth"]))
        child = [0.0] * len(events)
        open_ = []
        for i, e in enumerate(events):
            while open_ and events[open_[-1]]["ts"] + events[open_[-1]]["dur"] <= e["ts"]:
                open_.pop()
            while open_ and events[open_[-1]]["depth"] >= e["depth"]:
                open_.pop()
            if open_:
                child[open_[-1]] += e["dur"]
            open_.append(i)
        out = {}
        for i, e in enumerate(events):
            out[e["name"]] = out.get(e["name"], 0.0) + max(0.0, e["dur"] - child[i]) / 1000.0
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": [{k: v for k, v in e.items() if k != "depth"}
                                       for e in self.events],
                       "displayTimeUnit": "ms"}, f)


# ---------------------------------------------------------------- build


def child_env():
    """Environment for the Go toolchain and the programs: every cache,
    temporary and config directory points inside .bench_build."""
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = "-mod=readonly"
    return env


def build(env):
    os.makedirs(BIN, exist_ok=True)
    cmd = ["go", "build", "-trimpath", "-buildvcs=false", "-o", BIN + os.sep,
           "./cmd/streamline", "./cmd/sweep", "./cmd/streamlined"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build: {e}")
    if r.returncode != 0:
        raise BenchError(f"build failed:\n{r.stderr.strip()}")


def binary(name):
    return os.path.join(BIN, name)


# ---------------------------------------------------------------- processes


def run_cli(args, env, trace, kind):
    """Runs one CLI operation, timestamping each stderr line as it arrives.
    Returns (latency_ns, returncode, stdout, stderr_lines). In trace mode
    the per-run progress lines become child spans of the process span."""
    trace.begin("process", kind=kind)
    t0 = now()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=WORK)
    lines = []
    stamps = []
    try:
        for raw in p.stderr:
            stamps.append(now())
            lines.append(raw.decode(errors="replace").rstrip("\n"))
        out = p.stdout.read()
        p.wait()
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        p.stdout.close()
        p.stderr.close()
    t1 = now()
    if trace.on:
        prev = t0
        for line, ts in zip(lines, stamps):
            if PROGRESS_RE.match(line):
                served = "store" if line.endswith("[hit]") else "simulate"
                trace.mark("run:" + served, prev, ts)
                prev = ts
    trace.end(t1)
    return t1 - t0, p.returncode, out, lines


def noop_ns(args, env, trace):
    """Wall time of a program invocation that does no work: the process
    layer (exec, runtime start, package init, flag parsing, exit)."""
    trace.begin("probe:process")
    t0 = now()
    r = subprocess.run(args, capture_output=True, env=env, cwd=WORK)
    t1 = now()
    trace.end(t1)
    if r.returncode not in (0, 2):
        raise RuntimeError(f"{args[0]} probe exited {r.returncode}")
    return t1 - t0


def store_line(lines):
    for line in lines:
        m = STORE_RE.match(line)
        if m:
            return int(m.group(1)), int(m.group(2)), int(m.group(3))
    return None


def count_runs(lines):
    return sum(1 for line in lines if PROGRESS_RE.match(line))


# ---------------------------------------------------------------- daemon


class Daemon:
    """A streamlined process on a loopback port with its own store."""

    def __init__(self, env, store):
        self.proc = None
        self.conn = None
        last = None
        for _ in range(5):
            port = free_port()
            logf = open(store + ".log", "wb")
            self.proc = subprocess.Popen(
                [binary("streamlined"), "-listen", f"127.0.0.1:{port}",
                 "-store", store, "-jobs", "1"],
                stdout=logf, stderr=logf, env=env, cwd=WORK)
            logf.close()
            self.port = port
            try:
                self.wait_ready()
                return
            except BenchError as e:
                last = e
                self.stop()
            except BaseException:
                self.stop()
                raise
        raise BenchError(f"daemon did not start: {last}")

    def wait_ready(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited {self.proc.returncode}")
            try:
                self.request("GET", "/store/stats")
                return
            except (OSError, http.client.HTTPException):
                self.close_conn()
                time.sleep(0.01)
        raise BenchError("daemon not ready after 30s")

    def close_conn(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def request(self, method, path, body=None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        payload = resp.read()
        if resp.status >= 300:
            raise RuntimeError(f"{method} {path}: HTTP {resp.status}: {payload[:200]!r}")
        return payload

    def stats(self):
        return json.loads(self.request("GET", "/store/stats"))

    def job(self, req, trace, kind):
        """One job round trip: submit, follow the progress stream to EOF,
        fetch the final status. Returns (latency_ns, status)."""
        trace.begin("op", kind=kind)
        t0 = now()
        trace.begin("http:submit")
        ack = json.loads(self.request("POST", "/jobs", req))
        trace.end()
        trace.begin("http:progress")
        self.request("GET", f"/jobs/{ack['id']}/progress")
        trace.end()
        trace.begin("http:status")
        st = json.loads(self.request("GET", f"/jobs/{ack['id']}"))
        t1 = now()
        trace.end(t1)
        trace.end(t1)
        return t1 - t0, st

    def stop(self):
        self.close_conn()
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def store_keys(store):
    keys = []
    for sub in sorted(os.listdir(store)):
        d = os.path.join(store, sub)
        if os.path.isdir(d):
            keys.extend(name for name in sorted(os.listdir(d)) if KEY_RE.match(name))
    return keys


# ---------------------------------------------------------------- workloads


class Run:
    """Collects per-kind latencies, failures, counts and the set-up times of
    one benchmark run."""

    def __init__(self, trace):
        self.trace = trace
        self.lat = {}          # kind -> [ns]
        self.per_pass = {}     # kind -> operations of that kind per pass
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setups = []       # seconds
        self.transport = []    # ns
        self.passes = 0
        self.counts = {"runs": 0, "sims": 0, "store_hits": 0, "store_writes": 0}

    def record(self, kind, ns):
        self.lat.setdefault(kind, []).append(ns)

    def fail(self, msg):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(msg)

    def pass_ms(self, exclude=()):
        """Expected time of one pass: for each kind of operation, its
        median latency times how often a pass performs it."""
        return sum(statistics.median(v) * self.per_pass[k]
                   for k, v in self.lat.items() if k not in exclude) / 1e6


def timed_setups(run, fn):
    """Runs the set-up repeatedly, recording each wall time, and returns
    the last set-up's result: the state the measured passes start from."""
    while True:
        run.trace.begin("setup")
        t0 = now()
        result = fn()
        t1 = now()
        run.trace.end(t1)
        run.setups.append((t1 - t0) / 1e9)
        n = len(run.setups)
        if n >= SETUPS_MAX or (n >= SETUPS_MIN and sum(run.setups) >= SETUP_BUDGET_S):
            return result


def workload_channel(run, rng, seconds, env):
    seeds = [rng.randrange(1, 1 << 31) for _ in range(CHANNEL_SEEDS)]

    def setup():
        # Warm-up: one untimed transmission of full size pages the binary
        # in and proves it runs before anything is timed.
        r = subprocess.run([binary("streamline"), "-payload", str(CHANNEL_BITS), "-seed", str(seeds[0])],
                           capture_output=True, env=env, cwd=WORK)
        if r.returncode != 0:
            raise BenchError(f"streamline warm-up exited {r.returncode}: {r.stderr[:300]!r}")

    timed_setups(run, setup)

    first = {}
    deadline = now() + seconds * 10**9
    while run.passes == 0 or now() < deadline:
        for i, s in enumerate(seeds):
            kind = f"channel:{i}"
            run.per_pass[kind] = 1
            run.attempted += 1
            ns, rc, out, lines = run_cli(
                [binary("streamline"), "-payload", str(CHANNEL_BITS), "-seed", str(s)],
                env, run.trace, kind)
            if run.trace.on:
                run.transport.append(noop_ns([binary("streamline"), "-noise", "list"], env, run.trace))
            err = check_channel(out, rc, first.setdefault(kind, out))
            if err:
                run.fail(f"{kind} seed {s}: {err}")
                continue
            run.record(kind, ns)
            run.counts["runs"] += 1
            run.counts["sims"] += 1
        run.passes += 1


def check_channel(out, rc, reference):
    if rc != 0:
        return f"exit {rc}"
    if out != reference:
        return "output differs from the first run of the same seed"
    text = out.decode()
    m = re.search(r"^payload:\s+(\d+) bits \((\d+) on the channel\)", text, re.M)
    if not m or int(m.group(1)) != CHANNEL_BITS:
        return "payload line missing or wrong size"
    channel_bits = int(m.group(2))
    m = re.search(r"^bit-error-rate:\s+([\d.]+)%", text, re.M)
    if not m or float(m.group(1)) >= 5.0:
        return "bit-error-rate missing or not below 5%"
    m = re.search(r"^bit-rate:\s+(\d+) KB/s", text, re.M)
    if not m or int(m.group(1)) <= 0:
        return "bit-rate missing or zero"
    m = re.search(r"^receiver levels:\s+L1=(\d+) L2=(\d+) LLC=(\d+) DRAM=(\d+)", text, re.M)
    if not m or sum(int(g) for g in m.groups()) != channel_bits:
        return "receiver levels do not add up to the channel bits"
    return None


def sweep_args(exp, seed, store):
    return [binary("sweep"), "-exp", exp, "-quick", "-workers", "1",
            "-seed", str(seed), "-store", store]


def cold_fill(env, seed, store):
    """Runs every sweep experiment once into an empty store and returns
    the stdout of each, the reference a warm read must reproduce."""
    ref = {}
    for exp in SWEEP_EXPS:
        r = subprocess.run(sweep_args(exp, seed, store), capture_output=True, env=env, cwd=WORK)
        if r.returncode != 0:
            raise BenchError(f"sweep {exp} exited {r.returncode}: {r.stderr[-300:]!r}")
        ref[exp] = r.stdout
    return ref


def workload_sweep(run, rng, seconds, env, warm):
    seed = rng.randrange(1, 1 << 31)
    base = os.path.join(WORK, "warm" if warm else "cold")

    def setup():
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        if warm:
            return cold_fill(env, seed, os.path.join(base, "store"))
        # A cold op needs nothing but an empty store. The warm-up sweep
        # pages the binary in; smt is chosen because it is short, bound by
        # CPU, and writes only two entries, so disk noise stays out.
        r = subprocess.run(sweep_args("smt", seed, os.path.join(base, "warmup")),
                           capture_output=True, env=env, cwd=WORK)
        if r.returncode != 0:
            raise BenchError(f"sweep warm-up exited {r.returncode}: {r.stderr[-300:]!r}")
        return None

    ref = timed_setups(run, setup) or {}

    deadline = now() + seconds * 10**9
    while run.passes == 0 or now() < deadline:
        for exp in SWEEP_EXPS:
            kind = f"sweep:{exp}"
            run.per_pass[kind] = 1
            run.attempted += 1
            store = os.path.join(base, "store" if warm else f"p{run.passes}-{exp}")
            ns, rc, out, lines = run_cli(sweep_args(exp, seed, store), env, run.trace, kind)
            if run.trace.on:
                run.transport.append(noop_ns([binary("sweep"), "-list"], env, run.trace))
            counts = store_line(lines)
            err = None
            if rc != 0:
                err = f"exit {rc}"
            elif counts is None:
                err = "no store line on stderr"
            elif out != ref.setdefault(exp, out):
                err = "tables differ from the reference sweep"
            elif warm and counts[1] != 0:
                err = f"warm sweep missed the store {counts[1]} times"
            elif not warm and counts[0] != 0:
                err = f"cold sweep hit an empty store {counts[0]} times"
            if not warm:
                shutil.rmtree(store, ignore_errors=True)
            if err:
                run.fail(f"{kind}: {err}")
                continue
            run.record(kind, ns)
            runs = count_runs(lines)
            run.counts["runs"] += runs
            run.counts["store_hits"] += counts[0]
            run.counts["sims"] += runs - counts[0]
            if not warm:
                run.counts["store_writes"] += counts[2]
        run.passes += 1


def workload_daemon(run, rng, seconds, env):
    seed = rng.randrange(1, 1 << 31)
    base = os.path.join(WORK, "daemon")
    state = {}

    def setup():
        if "daemon" in state:
            state.pop("daemon").stop()
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        store = os.path.join(base, "store")
        d = Daemon(env, store)
        state["daemon"] = d
        ref = {}
        for exp in SWEEP_EXPS:
            _, st = d.job({"exp": exp, "seed": seed, "quick": True, "workers": 1},
                          run.trace, f"fill:{exp}")
            if st.get("state") != "done":
                raise BenchError(f"daemon fill job {exp}: {st.get('state')} {st.get('error')}")
            ref[exp] = st["table"]
        keys = store_keys(store)
        if not keys:
            raise BenchError("daemon fill wrote no store entries")
        rng_keys = random.Random(seed)
        rng_keys.shuffle(keys)
        entries = {}
        for k in keys:
            with open(os.path.join(store, k[:2], k), "rb") as f:
                entries[k] = f.read()
        state.update(ref=ref, keys=keys, entries=entries)

    try:
        timed_setups(run, setup)
        d, ref, keys, entries = state["daemon"], state["ref"], state["keys"], state["entries"]
        before = d.stats()
        deadline = now() + seconds * 10**9
        while run.passes == 0 or now() < deadline:
            for exp in SWEEP_EXPS:
                kind = f"job:{exp}"
                run.per_pass[kind] = 1
                run.attempted += 1
                try:
                    ns, st = d.job({"exp": exp, "seed": seed, "quick": True, "workers": 1},
                                   run.trace, kind)
                except (OSError, RuntimeError, http.client.HTTPException) as e:
                    d.close_conn()
                    run.fail(f"{kind}: {e}")
                    continue
                if st.get("state") != "done" or st.get("table") != ref[exp]:
                    run.fail(f"{kind}: state {st.get('state')}, table differs from the cold job")
                    continue
                run.record(kind, ns)
                run.counts["runs"] += len(st.get("progress") or [])
            run.per_pass["result"] = len(keys)
            for k in keys:
                run.attempted += 1
                run.trace.begin("op", kind="result")
                t0 = now()
                try:
                    body = d.request("GET", f"/results/{k}")
                except (OSError, RuntimeError, http.client.HTTPException) as e:
                    run.trace.end()
                    d.close_conn()
                    run.fail(f"result {k}: {e}")
                    continue
                t1 = now()
                run.trace.end(t1)
                if not body or not entries[k].endswith(body):
                    run.fail(f"result {k}: body is not the stored entry's payload")
                    continue
                run.record("result", t1 - t0)
            if run.trace.on:
                run.trace.begin("probe:http")
                t0 = now()
                d.request("GET", "/store/stats")
                t1 = now()
                run.trace.end(t1)
                run.transport.append(t1 - t0)
            run.passes += 1
        after = d.stats()
        run.counts["store_hits"] = after["store"]["Hits"] - before["store"]["Hits"]
        run.counts["sims"] = after["run"]["Sims"] - before["run"]["Sims"]
        run.counts["store_writes"] = after["store"]["Writes"] - before["store"]["Writes"]
        if after["store"]["Misses"] != before["store"]["Misses"]:
            run.fail(f"warm daemon missed the store {after['store']['Misses'] - before['store']['Misses']} times")
    finally:
        if "daemon" in state:
            state.pop("daemon").stop()


WORKLOADS = {
    "channel": workload_channel,
    "sweep-cold": functools.partial(workload_sweep, warm=False),
    "sweep-warm": functools.partial(workload_sweep, warm=True),
    "daemon": workload_daemon,
}


# ---------------------------------------------------------------- report


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(run, workload, seed):
    log(f"perfbench {workload} seed {seed}: {run.passes} passes, "
        f"{run.attempted} operations, {run.failed} failed")
    for kind in sorted(run.lat):
        v = sorted(run.lat[kind])
        q = statistics.quantiles(v, n=10, method="inclusive") if len(v) >= 2 else [v[0]] * 9
        log(f"  {kind:24s} n={len(v):6d} median {statistics.median(v) / 1e6:10.3f} ms"
            f"  p90 {q[8] / 1e6:10.3f} ms  max {v[-1] / 1e6:10.3f} ms  x{run.per_pass[kind]}/pass")
    log(f"  set-up: {', '.join(f'{s:.3f}s' for s in run.setups)}")
    for e in run.errors:
        log(f"  FAILED: {e}")


def ledger(run):
    """Per-layer numbers. Transport is the cost of reaching the program
    with no work: a no-op process for the CLI workloads, a /store/stats
    round trip for the daemon. Service is the rest of a pass. run_ms is
    the service time of the operations that execute runs (every kind but
    the daemon's raw result reads) divided by the runs a pass completes."""
    transport_ms = statistics.median(run.transport) / 1e6
    ops = sum(run.per_pass.values())
    service_ms = run.pass_ms() - transport_ms * ops
    run_ops = ops - run.per_pass.get("result", 0)
    run_service_ms = run.pass_ms(exclude=("result",)) - transport_ms * run_ops
    per_pass = {k: v / run.passes for k, v in run.counts.items()}
    return {
        "transport_ms": metric(transport_ms, "ms"),
        "service_ms": metric(service_ms, "ms"),
        "run_ms": metric(run_service_ms / per_pass["runs"], "ms"),
        "runs": metric(per_pass["runs"], "count"),
        "sims": metric(per_pass["sims"], "count"),
        "store_hits": metric(per_pass["store_hits"], "count"),
        "store_writes": metric(per_pass["store_writes"], "count"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    trace = Trace(args.trace == 1)
    run = Run(trace)
    try:
        env = child_env()
        build(env)
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        WORKLOADS[args.workload](run, random.Random(args.seed), args.seconds, env)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    report(run, args.workload, args.seed)
    if not run.lat:
        log("perfbench: no operation succeeded")
        return 1
    if trace.on:
        metrics = ledger(run)
        path = os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json")
        trace.write(path)
        self_ms = trace.self_times_ms()
        log(f"  trace: {path}")
        for name in sorted(self_ms, key=self_ms.get, reverse=True):
            log(f"    self {name:20s} {self_ms[name]:12.3f} ms")
    else:
        metrics = {
            "pass_ms": metric(run.pass_ms(), "ms"),
            "setup_s": metric(statistics.median(run.setups), "s"),
        }
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
