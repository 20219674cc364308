#!/usr/bin/env python3
"""Benchmark of the SkelCL reproduction on both of its clocks.

    python3 perfbench/run.py --workload osem --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench/ (the harness plus the library under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in child processes under a pinned environment, and prints one JSON
result as the last line of stdout: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  The line before it
carries the details (environment, build, sample counts, failures).

Every child runs under a wall-clock timeout.  A crash, abort, hang,
exception or wrong output counts as a failed op; the remaining time goes to
a fresh child.  See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("osem", "cluster_mix", "service")
# Set-up is repeated this many times per run (fresh processes); setup_s is
# the median over them.
SETUP_SAMPLES = 5
# peak_rss_mb is a child's peak resident memory after this many timed ops,
# so it sees growth across ops but not the length of the run.
RSS_AFTER_OPS = 3
SETUP_TIMEOUT = 120.0  # seconds from spawn to "ready"
OP_TIMEOUT = 60.0  # seconds between two lines of a running child
HARD_LIMIT = 170.0  # seconds a run may take after the build


def pinned_env():
    """The environment every child runs in: one host thread, and no other
    SKELCL_* variable (they select VM tiers, batching, collectives, faults,
    the watchdog and tracing)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SKELCL_")}
    env["SKELCL_THREADS"] = "1"
    return env


# --- statistics -------------------------------------------------------------

def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Linear interpolation between closest ranks; p in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(values):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond
    it, as (p, value); None when there are fewer than 20 samples."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            best = (p, percentile(values, p))
    return best


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles' default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# --- lines of code ----------------------------------------------------------

def count_loc(text):
    """Non-blank, non-comment lines: bench/loc_counter.hpp's rules."""
    count = 0
    in_block = False
    for line in text.splitlines():
        t = line.strip(" \t\r\n")
        if not t:
            continue
        if in_block:
            if "*/" in t:
                in_block = False
            continue
        if t.startswith("//"):
            continue
        if t.startswith("/*"):
            if "*/" not in t:
                in_block = True
            continue
        count += 1
    return count


def loc_per_module():
    modules = {}
    for module in sorted(p for p in (ROOT / "src").iterdir() if p.is_dir()):
        files = [f for f in sorted(module.rglob("*")) if f.suffix in (".cpp", ".hpp")]
        modules["loc." + module.name] = sum(count_loc(f.read_text()) for f in files)
    return modules


# --- build ------------------------------------------------------------------

def build():
    """Configure (once) and build the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "perfbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return build_dir / "perfbench_workload"


# --- children ---------------------------------------------------------------

class Outcome:
    """What one child process delivered before it ended."""

    def __init__(self):
        self.ready = None  # the "ready" line
        self.setup_s = None  # spawn to "ready", wall seconds
        self.ops = []  # "op" lines
        self.layers = None  # "layers" metrics
        self.done = False
        self.error = None  # why the child ended early


def drive(argv, deadline, op_timeout):
    """Runs one child until it ends, goes silent for `op_timeout` seconds,
    or the run's `deadline` passes; a child that overstays is killed."""
    outcome = Outcome()
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=pinned_env(), cwd=ROOT)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    buf = b""
    try:
        while True:
            limit = SETUP_TIMEOUT if outcome.ready is None else op_timeout
            wait = min(limit, deadline - time.monotonic())
            if wait <= 0 or not sel.select(wait):
                outcome.error = "timed out"
                break
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for raw in lines:
                try:
                    event = json.loads(raw)
                except ValueError:
                    event = {"event": "error", "error": f"bad output line {raw[:80]!r}"}
                kind = event.get("event")
                if kind == "ready":
                    outcome.ready = event
                    outcome.setup_s = time.monotonic() - start
                elif kind == "op":
                    outcome.ops.append(event)
                elif kind == "layers":
                    outcome.layers = event["metrics"]
                elif kind == "done":
                    outcome.done = True
                elif kind == "error":
                    outcome.error = event["error"]
    finally:
        sel.close()
        if outcome.error is not None and proc.poll() is None:
            proc.kill()
        try:
            code = proc.wait(timeout=op_timeout)
        except subprocess.TimeoutExpired:
            outcome.error = outcome.error or "hung on exit"
            proc.kill()
            code = proc.wait()
        proc.stdout.close()
    if code != 0 and outcome.error is None:
        outcome.error = f"exit code {code}"
    return outcome


def run_workload(binary, workload, seed, seconds, trace, smoke=False, fault=None,
                 op_timeout=OP_TIMEOUT):
    """One benchmark run.  Returns (result, detail, raw): correct/attempted/
    failed, the details line, and the numbers the metrics are taken from."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT
    base = [str(binary), "--workload", workload, "--seed", str(seed)]
    base += ["--smoke"] if smoke else []
    setups, rss, good, failures = [], [], [], []
    layers, ready = None, None
    attempted = 0

    def note_failure(what):
        nonlocal attempted
        attempted += 1
        failures.append(what)

    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            o = drive(base + ["--mode", "setup"], hard_deadline, op_timeout)
            if o.setup_s is not None:
                setups.append(o.setup_s)
            if o.error is not None:
                note_failure(f"set-up: {o.error}")

    measure_end = time.monotonic() + seconds
    first = True
    while True:
        remaining = max(0.0, measure_end - time.monotonic())
        argv = base + ["--mode", "trace" if trace else "run", "--seconds", f"{remaining:.3f}"]
        if fault and first:  # the fault is injected once, into the first child
            argv += ["--fault", fault]
        first = False
        o = drive(argv, hard_deadline, op_timeout)
        if o.setup_s is not None:
            ready = o.ready
            setups.append(o.setup_s)
        passed = [e for e in o.ops if e["ok"]]
        for event in o.ops:
            if not event["ok"]:
                note_failure(f"op: {event['error']}")
        attempted += len(passed)
        good += passed
        if passed:
            rss.append(passed[min(RSS_AFTER_OPS, len(passed)) - 1]["rss_mb"])
        layers = o.layers or layers
        if o.error is not None or not o.done:
            # the op (or set-up) it died in, or its exit after the last op
            note_failure(f"child: {o.error or 'ended without done'}")
        if o.done:
            break
        now = time.monotonic()
        if now >= measure_end or now >= hard_deadline:
            break

    result = {
        "correct": not failures and bool(good) and (layers is not None or not trace),
        "attempted": attempted,
        "failed": len(failures),
    }
    walls = [e["wall_s"] for e in good]
    detail = {
        "workload": workload,
        "seed": seed,
        "env": {k: v for k, v in pinned_env().items() if k.startswith("SKELCL_")},
        "build_type": ready and ready["build_type"],
        "compiler": ready and ready["compiler"],
        "ops": len(good),
        "failures": failures,
    }
    raw = {
        "wall_s": median(walls) if walls else 0.0,
        "sim_s": median([e["sim_s"] for e in good]) if good else 0.0,
        "setup_s": median(setups) if setups else 0.0,
        "peak_rss_mb": median(rss) if rss else 0.0,
    }
    if walls:
        tail = tail_percentile(walls)
        detail["wall_s"] = {"samples": len(walls), "median": raw["wall_s"],
                            "tail": tail and {"p": tail[0], "value": tail[1]},
                            "spread": spread(walls) if len(walls) > 1 else 0.0}
    detail["setup_samples"] = setups
    if trace:
        raw = dict(layers or {})
        raw.update(loc_per_module())
    return result, detail, raw


def metrics_for(spec, trace, raw):
    """The declared metrics of BENCHMARK.json, in its units."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": raw.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(binary, spec):
    """One short op per workload, untraced and traced, with every check on.
    Also fails when a declared per-layer metric is reported by no workload."""
    ok = True
    seen = set(loc_per_module())
    for workload in WORKLOADS:
        for trace in (False, True):
            result, detail, raw = run_workload(binary, workload, 42, 0, trace, smoke=True)
            if trace:
                seen.update(raw)
            print(f"{workload:12s} trace={int(trace)} {json.dumps(result)}", file=sys.stderr)
            if not result["correct"]:
                print(f"  failures: {detail['failures']}", file=sys.stderr)
                ok = False
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in seen]
    if missing:
        print(f"per-layer metrics no workload reports: {missing}", file=sys.stderr)
        ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one short op per workload with every check on")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        spec = load_spec()
        binary = build()
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke(binary, spec) else 1
    result, detail, raw = run_workload(binary, args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    result["metrics"] = metrics_for(spec, bool(args.trace), raw)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
