#!/usr/bin/env python3
"""NDA-Sim benchmark driver.

    python3 perfbench/run.py --workload smoke-grid --seed 1 --seconds 30 --trace 0

Builds the simulator library and the benchmark worker from source into
.bench_build/perfbench, runs the workload's units round-robin in fresh
worker processes for --seconds, checks every output, and prints a host
fingerprint line, then one JSON result line. --trace 0 reports the
end-to-end metrics; --trace 1 runs every unit untraced and traced in
turn, reports the per-layer metrics and the tracing overhead, and writes
the spans to .bench_build/perfbench/trace-<workload>-s<seed>.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import estimator  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKER = BUILD_DIR / "perfbench_worker"
UNIT_TIMEOUT_S = 120
BUILD_JOBS = 4


class BenchError(Exception):
    """The benchmark cannot produce a result (no sources, build failed)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the worker; the build log goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(BUILD_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def spawn(args):
    """Run one worker; returns (result, None) or (None, error)."""
    start_ns = time.monotonic_ns()
    proc = subprocess.Popen([str(WORKER), *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {UNIT_TIMEOUT_S}s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return None, f"worker exited {proc.returncode}: {tail[0]}"
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "worker printed no result line"
    if "ready_ns" in res:
        res["setup_ns"] = res["ready_ns"] - start_ns
    return res, None


def _first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except OSError:
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def host_fingerprint():
    """CPU model, nproc, compiler, build type and source revision."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    # Only this checkout's own history counts, not an enclosing repo's.
    top = _first_line(["git", "rev-parse", "--show-toplevel"])
    revision = None
    if top and Path(top).resolve() == ROOT:
        revision = _first_line(["git", "describe", "--always", "--dirty",
                                "--tags"])
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": _first_line([compiler, "--version"]) or compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_describe": revision or "unknown (not a git checkout)",
    }


def probe_ns():
    """One host-speed probe reading (see FastStretchGate), or None."""
    res, err = spawn(["probe"])
    return None if err is not None else res["unit_ns"]


def run_workload(wl, seconds, trace, scratch):
    """Run `wl` round-robin for `seconds`; returns the raw measurements."""
    tally = estimator.Tally()
    times = defaultdict(list)        # unit key -> untraced unit seconds
    setup_times = defaultdict(list)  # set-up unit key -> unit seconds
    ready = []                       # worker start -> unit ready, seconds
    heap_bytes = []
    traced = defaultdict(list)       # unit key -> traced results

    gate = estimator.FastStretchGate(probe_ns)

    def call(unit, is_traced, corpus):
        gate.wait()
        res, err = spawn(unit.argv(is_traced, corpus))
        if err is None:
            err = wl.check(unit, res)
        label = f"{unit.key}{' (traced)' if is_traced else ''}"
        if not tally.record(label, err):
            return
        if is_traced:
            traced[unit.key].append(res)
            return
        ready.append(res["setup_ns"] / 1e9)
        heap_bytes.append(res["heap_peak_bytes"])
        (setup_times if unit.setup else times)[unit.key].append(
            res["unit_ns"] / 1e9)

    def fresh_corpus():
        return tempfile.mkdtemp(prefix="corpus-", dir=scratch)

    def one_round(over):
        corpus = fresh_corpus() if wl.needs_corpus else None
        for unit in wl.setup_units:
            call(unit, False, corpus)
        if trace and wl.setup_units:
            # The traced write path needs a cold corpus of its own.
            cold = fresh_corpus()
            for unit in wl.setup_units:
                call(unit, True, cold)
            shutil.rmtree(cold)
        for unit in wl.units:
            if over():
                break
            call(unit, False, corpus)
            if trace:
                call(unit, True, corpus)
        if corpus:
            shutil.rmtree(corpus)

    wl.prepare(spawn, tally)
    rounds = estimator.run_rounds(one_round, seconds)
    return {
        "tally": tally, "times": times, "setup_times": setup_times,
        "ready": ready, "heap_bytes": heap_bytes, "traced": traced,
        "rounds": rounds, "probe_best_ms": gate.best_ns / 1e6,
        "gate_wait_s": gate.waited,
    }


def end_to_end(m):
    """The end-to-end metrics: best-of estimates over the run."""
    setup = min(m["ready"]) + estimator.sum_of_best(m["setup_times"])
    return {
        "pass_s": (estimator.sum_of_best(m["times"]), "s"),
        "setup_s": (setup, "s"),
        "peak_heap_mb": (max(m["heap_bytes"]) / 1e6, "MB"),
    }


def trace_file(wl, m, host):
    """Chrome trace-event JSON of the fastest traced repetitions."""
    events = []
    for pid, (key, reps) in enumerate(sorted(m["traced"].items())):
        res = layers.fastest(reps)
        base = res["spans"][0][1]
        for span in res["spans"]:
            events.append({
                "name": span[0], "ph": "X", "pid": pid, "tid": 0,
                "ts": (span[1] - base) / 1e3,
                "dur": (span[2] - span[1]) / 1e3,
                "args": {"unit": key, "parent": span[3]},
            })
    path = BUILD_DIR / f"trace-{wl.name}-s{wl.seed}.json"
    path.write_text(json.dumps({"traceEvents": events,
                                "otherData": {"host": host}}))
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 1:
        ap.error("--seed must be >= 1")

    # A terminated run still removes its corpus (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
    except BenchError as e:
        log(str(e))
        return 1
    res, err = spawn(["list"])
    if err is not None:
        log(f"worker unusable: {err}")
        return 1
    wl = workloads.WORKLOADS[args.workload](res, args.seed, ROOT)

    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    try:
        m = run_workload(wl, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    host = host_fingerprint()
    print(json.dumps({"host": host, "workload": wl.name, "seed": wl.seed,
                      "rounds": m["rounds"],
                      "probe_best_ms": m["probe_best_ms"],
                      "gate_wait_s": round(m["gate_wait_s"], 3)}))
    for reason in m["tally"].reasons[:20]:
        log(f"FAILED {reason}")
    if not m["times"] or not m["ready"]:
        log("no unit completed")
        return 1
    metrics = end_to_end(m)
    if args.trace:
        pass_s = metrics["pass_s"][0]
        keys = {u.key for u in wl.units}
        traced = m["traced"]
        metrics = layers.per_layer(
            [reps for k, reps in traced.items() if k in keys],
            [reps for k, reps in traced.items() if k not in keys],
            pass_s, wl.events)
        log(f"spans written to {trace_file(wl, m, host)}")
    tally = m["tally"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
