#!/usr/bin/env python3
"""Benchmark of the uclt batch commands, end to end and layer by layer.

One run:

    python3 bench/run.py --workload theorem --seed 1 --seconds 25 --trace 0

writes the workload's inputs, made from --seed, to a scratch directory under
.bench_out/, then runs the workload's `uclt` command in a fresh interpreter
per round until --seconds of rounds have passed.  Every round's outputs are
checked (bench/workloads.py) and must be byte-identical to the first
round's.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1
(bench/tracer.py).  Each metric is the median over the run's rounds.

Repeat mode runs that command for --repeat consecutive seeds and prints
each metric's median, quartiles and spread against its bound:

    python3 bench/run.py --workload covering --seed 1 --seconds 25 --repeat 10 [--trace 1]

The program sees only the generated inputs: no --threads flag, and
UCLT_THREADS is removed from its environment, so runs measure the default.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# import-only interpreters per run, after one discarded warm-up; setup_s is
# the median over these and every round's own fresh import
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The environment of every measured interpreter.

    Byte code is cached under .bench_out/pycache for every module, so each
    timed import reads compiled files whatever the caller's
    PYTHONDONTWRITEBYTECODE and whatever stale caches the checkout holds;
    the discarded warm-up import fills the cache.
    """
    env = dict(os.environ)
    env.pop("UCLT_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


def run_child(result: str, cwd: str, args: list[str]) -> dict | None:
    """One fresh interpreter running bench/child.py; None if it left no result."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), result, *args],
                          cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    if not os.path.exists(result):
        return None
    with open(result) as fh:
        return json.load(fh)


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from workloads import WORKLOADS

    make_inputs, check = WORKLOADS[workload]
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        argv = make_inputs(seed, scratch)
        warm = run_child(os.path.join(scratch, "warm.json"), scratch, [])
        if warm is None or not warm["uclt_file"].startswith(SRC + os.sep):
            fail(f"cannot import uclt from {SRC}")
        imports = []
        for k in range(0 if trace else IMPORT_SAMPLES):
            res = run_child(os.path.join(scratch, f"import-{k}.json"), scratch, [])
            if res is None:
                fail("a fresh import of uclt failed")
            imports.append(res["import_s"])

        rounds, spent = [], 0.0
        while not rounds or spent < seconds:
            out = os.path.join(scratch, f"round-{len(rounds)}")
            t0 = time.perf_counter()
            res = run_child(out + ".json", scratch,
                            (["--trace"] if trace else []) + ["--", *argv, "--out", out])
            spent += time.perf_counter() - t0
            rounds.append((res, out))

        attempted, failed, problems, digest, good = len(rounds), 0, [], None, []
        for k, (res, out) in enumerate(rounds):
            if res is None or res["exit_code"] != 0:
                failed += 1
                why = "no result" if res is None else f"exit code {res['exit_code']}"
                print(f"bench: round {k} failed: {why}", file=sys.stderr)
                continue
            good.append(res)
            print(f"bench: round {k}: wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
                  f"import {res['import_s']:.3f} s", file=sys.stderr)
            try:
                problems += [f"round {k}: {p}" for p in check(out, seed)]
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"round {k}: outputs unreadable: {exc!r}")
            d = tree_digest(out)
            if digest is not None and d != digest:
                problems.append(f"round {k}: outputs differ from round 0's")
            digest = digest or d
        for p in problems:
            print(f"bench: {p}", file=sys.stderr)
        if not good:
            fail("every round failed; nothing was measured")

        med = statistics.median
        if trace:
            values = {"setup.import_s": med([r["import_s"] for r in good]),
                      "setup.modules_loaded": med([r["modules_loaded"] for r in good]),
                      "trace.wall_s": med([r["wall_s"] for r in good])}
            for name in good[0]["layers"]:
                values[name] = med([r["layers"][name] for r in good])
            wanted = spec["per_layer"]
        else:
            values = {"setup_s": med(imports + [r["import_s"] for r in good])}
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                values[name] = med([r[name] for r in good])
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def repeat(args, spec: dict) -> None:
    """Run the benchmark for consecutive seeds and summarize every metric."""
    import numpy
    import scipy

    modes = [False, True] if args.trace else [False]
    results = {mode: [] for mode in modes}
    for k in range(args.repeat):
        for mode in modes:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                   "--trace", str(int(mode))]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                fail(f"seed {args.seed + k} exited with {proc.returncode}")
            results[mode].append(json.loads(proc.stdout.strip().splitlines()[-1]))

    print(f"workload {args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1},"
          f" {args.seconds} s each; nproc {os.cpu_count()}, python {sys.version.split()[0]},"
          f" numpy {numpy.__version__}, scipy {scipy.__version__}")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    medians = {}
    for mode in modes:
        runs = results[mode]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{'traced' if mode else 'untraced'}: correct in {sum(r['correct'] for r in runs)}"
              f" of {len(runs)} runs, failed share {shares}, rounds"
              f" {[r['attempted'] for r in runs]}")
        print(f"  {'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (mid, mid, mid)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else
                                             ("  within bound" if spread <= bound else "  OVER"))
            medians[name] = mid
            print(f"  {name:28} {first['unit']:6} {mid:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}"
                  f" {'' if bound is None else bound:>6}{flag}")
    if args.trace:
        print(f"tracing overhead on wall time: {medians['trace.wall_s'] / medians['wall_s'] - 1:+.3%}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many seeds from --seed and summarize")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"{spec_path} is missing")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "uclt", "__init__.py")):
        fail(f"no uclt sources under {SRC}")
    if args.repeat:
        repeat(args, spec)
        return
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)))


if __name__ == "__main__":
    main()
