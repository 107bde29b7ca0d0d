#!/usr/bin/env python3
"""The repository benchmark of the SeMPE simulator.

Builds perfbench/ (the simulator library from src/ plus the benchmark
executable) and runs one workload, checks its outputs and prints its metrics.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --workload micro|djpeg|audit --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --ab OTHER_TREE --workload W [--pairs N]

--trace 0 prints the end-to-end metrics (medians over the sweeps run in
--seconds); --trace 1 prints the per-layer metrics of one traced run.
--self-test runs every workload at seconds-long sizes on two seeds.
--ab measures this tree against another source tree with the same
benchmark code, alternating which side goes first. The workloads, metrics
and the layer map are described in perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("micro", "djpeg", "audit")
BUILD_JOBS = 4
# Set-up is only a few milliseconds, so a run samples it this many extra
# times in processes that stop where the first job would start.
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "wall_s": "s",
    "sim_mips": "MIPS",
    "host_ns_per_instr": "ns",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir_for(tree):
    base = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    if tree == ROOT:
        return base
    return base / "ab" / tree.name


def build(tree):
    """Configure and build the benchmark against `tree`; return the binary."""
    out = build_dir_for(tree)
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release", f"-DSEMPE_ROOT={tree}"],
        ["cmake", "--build", str(out), "--parallel", str(BUILD_JOBS),
         "--target", "perfbench"],
    ]
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return out / "perfbench"


def child(binary, workload, seed, phase, small=False, spans=None):
    """Run one perfbench process; return its result record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--phase", phase]
    if small:
        cmd.append("--small")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic_ns()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} of {workload} timed out")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(p.stderr[-4000:])
        raise BenchError(f"perfbench {phase} of {workload} exited {p.returncode}")
    rec = json.loads(lines[-1])
    # Python's monotonic clock and the child's steady_clock share CLOCK_MONOTONIC.
    rec["setup_s"] = (rec["first_job_ns"] - t0) / 1e9
    rec["report"] = lines[:-1]
    return rec


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_e2e(binary, workload, seed, seconds, small=False):
    """Untraced sweeps, one process each, as many as fit in `seconds` (at
    least one); the median of each metric."""
    setups = [child(binary, workload, seed, "setup", small)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    reps = []
    start = time.monotonic()
    last = 0.0
    while not reps or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        rep = child(binary, workload, seed, "sweep", small)
        last = time.monotonic() - t0
        setups.append(rep["setup_s"])
        reps.append(rep)
    digests = sorted({r["digest"] for r in reps})
    report = list(reps[0]["report"])
    if len(digests) > 1:
        report.append(f"FAIL nondeterministic digest across sweeps: {digests}")
    # A sweep that raised reports zero time and instructions.
    values = {
        "wall_s": [r["wall_s"] for r in reps],
        "sim_mips": [r["instrs"] / max(r["wall_s"], 1e-9) / 1e6 for r in reps],
        "host_ns_per_instr": [r["cpu_s"] * 1e9 / max(r["instrs"], 1)
                              for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_s": setups,
    }
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": sum(r["points"] for r in reps),
        "failed": failed,
        "metrics": {k: metric(statistics.median(v), E2E_UNITS[k])
                    for k, v in values.items()},
    }
    return result, report, digests[0]


def measure_layers(binary, workload, seed, small=False):
    """One traced run: the per-layer metrics and the replay fidelity check."""
    spans_dir = build_dir_for(ROOT) / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    rec = child(binary, workload, seed, "trace", small,
                spans=spans_dir / f"{workload}-seed{seed}.json")
    failed = rec["failed"] + rec["trace_failed"]
    result = {
        "correct": failed == 0,
        # The untraced and the traced sweep each check every point.
        "attempted": 2 * rec["points"] + rec["replay_checks"],
        "failed": failed,
        "metrics": rec["layers"],
    }
    return result, rec["report"]


def run_once(args):
    binary = build(ROOT)
    if args.trace:
        result, report = measure_layers(binary, args.workload, args.seed)
    else:
        result, report, _ = measure_e2e(binary, args.workload, args.seed,
                                        args.seconds)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_ab(args):
    """Interleaved A/B: this tree (A) against --ab (B), same benchmark code."""
    other = Path(args.ab).resolve()
    sides = {"A": build(ROOT), "B": build(other)}
    samples = {"A": {}, "B": {}}
    same_digest = 0
    for k in range(args.pairs):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        digest = {}
        for side in order:
            res, _, digest[side] = measure_e2e(sides[side], args.workload,
                                               args.seed + k, args.seconds)
            if not res["correct"]:
                raise BenchError(f"side {side} failed its correctness gate")
            for name, m in res["metrics"].items():
                samples[side].setdefault(name, []).append(m["value"])
            log(f"pair {k + 1}/{args.pairs} side {side} done")
        same_digest += digest["A"] == digest["B"]
    print(f"A = {ROOT}\nB = {other}\nworkload {args.workload}, "
          f"{args.pairs} pair(s), seeds {args.seed}..{args.seed + args.pairs - 1}")
    # A change meant only to speed the simulator up must keep every
    # simulated statistic, so the digests of a pair must match.
    print(f"identical digests in {same_digest}/{args.pairs} pair(s)")
    with open(ROOT / "BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    print(f"{'metric':<20}{'side':>5}{'q1':>14}{'median':>14}{'q3':>14}"
          f"{'pairs won':>11}")
    for name in E2E_UNITS:
        a, b = samples["A"][name], samples["B"][name]
        sign = 1 if better[name] == "higher" else -1
        won = {"A": sum(sign * (x - y) > 0 for x, y in zip(a, b)),
               "B": sum(sign * (y - x) > 0 for x, y in zip(a, b))}
        for side in ("A", "B"):
            q1, med, q3 = quartiles(samples[side][name])
            print(f"{name:<20}{side:>5}{q1:>14.6g}{med:>14.6g}{q3:>14.6g}"
                  f"{won[side]:>7}/{args.pairs}")
    return 0


def run_self_test():
    """Seconds-long sizes of every workload, on a tuning seed and a held-out
    one: the correctness gates, the replay fidelity check and the printer."""
    binary = build(ROOT)
    with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def check(result, want, what):
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{what}: correctness gate failed")
        if result["attempted"] < 1:
            problems.append(f"{what}: nothing attempted")
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{what}: metrics {sorted(set(got) ^ set(want))} "
                            "missing, extra or with another unit")

    for seed in (1, 9):  # 9 is held out: never used while tuning
        for workload in WORKLOADS:
            # Several sweeps where they fit, so their digests are compared.
            e2e, _, _ = measure_e2e(binary, workload, seed, 3, small=True)
            check(e2e, want_e2e, f"{workload} seed {seed} --trace 0")
            for name, m in e2e["metrics"].items():
                if not m["value"] > 0:
                    problems.append(f"{workload} seed {seed}: {name} is not > 0")
            layers, _ = measure_layers(binary, workload, seed, small=True)
            check(layers, want_layers, f"{workload} seed {seed} --trace 1")
            log(f"self-test: {workload} seed {seed} done")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--ab", metavar="OTHER_TREE")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    try:
        if args.self_test:
            return run_self_test()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 0:
            ap.error("--seed must be >= 0")
        if args.ab:
            return run_ab(args)
        return run_once(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
