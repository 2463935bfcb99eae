"""Benchmark of the relbosons CLI: one workload per invocation.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload gamma_sweep --seed 1 --seconds 20 --trace 0

It times set-up in fresh interpreters, runs the workload's operations in
a worker process (``worker.py``) for about ``--seconds``, checks every
output against the independent references of ``checks.py``, and prints
as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones.  Problems found by the checks go to
standard error.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from workloads import SHELL_RADIUS, WORKLOADS, operations  # noqa: E402

OUT_ROOT = ".bench_out"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 150.0
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import relbosons.cli; relbosons.cli.build_parser()")

# layers reported with their time and self time under --trace 1
LAYERS = [
    "cli.run", "cli.write",
    "eigensolver.shooting", "eigensolver.fd", "numkernel.tridiag_ground",
    "potentials.effective_potential",
    "kg_fields.packet_fields", "kg_fields.state_fields",
    "variational.minimize_transverse", "numkernel.minimize",
    "variational.dispersion_pair", "variational.separation_oracle",
    "variational.check_connection", "verify.run_verify",
]


# ----------------------------------------------------------------------
# set-up time, measured in fresh interpreters
# ----------------------------------------------------------------------

def time_setup(repeats: int) -> float:
    """Median seconds from starting an interpreter to a built parser."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in a -X importtime log."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total_us = 0
    ancestors = []  # children are logged before their parent, deeper
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1e6


def time_scipy_import(repeats: int) -> float:
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import sys; sys.path.insert(0, 'src'); import relbosons"],
            check=True, timeout=60, capture_output=True, text=True)
        times.append(scipy_import_seconds(proc.stderr))
    return statistics.median(times)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def check_operation(op, record, out_dir, seed: int) -> list:
    """Problems with one operation's pass-0 outputs (empty if correct)."""
    argv = op.argv(out_dir)
    command = argv[0]
    if command == "gamma":
        path = op.path(out_dir, "--out")
        spin = int(argv[argv.index("--spin") + 1])
        text = _read(path)
        rows = (checks.parse_gamma_json(json.loads(text)) if path.endswith(".json")
                else checks.parse_gamma_csv(text))
        problems = [f"spin {spin} d = {d}: method {m}" for d, _, m in rows
                    if m != "shooting"]
        ref = {d: checks.reference_gamma(spin, d) for d, _, _ in rows}
        return problems + checks.check_gamma_curve(spin, [(d, g) for d, g, _ in rows], ref)

    if command == "density":
        profile_name = argv[argv.index("--profile") + 1] if "--profile" in argv else "cosine"
        profile = (checks.cosine_profile(1.0) if profile_name == "cosine"
                   else checks.gaussian_profile(1.0))
        radii, rho, eps = checks.parse_density_csv(_read(op.path(out_dir, "--out")))
        problems = []
        if "did not settle" in record["stderr"]:
            problems.append(f"density: {record['stderr'].strip()}")
        # r = 0.98 in the shell, four radii where the packet is large and
        # three anywhere on the grid
        rng = random.Random(seed)
        samples = ([int(round(SHELL_RADIUS / 0.01)) - 1] + rng.sample(range(300), 4)
                   + rng.sample(range(len(radii)), 3))
        # the operations keep the CLI's packet defaults m = 1, a = 0.5, t = 0.05
        refs = [checks.reference_density(float(radii[i]), 1.0, 0.5, 0.05, profile)
                for i in samples]
        problems += checks.check_density_profile(radii, rho, eps, samples, refs)
        if "--shells-out" in argv:
            shells = json.loads(_read(op.path(out_dir, "--shells-out")))
            problems += checks.check_shell_contains(shells, SHELL_RADIUS)
        if "--map-out" in argv:
            lines = _read(op.path(out_dir, "--map-out")).splitlines()
            if lines[0] != "x,z,rho" or len(lines) != 1 + 121 * 121:
                problems.append(f"density map: header {lines[0]!r}, {len(lines) - 1} rows")
        return problems

    if command == "rayleigh":
        return checks.check_transverse(json.loads(_read(op.path(out_dir, "--out"))))

    if command == "verify":
        return checks.check_verify_report(record["exit_code"], record["stdout"])

    return [f"no check for {command}"]


def tally(ops, passes, out_dir, seed: int):
    """(correct, attempted, failed) over every operation of every pass.

    An operation fails when it exits nonzero or its output is wrong.  A
    wrong output with exit code 0 makes the run incorrect, except on the
    operations marked ``known_fault``.  Every pass must reproduce pass 0
    byte for byte.
    """
    correct = True
    first = {r["name"]: r for r in passes[0]["ops"]}
    failing = set()
    for op in ops:
        record = first[op.name]
        if record["exit_code"] != 0:
            failing.add(op.name)
            print(f"{op.name}: exit code {record['exit_code']}: "
                  f"{record['stderr'].strip()}", file=sys.stderr)
            continue
        try:
            problems = check_operation(op, record, out_dir, seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failing.add(op.name)
            correct = correct and op.known_fault
        for problem in problems:
            label = "known fault" if op.known_fault else "WRONG"
            print(f"{op.name}: {label}: {problem}", file=sys.stderr)
    attempted = failed = 0
    for k, p in enumerate(passes):
        for r in p["ops"]:
            attempted += 1
            if r["digest"] != first[r["name"]]["digest"]:
                print(f"{r['name']}: pass {k} differs from pass 0", file=sys.stderr)
                correct = False
                failed += 1
            elif r["name"] in failing:
                failed += 1
    return correct, attempted, failed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(result, setup_s):
    passes = result["passes"]
    return {
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mib": _metric(result["peak_rss_mib"], "MiB"),
        "setup_s": _metric(setup_s, "s"),
    }


def _per_layer_pass(p):
    layers, counts = p["layers"], p["counts"]

    def time_of(layer, index=0):
        return layers[layer][index] if layer in layers else 0.0

    def calls(layer):
        return layers[layer][2] if layer in layers else 0

    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = (time_of(layer), "s")
        out[f"{layer}_self_s"] = (time_of(layer, 1), "s")
    shooting = calls("eigensolver.shooting")
    minimize = calls("numkernel.minimize")
    packet_s = time_of("kg_fields.packet_fields")
    out.update({
        "eigensolver.shooting_calls": (shooting, "count"),
        "eigensolver.shooting_sweeps": (
            calls("eigensolver.numerov_sweep") / shooting if shooting else 0.0, "count"),
        "numkernel.tridiag_calls": (calls("numkernel.tridiag_ground"), "count"),
        "numkernel.minimize_iters": (
            counts.get("numkernel.minimize_iters", 0) / minimize if minimize else 0.0,
            "count"),
        "kg_fields.radii_per_s": (
            counts.get("kg_fields.radii", 0) / packet_s if packet_s else 0.0, "1/s"),
        "kg_fields.failed_radii": (counts.get("kg_fields.failed_radii", 0), "count"),
        "trace.spans": (p["spans"], "count"),
    })
    return out


def per_layer_metrics(result, import_scipy_s):
    passes = result["passes"]
    traced = [_per_layer_pass(p) for p in passes if p["traced"]]
    metrics = {name: _metric(statistics.median(t[name][0] for t in traced), unit)
               for name, (_, unit) in traced[0].items()}
    plain = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    with_spans = statistics.median(p["wall_s"] for p in passes if p["traced"])
    metrics["trace.overhead_pct"] = _metric(100.0 * (with_spans - plain) / plain, "%")
    metrics["setup.import_scipy_s"] = _metric(import_scipy_s, "s")
    return metrics


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "relbosons", "cli.py")):
        print("run.py: no src/relbosons here; run it from the root of a relbosons "
              "checkout", file=sys.stderr)
        return 2
    out = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    if args.trace:
        import_scipy_s = time_scipy_import(IMPORTTIME_REPEATS)
    else:
        setup_s = time_setup(SETUP_REPEATS)

    try:
        worker = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
            timeout=WORKER_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"run.py: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"run.py: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(out, "result.json")) as handle:
        result = json.load(handle)
    if result["missing_targets"]:
        print(f"run.py: not traced (absent): {result['missing_targets']}", file=sys.stderr)

    ops = operations(args.workload, args.seed)
    correct, attempted, failed = tally(ops, result["passes"], os.path.join(out, "pass0"),
                                       args.seed)
    if args.trace:
        metrics = per_layer_metrics(result, import_scipy_s)
    else:
        metrics = end_to_end_metrics(result, setup_s)
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            print(f"run.py: metric {name} is {m['value']}", file=sys.stderr)
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
