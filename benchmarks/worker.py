"""Runs one workload's operations through ``relbosons.cli.run`` in passes.

Started by ``run.py`` as its own process, so that peak memory is the
workload's alone.  Usage (from the root of a checkout):

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

Passes repeat until the next one would end after ``--seconds``; at least
one pass runs, two with ``--trace 1``, where untraced and traced passes
alternate so that the tracing overhead can be read off.  Each pass writes
its files under DIR/pass<k>; pass 0 is kept for the checks and later
passes are reduced to digests.  The result goes to DIR/result.json, the
spans of the traced passes to DIR/spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

import relbosons  # noqa: E402  (loads every module the tracer wraps)
from relbosons import cli  # noqa: E402

from spans import Tracer, layer_times  # noqa: E402
from workloads import operations  # noqa: E402


def run_pass(ops, out_dir):
    """Invoke every operation once; returns the per-operation records."""
    records = []
    for op in ops:
        argv = op.argv(out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(argv)
        records.append({"name": op.name, "argv": argv, "exit_code": code,
                        "seconds": time.perf_counter() - t0,
                        "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return records


def fingerprint(record, out_dir) -> str:
    """Digest of an operation's exit code, printed text and output files."""
    digest = hashlib.sha256(str(record["exit_code"]).encode())
    for text in (record["stdout"], record["stderr"]):
        digest.update(text.replace(out_dir, "{out}").encode())
    for arg in record.pop("argv"):
        if arg.startswith(out_dir + os.sep) and os.path.isfile(arg):
            with open(arg, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    ops = operations(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    all_spans = []
    missing = []
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.reset()
            missing = tracer.install()
        out_dir = os.path.join(args.out, f"pass{k}")
        os.makedirs(out_dir)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            records = run_pass(ops, out_dir)
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall_s": time.perf_counter() - wall0,
                  "cpu_s": time.process_time() - cpu0, "ops": records}
        for op_record in records:
            op_record["digest"] = fingerprint(op_record, out_dir)
        if traced:
            record["layers"] = layer_times(tracer.spans)
            record["counts"] = dict(tracer.counts)
            record["spans"] = len(tracer.spans)
            all_spans.append({"pass": k, "spans": tracer.spans})
        if k > 0:
            shutil.rmtree(out_dir)
            for op_record in records:
                del op_record["stdout"], op_record["stderr"]
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= (2 if tracer else 1) and elapsed + typical > args.seconds:
            break

    result = {"passes": passes, "missing_targets": missing,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(os.path.join(args.out, "result.json"), "w") as handle:
        json.dump(result, handle)
    if all_spans:
        with open(os.path.join(args.out, "spans.json"), "w") as handle:
            json.dump(all_spans, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
