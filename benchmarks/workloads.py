"""The operations of each workload: one relbosons CLI invocation each.

Shared by ``run.py`` (which checks the outputs) and ``worker.py`` (which
runs them).  Output paths are relative to a per-pass directory given as
``out``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

CANONICAL_D = "0,0.25,0.5,1,2,4,inf"

# the cosine packet's negative shell sits around r = 0.98
SHELL_RADIUS = 0.98


@dataclass(frozen=True)
class Operation:
    name: str
    args: tuple          # CLI argv with "{out}" standing for the pass directory
    # the origin series of the shooting route is inaccurate at large d, so
    # these operations report wrong gamma values every time
    known_fault: bool = False

    def argv(self, out: str) -> list:
        return [a.replace("{out}", out) for a in self.args]

    def path(self, out: str, flag: str) -> str:
        return self.argv(out)[self.args.index(flag) + 1]


def _gamma(name, spin, d_list, fmt, known_fault=False):
    ext = "csv" if fmt == "csv" else "json"
    args = ("gamma", "--spin", str(spin), "--d", d_list)
    if fmt == "json":
        args += ("--format", "json")
    args += ("--out", os.path.join("{out}", f"{name}.{ext}"))
    return Operation(name, args, known_fault)


WORKLOADS = {
    "gamma_sweep": [
        _gamma("gamma_spin0", 0, CANONICAL_D, "csv"),
        _gamma("gamma_spin1", 1, CANONICAL_D, "json"),
        _gamma("gamma_spin0_large_d", 0, "8,16,32", "json", known_fault=True),
        _gamma("gamma_spin1_large_d", 1, "16,32", "json", known_fault=True),
    ],
    "density_scan": [
        Operation("density_cosine", (
            "density", "--rmax", "22.5", "--out", "{out}/cosine.csv",
            "--map-out", "{out}/cosine_map.csv", "--shells-out", "{out}/cosine_shells.json")),
        Operation("density_gaussian", (
            "density", "--profile", "gaussian", "--out", "{out}/gaussian.csv")),
    ],
    "transverse_min": [
        Operation("transverse", (
            "rayleigh", "--case", "trans-massless", "--out", "{out}/transverse.json")),
    ],
    "verify": [
        Operation("verify", ("verify", "--seed", "{seed}")),
    ],
}


def operations(workload: str, seed: int) -> list:
    """The workload's operations in the order the seed gives them.

    ``verify`` receives the seed itself (it draws the random momenta of
    the Fourier-connection check from it).
    """
    ops = [Operation(op.name, tuple(a.replace("{seed}", str(seed % 2**32)) for a in op.args),
                     op.known_fault)
           for op in WORKLOADS[workload]]
    random.Random(seed).shuffle(ops)
    return ops
