"""The registry of anchored checks, shared by ``relbosons verify`` and the
acceptance tests.

Each row of ``CHECKS`` holds a name, a compute ``run -> (values,
detail)`` and one pass condition per value: a :class:`Target` with a
tolerance or a one-sided :class:`Bound`.  :func:`passes` alone decides
PASS or FAIL.  Each row prints one line; the process exit code is 0 only
if all pass.  No row draws random numbers, so the report is a function
of ``grid_n`` alone.

``run`` is the :class:`RunContext` of one run: ``grid_n``, the radial
grid of the solver rows, and the demonstration packet's density scan,
built on first use and shared by the three rows that read it.
:func:`run_verify` makes one context per table and :func:`evaluate` of a
single row a fresh one.  Nothing is cached across runs, so each run costs
what a shell run costs, and a row run under a planted fault scans anew.
The closed-form residual rows check the closed forms, not the solver
grid: they use their own 8000-node grid, the one their gates are sized
for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import eigensolver, kg_fields, potentials, variational
from .eigensolver import (ALPHA_GOLDEN, GOLDEN_GAMMA, RadialGrid, solve_ground_fd,
                          solve_ground_shooting)
from .numkernel import RichardsonLadder
from .potentials import INFINITY, spec_spin0, spec_spin1


@dataclass(frozen=True)
class Target:
    """Holds when |x - value| <= tol."""

    value: float
    tol: float

    def holds(self, x) -> bool:
        return abs(x - self.value) <= self.tol


@dataclass(frozen=True)
class Bound:
    """Holds when ``x op value`` for op one of <, <=, >, >=."""

    op: str
    value: float

    def holds(self, x) -> bool:
        v = self.value
        return {"<": x < v, "<=": x <= v, ">": x > v, ">=": x >= v}[self.op]


def passes(conditions, values) -> bool:
    """The PASS/FAIL decision: each value meets its own condition."""
    return all(c.holds(x) for c, x in zip(conditions, values, strict=True))


@dataclass(frozen=True)
class Check:
    name: str
    compute: Callable
    conditions: tuple


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    values: tuple = ()


@dataclass
class RunContext:
    """What the rows of one run share; see the module docstring."""

    grid_n: int = 8000

    @functools.cached_property
    def demo_scan(self) -> kg_fields.DensityField:
        return kg_fields.scan_density(kg_fields.demo_packet(), kg_fields.default_radii())


def evaluate(check: Check, run: Optional[RunContext] = None) -> CheckResult:
    """Run one row in ``run``, by default on its own in a fresh context."""
    values, detail = check.compute(RunContext() if run is None else run)
    return CheckResult(check.name, passes(check.conditions, values), detail, values)


def run_verify(grid_n: int = 8000) -> list:
    """Run every row in table order in one context; returns the list of
    CheckResults."""
    run = RunContext(grid_n)
    return [evaluate(check, run) for check in CHECKS]


def format_report(checks) -> str:
    lines = []
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name:<{width}}  {c.detail}")
    n_pass = sum(c.passed for c in checks)
    lines.append(f"{n_pass}/{len(checks)} checks passed")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the rows
# ----------------------------------------------------------------------

def _show(fmt, *values):
    """(values, detail) with the detail formatted from the values."""
    return values, fmt.format(*values)


def _level(name, spec, solve, target, tol):
    """Row: the ground gamma of ``spec`` by the solver route ``solve``, an
    ``eigensolver.solve_ground_*`` function named in the row by its route."""
    method = solve.__name__.removeprefix("solve_ground_")

    def compute(run):
        gamma = solve(spec, RadialGrid(n=run.grid_n)).gamma
        return (gamma,), f"gamma = {gamma:.9f} (target {target:.9f})"
    return Check(f"{name} ({method})", compute, (Target(target, tol),))


def _residual(label, tol):
    """Row: the discrete residual of the closed-form eigenfunction ``label``."""
    case = next(c for c in eigensolver.analytic_cases() if c.label == label)

    def compute(run):
        res = eigensolver.closed_form_residual(case, 8000)
        return (res,), f"residual = {res:.2e} (tol {tol:.0e})"
    return Check(f"closed-form eigenfunction residual: {label}", compute,
                 (Bound("<=", tol),))


def _d_falls_with_mass(run):
    # strictly falling with the mass (largest step < 0), small at m = 1000
    ds = [potentials.d_parameter(1.0, 1.0, m) for m in (1.0, 10.0, 100.0, 1000.0)]
    return _show("d(m=1000) = {1:.2e}", float(np.max(np.diff(ds))), ds[-1])


def _shells(run):
    shells = run.demo_scan.negative_shells
    return (len(shells),), f"{len(shells)} shell(s): " + ", ".join(
        f"[{s.r_min:.2f}, {s.r_max:.2f}]" for s in shells)


def _radial_trial(spec):
    """The evaluated closed-form ground state of ``spec`` on the default
    radial momentum grid."""
    grid = variational.RadialMomentumGrid()
    return variational.radial_state(grid, potentials.limit_profile(grid.q, spec), spec)


def _gaussian_trial(run):
    state = _radial_trial(spec_spin0(0.0))
    return _show("({:.7f}, {:.7f})", state.delta_q2, state.delta_rq2)


def _position_product(run):
    f = kg_fields.GaussianProfile(sigma=1.0)
    dr2 = kg_fields.position_dispersion_direct(f, mass=200.0, r_max=30.0, p_max=12.0)
    _, dp2 = variational.norm_and_dp2(f, p_max=12.0)
    return _show("gamma = {:.6f}", math.sqrt(dp2 * dr2))


def _transverse(run):
    state = variational.minimize_transverse_massless()
    return (state.gamma,), (f"gamma = {state.gamma:.6f} after {state.meta['iterations']} "
                            "inverse iterations (both factors)")


def _readings(run):
    # the orbit reading lands on 5/2, the literal one lies above it, and
    # the spherical one is rejected as divergent (flag 1)
    report = variational.closed_form_readings()
    divergent = "divergent" in str(report["spherical_magnitude"])
    return _show("transverse-prefactor reading gamma = {:.6f}; literal transverse-only "
                 "gamma = {:.3f}; spherical reading "
                 + ("divergent" if divergent else "converged"),
                 report["qperp_times_full_gaussian"], report["qperp_dependence_only"],
                 float(divergent))


CHECKS = [
    Check("tridiag ground of -u'' + (1/q^2 + q^2) u = 2 + sqrt(5)",
          lambda run: _show("lambda0 = {:.8f}", RichardsonLadder(12.0, 8000).ground(
              lambda q: 1.0 / q**2 + q**2).ground.value),
          (Target(2.0 + math.sqrt(5.0), 1e-4),)),
    Check("longitudinal W(1; d=0) = 3",
          lambda run: _show("W = {:.14f}",
                                potentials.effective_potential(1.0, spec_spin1(0.0))),
          (Target(3.0, 1e-14),)),
    Check("massless-limit origin exponent alpha = (1 + sqrt 5)/2",
          lambda run: _show("alpha = {:.14f}", potentials.origin_behavior(
              spec_spin0(INFINITY)).exponent_alpha),
          (Target(ALPHA_GOLDEN, 1e-14),)),
    Check("spin-1 d=0 origin exponent alpha = 2",
          lambda run: _show("alpha = {:.14f}", potentials.origin_behavior(
              spec_spin1(0.0)).exponent_alpha),
          (Target(2.0, 1e-14),)),
    Check("d -> 0 as mass -> inf at fixed dispersions", _d_falls_with_mass,
          (Bound("<", 0.0), Bound("<", 1e-2))),
    _level("scalar gamma(d=0) = 3/2", spec_spin0(0.0), solve_ground_shooting, 1.5, 1e-6),
    _level("scalar gamma(d=inf) = 1 + sqrt(5)/2", spec_spin0(INFINITY),
           solve_ground_shooting, GOLDEN_GAMMA, 1e-6),
    _level("longitudinal gamma(d=0) = 5/2", spec_spin1(0.0), solve_ground_shooting,
           2.5, 1e-6),
    _level("longitudinal gamma(d=inf) = 1 + sqrt(5)/2", spec_spin1(INFINITY),
           solve_ground_fd, GOLDEN_GAMMA, 1e-6),
    *(_residual(label, tol) for label, tol in (
        ("spin0 d=0", 1e-6), ("spin0 d=inf", 1e-5), ("spin1 d=0", 1e-6))),
    Check("charge density goes negative for the demonstration packet",
          lambda run: _show("min rho = {:.3e}", float(np.min(run.demo_scan.rho))),
          (Bound("<", 0.0),)),
    Check("negative-density region forms at least one spherical shell", _shells,
          (Bound(">=", 1),)),
    Check("energy density nonnegative at every sample",
          lambda run: _show("min eps = {:.3e}", float(np.min(run.demo_scan.eps))),
          (Bound(">=", 0.0),)),
    Check("Gaussian trial: (Delta q^2, Delta r_q^2) = (3/2, 3/2)", _gaussian_trial,
          (Target(1.5, 1e-5), Target(1.5, 1e-5))),
    Check("massless-limit profile gives gamma = 1 + sqrt(5)/2",
          lambda run: _show("gamma = {:.7f}", _radial_trial(spec_spin0(INFINITY)).gamma),
          (Target(GOLDEN_GAMMA, 1e-4),)),
    Check("position-space product tends to 3/2 in the nonrelativistic regime",
          _position_product, (Target(1.5, 2e-4),)),
    Check("transverse massless minimization lands on gamma = 5/2", _transverse,
          (Target(2.5, 1e-3),)),
    Check("closed-form minimizer readings recorded", _readings,
          (Target(2.5, 1e-3), Bound(">", 2.5), Bound(">", 0.0))),
]
