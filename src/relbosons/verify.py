"""Self-check suite behind ``relbosons verify``.

Every anchored numeric claim of the library is re-run here: the exact
nonrelativistic and massless endpoints for both spin channels, the
closed-form eigenfunction residuals, the negative-charge-density
demonstration, the dispersion-functional values, and the transverse
minimization with its independent separation oracle.  Each check prints
one pass/fail line; the process exit code is 0 only if all pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigensolver, kg_fields, potentials, variational
from .eigensolver import GOLDEN_GAMMA, RadialGrid
from .numkernel import TridiagProblem, tridiag_ground
from .potentials import INFINITY, spec_spin0, spec_spin1


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


def _approx(value, expected, tol):
    return abs(value - expected) <= tol


def run_verify(seed: int = 0, grid_n: int = 8000) -> list:
    """Run every anchored check; returns the list of CheckResults."""
    rng = np.random.default_rng(seed)
    checks = []
    grid = RadialGrid(n=grid_n)

    # --- tridiagonal oracle on the massless-limit potential -----------
    q = np.linspace(0.0, 12.0, 8000)[1:-1]
    h = q[1] - q[0]
    prob = TridiagProblem(2.0 / h**2 + 1.0 / q**2 + q**2,
                          np.full(len(q) - 1, -1.0 / h**2), h)
    lam = float(tridiag_ground(prob, 1)[0])
    checks.append(_check(
        "tridiag ground of -u'' + (1/q^2 + q^2) u = 2 + sqrt(5)",
        _approx(lam, 2.0 + math.sqrt(5.0), 1e-4),
        f"lambda0 = {lam:.8f}"))

    # --- potentials ----------------------------------------------------
    w = potentials.effective_potential(1.0, spec_spin1(0.0))
    checks.append(_check("longitudinal W(1; d=0) = 3",
                         _approx(w, 3.0, 1e-14), f"W = {w:.14f}"))
    ob = potentials.origin_behavior(spec_spin0(INFINITY))
    checks.append(_check(
        "massless-limit origin exponent alpha = (1 + sqrt 5)/2",
        _approx(ob.exponent_alpha, 0.5 * (1 + math.sqrt(5)), 1e-14),
        f"alpha = {ob.exponent_alpha:.14f}"))
    ob1 = potentials.origin_behavior(spec_spin1(0.0))
    checks.append(_check("spin-1 d=0 origin exponent alpha = 2",
                         _approx(ob1.exponent_alpha, 2.0, 1e-14),
                         f"alpha = {ob1.exponent_alpha:.14f}"))
    ds = [potentials.d_parameter(1.0, 1.0, m) for m in (1.0, 10.0, 100.0, 1000.0)]
    checks.append(_check("d -> 0 as mass -> inf at fixed dispersions",
                         all(a > b for a, b in zip(ds, ds[1:])) and ds[-1] < 1e-2,
                         f"d(m=1000) = {ds[-1]:.2e}"))

    # --- eigensolver endpoints ------------------------------------------
    targets = [
        ("scalar gamma(d=0) = 3/2 (shooting)", spec_spin0(0.0), 1.5, "shooting", 1e-6),
        ("scalar gamma(d=inf) = 1 + sqrt(5)/2 (shooting)", spec_spin0(INFINITY),
         GOLDEN_GAMMA, "shooting", 1e-6),
        ("longitudinal gamma(d=0) = 5/2 (shooting)", spec_spin1(0.0), 2.5,
         "shooting", 1e-6),
        ("longitudinal gamma(d=inf) = 1 + sqrt(5)/2 (fd)", spec_spin1(INFINITY),
         GOLDEN_GAMMA, "fd", 1e-5),
    ]
    for name, spec, expected, method, tol in targets:
        if method == "shooting":
            res = eigensolver.solve_ground_shooting(spec, grid)
        else:
            res = eigensolver.solve_ground_fd(spec, grid)
        checks.append(_check(name, _approx(res.gamma, expected, tol),
                             f"gamma = {res.gamma:.9f} (target {expected:.9f})"))

    # --- analytic eigenfunction residuals --------------------------------
    for chk in eigensolver.verify_analytic_limits(n=grid_n):
        checks.append(_check(
            f"closed-form eigenfunction residual: {chk.label}",
            chk.passed, f"residual = {chk.residual:.2e} (tol {chk.tol:.0e})"))

    # --- charge and energy densities --------------------------------------
    params = kg_fields.demo_packet()
    fieldmap = kg_fields.scan_density(params, kg_fields.default_radii())
    checks.append(_check(
        "charge density goes negative for the demonstration packet",
        float(np.min(fieldmap.rho)) < 0.0,
        f"min rho = {np.min(fieldmap.rho):.3e}"))
    checks.append(_check(
        "negative-density region forms at least one spherical shell",
        len(fieldmap.negative_shells) >= 1,
        f"{len(fieldmap.negative_shells)} shell(s): "
        + ", ".join(f"[{s.r_min:.2f}, {s.r_max:.2f}]" for s in fieldmap.negative_shells)))
    checks.append(_check(
        "energy density nonnegative at every sample",
        float(np.min(fieldmap.eps)) >= 0.0,
        f"min eps = {np.min(fieldmap.eps):.3e}"))

    # --- dispersion functional anchors --------------------------------
    rgrid = variational.RadialMomentumGrid()
    qv = rgrid.q
    dq2, drq2 = variational.dispersion_pair(
        (rgrid, np.exp(-qv * qv / 2.0)), variational.spin0_functional(0.0))
    checks.append(_check(
        "Gaussian trial: (Delta q^2, Delta r_q^2) = (3/2, 3/2)",
        _approx(dq2, 1.5, 1e-5) and _approx(drq2, 1.5, 1e-5),
        f"({dq2:.7f}, {drq2:.7f})"))
    fq = qv ** (eigensolver.ALPHA_GOLDEN - 1.0) * np.exp(-qv * qv / 2.0)
    gam = variational.rayleigh_gamma((rgrid, fq), variational.spin0_functional(INFINITY))
    checks.append(_check(
        "massless-limit profile gives gamma = 1 + sqrt(5)/2",
        _approx(gam, GOLDEN_GAMMA, 1e-4), f"gamma = {gam:.7f}"))

    # nonrelativistic limit of the position-space dispersion
    fgauss = lambda p: np.exp(-np.asarray(p) ** 2 / 2.0)
    dr2 = kg_fields.position_dispersion_direct(fgauss, mass=200.0, r_max=30.0,
                                               p_max=12.0)
    _, dp2 = variational.norm_and_dp2(fgauss, p_max=12.0)
    checks.append(_check(
        "position-space product tends to 3/2 in the nonrelativistic regime",
        _approx(math.sqrt(dp2 * dr2), 1.5, 1e-3),
        f"gamma = {math.sqrt(dp2 * dr2):.6f}"))

    # --- transverse massless minimization ---------------------------------
    state = variational.minimize_transverse_massless()
    checks.append(_check(
        "transverse massless minimization lands on gamma = 5/2",
        _approx(state.gamma, 2.5, 1e-3),
        f"gamma = {state.gamma:.6f} after {state.meta['iterations']} iterations"))
    oracle = variational.separation_oracle()
    checks.append(_check(
        "separation oracle (planar level 2 + line level 1/2) = 5/2",
        _approx(oracle, 2.5, 1e-6), f"oracle = {oracle:.8f}"))
    report = variational.closed_form_readings()
    gam_orbit = report["qperp_times_full_gaussian"]
    checks.append(_check(
        "closed-form minimizer readings recorded",
        _approx(gam_orbit, 2.5, 1e-3) and "divergent" in str(report["spherical_magnitude"]),
        f"transverse-prefactor reading gamma = {gam_orbit:.6f}; "
        f"literal transverse-only gamma = {report['qperp_dependence_only']:.3f}; "
        f"spherical reading divergent"))

    # --- Fourier connection -------------------------------------------
    momenta = rng.normal(scale=2.0, size=(100, 3))
    rep = variational.check_connection("longitudinal", momenta, 1.0)
    checks.append(_check(
        "longitudinal fields satisfy the Fourier connection",
        rep.max_residual <= 1e-13, f"residual = {rep.max_residual:.2e}"))
    rep_t = variational.check_connection("transverse", momenta, 1.0)
    agree = abs(rep_t.norm_fields - rep_t.norm_reduced) / rep_t.norm_reduced
    checks.append(_check(
        "transverse energy norm: field route matches direct quadrature",
        agree <= 1e-8, f"relative difference = {agree:.2e}"))

    return checks


def format_report(checks) -> str:
    lines = []
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name:<{width}}  {c.detail}")
    n_pass = sum(c.passed for c in checks)
    lines.append(f"{n_pass}/{len(checks)} checks passed")
    return "\n".join(lines)
