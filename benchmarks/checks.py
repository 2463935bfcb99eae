"""Independent checkers for the outputs of the relbosons CLI.

Nothing here imports relbosons.  Each reference is computed by a route
the program does not use:

* gamma(d): the lowest eigenvalue of the Numerov matrix pencil
  (-D2 + B W) u = lam B u, B = tridiag(1, 10, 1)/12, solved by ARPACK
  shift-invert on a grid unlike the program's.  The program uses Numerov
  only as a shooting recurrence and a three-point matrix for its FD route.
  W(q) is written out again here from the effective-potential formulas.
* rho and eps of a Klein-Gordon packet: scipy.integrate.quad with the
  sine and cosine weights (QUADPACK QAWO), one radius at a time.  The
  program uses dense Gauss-Legendre panels over all radii at once.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import eigs

GOLDEN_GAMMA = 1.0 + math.sqrt(5.0) / 2.0

# gamma is printed with 9 significant digits; the reference pencil has a
# discretization error below 2e-8 (h = 13/16000, worst at d = inf)
GAMMA_TOL = 1e-6
# gamma(d) endpoints and the interval each channel stays in
ENDPOINTS = {0: (1.5, GOLDEN_GAMMA), 1: (2.5, GOLDEN_GAMMA)}

DENSITY_TOL = 1e-7          # share of the profile maximum
TRANSVERSE_TOL = 1e-3       # grid error of gamma is 0.625 h^2 = 2.5e-4
BALANCE_TOL = 1e-6          # relative Delta q^2 - Delta r_q^2
ORACLE_TOL = 1e-6


# ----------------------------------------------------------------------
# gamma(d): Numerov matrix pencil
# ----------------------------------------------------------------------

def potential(q, spin: int, d: float):
    """W(q) of the canonical -u'' + W u = 2 gamma u form, angular index 0."""
    q = np.asarray(q, dtype=float)
    if math.isinf(d):
        return 1.0 / q**2 + q**2
    x = (d * q) ** 2
    tail = d**2 / (2.0 * (1.0 + x) ** 2) + q**2
    if spin == 0:
        return d**2 / (1.0 + x) + tail
    return 1.0 / q**2 + 1.0 / (q**2 * (1.0 + x)) + tail


def reference_gamma(spin: int, d: float, q_max: float = 13.0, n: int = 16000) -> float:
    """Ground level gamma = lam/2 of the Numerov pencil with u(0) = u(q_max) = 0.

    Raises ValueError if the returned eigenvector has a node, i.e. if
    shift-invert at 0 did not land on the ground state.
    """
    h = q_max / n
    q = h * np.arange(1, n)
    w = potential(q, spin, d)
    m = len(q)
    a = sp.diags([-1.0 / h**2 + w[:-1] / 12.0, 2.0 / h**2 + 10.0 * w / 12.0,
                  -1.0 / h**2 + w[1:] / 12.0], [-1, 0, 1], format="csc")
    b = sp.diags([np.full(m - 1, 1.0 / 12.0), np.full(m, 10.0 / 12.0),
                  np.full(m - 1, 1.0 / 12.0)], [-1, 0, 1], format="csc")
    vals, vecs = eigs(a, k=1, M=b, sigma=0.0, which="LM")
    u = vecs[:, 0].real
    u = u / u[np.argmax(np.abs(u))]
    if np.any(u < -1e-8):
        raise ValueError(f"reference eigenvector for spin {spin}, d = {d} has a node")
    return float(vals[0].real) / 2.0


def check_gamma_curve(spin: int, points, reference) -> list:
    """Check (d, gamma) points of one sweep, given in ascending d.

    Each gamma must agree with the reference within GAMMA_TOL and lie in
    the channel's interval; d = 0 and d = inf must hit the exact
    endpoints; gamma must rise with d for spin 0 and fall for spin 1.
    ``reference`` maps d to its reference gamma.
    """
    g_zero, g_inf = ENDPOINTS[spin]
    lo, hi = min(g_zero, g_inf), max(g_zero, g_inf)
    problems = []
    for d, gamma in points:
        if not math.isfinite(gamma):
            problems.append(f"spin {spin} d = {d}: gamma is {gamma}")
            continue
        ref = reference[d]
        if abs(gamma - ref) > GAMMA_TOL:
            problems.append(f"spin {spin} d = {d}: gamma {gamma:.9f} differs from "
                            f"the Numerov pencil {ref:.9f} by {abs(gamma - ref):.2e}")
        if not lo - GAMMA_TOL <= gamma <= hi + GAMMA_TOL:
            problems.append(f"spin {spin} d = {d}: gamma {gamma:.9f} outside "
                            f"[{lo:.9f}, {hi:.9f}]")
        if d == 0.0 and abs(gamma - g_zero) > GAMMA_TOL:
            problems.append(f"spin {spin}: gamma(0) = {gamma:.9f}, exact {g_zero:.9f}")
        if math.isinf(d) and abs(gamma - g_inf) > GAMMA_TOL:
            problems.append(f"spin {spin}: gamma(inf) = {gamma:.9f}, exact {g_inf:.9f}")
    ds = [d for d, _ in points]
    if ds != sorted(ds):
        problems.append(f"spin {spin}: points not in ascending d: {ds}")
    sign = 1.0 if spin == 0 else -1.0
    for (d0, g0), (d1, g1) in zip(points, points[1:]):
        if not sign * (g1 - g0) > 0.0:
            problems.append(f"spin {spin}: gamma not monotone between d = {d0} "
                            f"({g0:.9f}) and d = {d1} ({g1:.9f})")
    return problems


def parse_d(token) -> float:
    return math.inf if str(token).lower() in ("inf", "infinity") else float(token)


def parse_gamma_csv(text: str):
    """(d, gamma, method) rows of ``relbosons gamma`` CSV output."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "d,gamma,residual,method":
        raise ValueError(f"unexpected gamma CSV header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        d, gamma, _, method = line.split(",", 3)
        rows.append((parse_d(d), float(gamma), method))
    return rows


def parse_gamma_json(payload: dict):
    """(d, gamma, method) rows of ``relbosons gamma --format json`` output."""
    rows = []
    for p in payload["points"]:
        gamma = math.nan if p["gamma"] is None else float(p["gamma"])
        rows.append((parse_d(p["d"]), gamma, p["method"] if p["ok"] else "failed"))
    return rows


# ----------------------------------------------------------------------
# packet densities: QAWO quadrature one radius at a time
# ----------------------------------------------------------------------

def cosine_profile(mass: float):
    return lambda p: math.cos(p / mass) / math.sqrt(mass**2 + p**2)


def gaussian_profile(sigma: float):
    return lambda p: math.exp(-p * p / (2.0 * sigma**2))


def reference_density(r: float, mass: float, a: float, t: float, profile,
                      p_max: float = 100.0):
    """(rho, eps) at radius r > 0 of phi = (1/r) int p sin(pr) f e^{-(a+it)E} dp.

    ``p_max`` cuts the integrals where e^{-a p} p^2 is below 1e-17 for the
    packets used here (a = 0.5).
    """
    def energy(p):
        return math.sqrt(mass**2 + p * p)

    def weighted(fun, weight):
        opts = dict(weight=weight, wvar=r, epsabs=1e-14, epsrel=1e-12, limit=400)
        re = quad(lambda p: fun(p).real, 0.0, p_max, **opts)[0]
        im = quad(lambda p: fun(p).imag, 0.0, p_max, **opts)[0]
        return complex(re, im)

    def base(p):
        e = energy(p)
        return p * profile(p) * math.exp(-a * e) * complex(math.cos(t * e), -math.sin(t * e))

    i_sin = weighted(base, "sin")
    i_sin_e = weighted(lambda p: -1j * energy(p) * base(p), "sin")
    i_cos = weighted(lambda p: p * base(p), "cos")
    phi = i_sin / r
    dt_phi = i_sin_e / r
    dr_phi = i_cos / r - i_sin / r**2
    rho = -(phi.conjugate() * dt_phi).imag
    eps = abs(dt_phi) ** 2 + abs(dr_phi) ** 2 + mass**2 * abs(phi) ** 2
    return rho, eps


def parse_density_csv(text: str):
    """(r, rho, eps) arrays of ``relbosons density`` CSV output."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "r,rho,eps":
        raise ValueError(f"unexpected density CSV header {lines[:1]}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return data[:, 0], data[:, 1], data[:, 2]


def check_density_profile(radii, rho, eps, samples, references) -> list:
    """Compare sampled rho and eps with references, relative to the profile maxima.

    ``samples`` are indices into the profile arrays; ``references`` the
    (rho, eps) pairs computed at those radii.  eps must be nonnegative
    everywhere.
    """
    problems = []
    rho_scale = float(np.max(np.abs(rho)))
    eps_scale = float(np.max(eps))
    for i, (rho_ref, eps_ref) in zip(samples, references):
        if abs(rho[i] - rho_ref) > DENSITY_TOL * rho_scale:
            problems.append(f"rho(r = {radii[i]:.4g}) = {rho[i]:.9e}, QAWO {rho_ref:.9e}")
        if abs(eps[i] - eps_ref) > DENSITY_TOL * eps_scale:
            problems.append(f"eps(r = {radii[i]:.4g}) = {eps[i]:.9e}, QAWO {eps_ref:.9e}")
    if float(np.min(eps)) < 0.0:
        problems.append(f"eps goes negative: min eps = {np.min(eps):.3e}")
    return problems


def check_shell_contains(shells, r: float) -> list:
    """At least one negative shell contains r; every shell has rho_min < 0."""
    problems = []
    if not any(s["r_min"] <= r <= s["r_max"] for s in shells):
        problems.append(f"no negative shell contains r = {r}: {shells}")
    for s in shells:
        if not s["rho_min"] < 0.0:
            problems.append(f"shell {s} has rho_min >= 0")
    return problems


# ----------------------------------------------------------------------
# transverse massless minimization and the verify report
# ----------------------------------------------------------------------

def check_transverse(payload: dict) -> list:
    """The trans-massless JSON: gamma near 5/2, balanced, oracle on 5/2."""
    problems = []
    gamma = float(payload["gamma"])
    dq2, drq2 = float(payload["delta_q2"]), float(payload["delta_rq2"])
    oracle = float(payload["separation_oracle"])
    if abs(gamma - 2.5) > TRANSVERSE_TOL:
        problems.append(f"transverse gamma = {gamma:.9f}, expected 2.5 +- {TRANSVERSE_TOL}")
    if abs(dq2 - drq2) > BALANCE_TOL * max(dq2, drq2):
        problems.append(f"unbalanced gauge: Delta q^2 = {dq2:.9f}, Delta r_q^2 = {drq2:.9f}")
    if abs(math.sqrt(dq2 * drq2) - gamma) > 1e-8 * gamma:
        problems.append(f"gamma {gamma:.9f} != sqrt(Delta q^2 Delta r_q^2)")
    if abs(oracle - 2.5) > ORACLE_TOL:
        problems.append(f"separation oracle = {oracle:.9f}, expected 2.5 +- {ORACLE_TOL}")
    return problems


# (fragment of the check name, exact gamma, tolerance); the fd check is
# gated at 1e-5 by verify itself, the shooting checks at 1e-6
VERIFY_ENDPOINTS = [
    ("scalar gamma(d=0)", 1.5, 1e-6),
    ("scalar gamma(d=inf)", GOLDEN_GAMMA, 1e-6),
    ("longitudinal gamma(d=0)", 2.5, 1e-6),
    ("longitudinal gamma(d=inf)", GOLDEN_GAMMA, 1e-5),
]


def check_verify_report(exit_code: int, text: str) -> list:
    """Exit code 0, every check line PASS, endpoint gammas on the constants."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exit code {exit_code}")
    lines = [line for line in text.splitlines() if line.startswith("[")]
    if not lines:
        problems.append("verify printed no check lines")
    for line in lines:
        if not line.startswith("[PASS]"):
            problems.append(f"verify: {line.strip()}")
    for fragment, exact, tol in VERIFY_ENDPOINTS:
        hits = [line for line in lines if fragment + " =" in line]
        if len(hits) != 1:
            problems.append(f"verify: {len(hits)} lines for {fragment!r}")
            continue
        value = float(hits[0].split("gamma = ")[1].split()[0])
        if abs(value - exact) > tol:
            problems.append(f"verify: {fragment} printed {value:.9f}, exact {exact:.9f}")
    return problems
