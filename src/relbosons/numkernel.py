"""Shared numeric primitives.

Four building blocks used throughout the package:

* fixed Gauss-Legendre rules, built once per order and shared read-only
  (:func:`gauss_legendre`),
* the one rule for int g(p) d^3p of a radial g (:func:`radial_rule`),
  behind every such norm and dispersion in the package,
* the certified lowest eigenpair of a symmetric tridiagonal matrix by
  shifted inverse iteration, with the three-point Dirichlet matrix of
  -u'' + V u and its Richardson-extrapolated ground level.  It serves
  the radial FD route and both factors of the transverse minimization
  in :mod:`relbosons.variational`,
* a bracketed scalar root by Brent's zeroin (:func:`find_root`), the
  eigenvalue search of the Numerov shooting route.

Everything here is a pure function of its inputs.  Nothing runs in
workers: scipy's LAPACK wrappers hold the GIL, so threads gain nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class QuadratureError(RuntimeError):
    """A quadrature or a radial transform failed to settle."""


class BracketError(RuntimeError):
    """An eigenvalue bracket failed to straddle a sign change."""


class MinimizationError(RuntimeError):
    """An iteration stopped before its residual tolerance was reached."""

    def __init__(self, message, state, grad_norm):
        super().__init__(message)
        self.state = state
        self.grad_norm = grad_norm


# ----------------------------------------------------------------------
# fixed Gauss-Legendre rules
# ----------------------------------------------------------------------

@functools.cache
def gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The bits of ``numpy.polynomial.legendre.leggauss(n)``, built once per
    order: leggauss runs a dense ``eigvalsh`` (threaded by OpenBLAS, whose
    workers then spin on) and a Newton polish on every call.  The package
    builds one order only, the 15-point rule of :func:`radial_rule`.  The
    arrays are read-only, so no caller can corrupt the shared rule.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def radial_rule(p_max: float) -> tuple:
    """Nodes p and weights w with sum(w g(p)) = int_0^p_max g(p) 4 pi p^2 dp.

    The 15-point Gauss-Legendre rule on ceil(p_max / 0.15) equal panels of
    half-width h, panel k holding h (2k + 1 + x) for the nodes x on [-1, 1], a
    width at which it is exact to rounding for the smooth profiles here.
    """
    if not p_max > 0.0:
        raise ValueError(f"p_max must be positive, got {p_max}")
    x, w = gauss_legendre(15)
    panels = math.ceil(p_max / 0.15)
    half = 0.5 * p_max / panels
    p = (half * (2.0 * np.arange(panels)[:, None] + 1.0 + x)).ravel()
    return p, np.tile(half * w, panels) * (4.0 * math.pi) * p * p


# ----------------------------------------------------------------------
# symmetric tridiagonal ground level
# ----------------------------------------------------------------------

# the iteration cap of tridiag_ground; the ladder's levels take one or two
_MAX_INVERSE_ITERATIONS = 50


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue, unit eigenvector, final residual norm, iteration count.

    ``lower`` is a proven lower bound of the eigenvalue (none: -inf) and
    ``factorizations`` the number of shifted factorizations tried.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    lower: float = -math.inf
    factorizations: int = 0


def tridiag_matvec(diagonal, off_diagonal, v) -> np.ndarray:
    """T v for the symmetric tridiagonal T; ``off_diagonal`` may be a scalar
    standing for a constant one."""
    r = diagonal * v
    r[:-1] += off_diagonal * v[1:]
    r[1:] += off_diagonal * v[:-1]
    return r


def tridiag_ground(diagonal, off_diagonal, shift: Optional[float] = None,
                   start: Optional[np.ndarray] = None) -> EigenPair:
    """Lowest eigenpair of the symmetric tridiagonal T (``diagonal``, and
    ``off_diagonal`` one entry shorter) by shifted inverse iteration on
    L D L^T factors.

    Each iteration solves (T - sigma I) y = v by LAPACK ``dpttrf``/``dpttrs``
    (v = ``start`` at first, else 1), normalizes v = y / ||y|| (largest
    entry positive) and takes mu = v^T T v, r = T v - mu v.  Certificate: a
    shift sigma is kept only when ``dpttrf`` succeeds, i.e. T - sigma I is
    positive definite and sigma < lambda_0; an eigenvalue lies within ||r||
    of mu; so lower = sigma < lambda_0 <= value + residual, up to the
    rounding of r.  The next shift tried is mu - ||r||; ``shift`` is a
    first guess (say a coarser grid's level), else the Gershgorin lower
    bound.  Stops at ||r|| <= 4 eps ||T||_inf, the rounding level of r.

    ``start`` must be finite and entrywise positive: with the negative
    off-diagonals of every matrix here the ground vector is positive
    (Perron-Frobenius), so a positive start overlaps it, as 1 does.

    Raises
    ------
    ValueError
        If the lengths or ``start`` are not as stated.
    MinimizationError
        After ``_MAX_INVERSE_ITERATIONS`` iterations above that tolerance,
        with the last vector and residual.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(off_diagonal, dtype=float)
    if len(e) != len(d) - 1:
        raise ValueError("off_diagonal must be one shorter than diagonal")
    if start is None:
        v = np.ones_like(d)
    else:
        v = np.asarray(start, dtype=float)
        if v.shape != d.shape or not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
            raise ValueError(f"start must be {len(d)} finite positive entries")
    abs_e = np.abs(e)
    radius = np.zeros_like(d)  # |e_i| + |e_{i-1}|: the off-diagonal row sums
    radius[:-1] = abs_e
    radius[1:] += abs_e
    norm = float(np.max(np.abs(d) + radius))  # ||T||_inf
    tol = 4.0 * np.finfo(float).eps * norm
    tried = []

    def factor(sigma):
        tried.append(sigma)
        df, ef, info = dpttrf(d - sigma, e)
        return (sigma, df, ef) if info == 0 else None

    # the Gershgorin bound, lowered far beyond rounding so that it factors
    accepted = ((shift is not None and factor(shift))
                or factor(float(np.min(d - radius)) - 1e-9 * norm))
    # einsum, not BLAS ddot: OpenBLAS threads it above 1e4 entries for no wall-time gain
    for it in range(1, _MAX_INVERSE_ITERATIONS + 1):
        sigma, df, ef = accepted
        v = dpttrs(df, ef, v)[0]
        v /= math.sqrt(np.einsum("i,i", v, v))
        r = tridiag_matvec(d, e, v)
        mu = float(np.einsum("i,i", v, r))
        r -= mu * v
        res = math.sqrt(np.einsum("i,i", r, r))
        v *= math.copysign(1.0, v[np.argmax(np.abs(v))])
        if res <= tol:
            return EigenPair(mu, v, res, it, sigma, len(tried))
        if mu - res > sigma:
            accepted = factor(mu - res) or accepted
    raise MinimizationError(
        f"inverse iteration: no convergence in {_MAX_INVERSE_ITERATIONS} iterations "
        f"(residual {res:.3e} > tol {tol:.1e}, shift {sigma:.15g})", v, res)


def dirichlet_problem(potential: Callable, lo: float, hi: float, n: int) -> tuple:
    """(diagonal, off-diagonal, interior nodes) of the three-point -u'' + V u
    on n uniform nodes of [lo, hi] with u = 0 at both ends."""
    q = np.linspace(lo, hi, n)
    h = q[1] - q[0]
    qi = q[1:-1]
    return 2.0 / h**2 + potential(qi), np.full(n - 3, -1.0 / h**2), qi


@dataclass(frozen=True)
class RichardsonLevel:
    """The extrapolated level ``value``, the step-h interior ``nodes`` and
    the ladder's eigenpairs: ``coarse``, ``ground`` (step h), ``fine`` (h/2)."""

    value: float
    nodes: np.ndarray
    coarse: EigenPair
    ground: EigenPair
    fine: EigenPair


def richardson_ground(potential: Callable, lo: float, hi: float, n: int) -> RichardsonLevel:
    """Lowest level of :func:`dirichlet_problem` at n and 2 (n - 1) + 1 nodes;
    ``value`` = (4 lam_{h/2} - lam_h) / 3 cancels the stencil's O(h^2) error.

    The levels are solved as one nested-iteration ladder (A. Brandt, Math.
    Comp. 31 (1977) 333): a coarse level of max(4, (n - 1) // 32 + 1)
    nodes (``dpttrf`` needs two unknowns) from 1 and the Gershgorin shift;
    the h level from the coarse vector, linearly interpolated, at the
    shift lam_coarse; the h/2 level from the h vector and its midpoints
    (the grids nest) at the shift lam_h.  Each shift is O(h^2) from the
    next level and each start as close, so inverse iteration, which gains
    (lam_0 - sigma) / (lam_1 - sigma) per step, finishes in one or two.
    The vectors are positive, as :func:`tridiag_ground` requires of a
    start; a shift not below the level's lam_0 fails to factor and falls
    back to the Gershgorin bound.
    """
    d, e, coarse_nodes = dirichlet_problem(potential, lo, hi, max(4, (n - 1) // 32 + 1))
    coarse = tridiag_ground(d, e)
    d, e, nodes = dirichlet_problem(potential, lo, hi, n)
    start = np.interp(nodes, np.concatenate(([lo], coarse_nodes, [hi])),
                      np.concatenate(([0.0], coarse.vector, [0.0])))
    ground = tridiag_ground(d, e, shift=coarse.value, start=start)
    d, e, _ = dirichlet_problem(potential, lo, hi, 2 * (n - 1) + 1)
    walled = np.concatenate(([0.0], ground.vector, [0.0]))
    start = np.empty(len(d))
    start[0::2] = 0.5 * (walled[:-1] + walled[1:])
    start[1::2] = ground.vector
    fine = tridiag_ground(d, e, shift=ground.value, start=start)
    return RichardsonLevel((4.0 * fine.value - ground.value) / 3.0, nodes,
                           coarse, ground, fine)


# ----------------------------------------------------------------------
# bracketed scalar root
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Root:
    """A root of f, the sign-change bracket around it, and the work done.

    ``evaluations`` counts every call of f, the two bracket ends included.
    """

    value: float
    bracket: tuple
    evaluations: int


def find_root(f: Callable, lo: float, hi: float, xtol: float,
              max_iter: int = 100) -> Root:
    """Root of f on [lo, hi] by Brent's zeroin.

    R. P. Brent, *Algorithms for Minimization without Derivatives* (1973),
    ch. 4: inverse quadratic or secant steps, each kept only if it stays
    well inside the bracket and shrinks fast enough, else bisection.
    Stops once the sign-change bracket [b, c] is at most
    ``xtol + 4 eps |b|`` wide (or f(b) = 0), like ``scipy.optimize.brentq``.
    Every evaluated point lies outside or on that bracket, so it is the
    tightest one seen.

    Raises
    ------
    BracketError
        If f(lo) and f(hi) have the same sign.
    RuntimeError
        If the iteration cap ``max_iter`` is reached first.
    """
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
        raise BracketError(f"no sign change on [{lo:.6f}, {hi:.6f}] "
                           f"(values {fa:.3e}, {fb:.3e})")
    c, fc = a, fa
    d = e = b - a
    for it in range(max_iter + 1):
        if (fb > 0.0) == (fc > 0.0):          # keep c on the other side of b
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):                 # b is the better estimate
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return Root(b, (b, b) if fb == 0.0 else (min(b, c), max(b, c)), it + 2)
        if it == max_iter:
            break
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = xm                        # bisection
        else:
            s = fb / fa
            if a == c:                        # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:                             # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q = -q if p > 0.0 else q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q               # the interpolation step is safe
            else:
                d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise RuntimeError(
        f"find_root: no convergence within the iteration cap max_iter = {max_iter} "
        f"(bracket [{min(b, c):.17g}, {max(b, c):.17g}])")
