"""Shared numeric primitives.

Four building blocks used throughout the package:

* fixed Gauss-Legendre rules, built once per order and shared read-only
  (:func:`gauss_legendre`),
* the one rule for int g(p) d^3p of a radial g (:func:`radial_rule`),
  behind every such norm and dispersion in the package,
* the certified lowest eigenpair of a symmetric tridiagonal matrix by
  shifted inverse iteration, with the three-point Dirichlet matrix of
  -u'' + V u and its Richardson-extrapolated ground level
  (:class:`RichardsonLadder`).  It serves the radial FD route and both
  factors of the transverse minimization in :mod:`relbosons.variational`,
* a bracketed scalar root by Brent's zeroin (:func:`find_root`), the
  eigenvalue search of the Numerov shooting route.

Everything here is a pure function of its inputs, and no module-level
state changes: a :class:`RichardsonLadder` lives no longer than its
sweep, and no caller's array is ever written.  Nothing runs in workers:
scipy's LAPACK wrappers hold the GIL, so threads gain nothing.
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


def tridiag_matvec(diagonal, off_diagonal, v, out=None, scratch=None) -> np.ndarray:
    """T v for the symmetric tridiagonal T; ``off_diagonal`` may be a scalar
    standing for a constant one.  ``out`` (n entries) receives T v and
    ``scratch`` (n - 1) the off-diagonal products; either is allocated when
    not given."""
    r = np.multiply(diagonal, v, out=out)
    r[:-1] += np.multiply(off_diagonal, v[1:], out=scratch)
    r[1:] += np.multiply(off_diagonal, v[:-1], out=scratch)
    return r


class _Workspace:
    """The work arrays of :func:`tridiag_ground` for up to ``size`` unknowns,
    and ``extra`` rows of that length for the caller, as rows of one block.

    A matrix of n <= size rows uses the first n entries of each: the
    iterate, the residual, a scratch row, and two buffers for the L D L^T
    factors, one holding the accepted factor and one for the next trial.
    """

    def __init__(self, size: int, extra: int = 0):
        rows = np.empty((7 + extra, size))
        self.vector, self.residual, self.scratch = rows[:3]
        self.factors = [(rows[3], rows[4][:-1]), (rows[5], rows[6][:-1])]
        self.extra = rows[7:]


def tridiag_ground(diagonal, off_diagonal, shift: Optional[float] = None,
                   start: Optional[np.ndarray] = None,
                   work: Optional[_Workspace] = None) -> EigenPair:
    """Lowest eigenpair of the symmetric tridiagonal T (``diagonal``, and
    ``off_diagonal`` one entry shorter) by shifted inverse iteration on
    L D L^T factors.

    Each iteration solves (T - sigma I) y = v by LAPACK ``dpttrf``/``dpttrs``
    (v = ``start`` at first, else 1), normalizes v = y / ||y|| and takes
    mu = v^T T v, r = T v - mu v; the returned vector has its largest entry
    positive.  Certificate: a shift sigma is kept only when ``dpttrf``
    succeeds, i.e. T - sigma I is positive definite and sigma < lambda_0;
    an eigenvalue lies within ||r|| of mu; so lower = sigma < lambda_0 <=
    value + residual, up to the rounding of r.  The next shift tried is
    mu - ||r||; ``shift`` is a first guess (say a coarser grid's level),
    else, or if it fails to factor, the Gershgorin lower bound.  Stops at
    ||r|| <= 4 eps ||T||_inf, the rounding level of r.

    ``start`` must be finite and entrywise positive: with the negative
    off-diagonals of every matrix here the ground vector is positive
    (Perron-Frobenius), so a positive start overlaps it, as 1 does.

    The iteration runs in ``work`` (a :class:`RichardsonLadder` passes the
    one it holds for all its solves), else in arrays made for this call.
    The three arguments are only read, and the returned vector is a fresh
    array, never part of ``work``.

    Raises
    ------
    ValueError
        If the lengths or ``start`` are not as stated, or T is not finite
        (read off ||T||_inf before any factorization).
    MinimizationError
        After ``_MAX_INVERSE_ITERATIONS`` iterations above that tolerance,
        with the last vector and residual.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(off_diagonal, dtype=float)
    n = len(d)
    if len(e) != n - 1:
        raise ValueError("off_diagonal must be one shorter than diagonal")
    if work is None:
        work = _Workspace(n)
    v, r, scratch = work.vector[:n], work.residual[:n], work.scratch[:n]
    if start is None:
        v.fill(1.0)
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != d.shape:
            raise ValueError(f"start must be {n} finite positive entries")
        np.copyto(v, start)
        if not (v.min() > 0.0 and v.max() < math.inf):  # a nan fails min > 0
            raise ValueError(f"start must be {n} finite positive entries")
    abs_e = np.abs(e, out=scratch[:-1])
    radius = r  # |e_i| + |e_{i-1}|, the off-diagonal row sums; r is free until the loop
    radius[:-1] = abs_e
    radius[-1] = 0.0
    radius[1:] += abs_e
    norm = float(np.max(np.add(np.abs(d, out=scratch), radius, out=scratch)))  # ||T||_inf
    if not math.isfinite(norm):
        raise ValueError(f"T must be finite, but ||T||_inf = {norm}")
    tol = 4.0 * np.finfo(float).eps * norm
    factors = [(df[:n], ef[:n - 1]) for df, ef in work.factors]
    tried = 0

    def factor(sigma):
        # into the spare buffers, so that a failed shift keeps the accepted factor
        nonlocal tried
        tried += 1
        df, ef = factors[1]
        np.subtract(d, sigma, out=df)
        ef[:] = e
        df, ef, info = dpttrf(df, ef, overwrite_d=True, overwrite_e=True)
        if info != 0:
            return None
        factors.reverse()
        return sigma, df, ef

    accepted = shift is not None and factor(shift)
    if not accepted:
        # the Gershgorin bound, lowered far beyond rounding so that it factors
        accepted = factor(float(np.min(np.subtract(d, radius, out=scratch))) - 1e-9 * norm)
    # einsum, not BLAS ddot: OpenBLAS threads it above 1e4 entries for no wall-time gain
    for it in range(1, _MAX_INVERSE_ITERATIONS + 1):
        sigma, df, ef = accepted
        v = dpttrs(df, ef, v, overwrite_b=True)[0]
        v /= math.sqrt(np.einsum("i,i", v, v))
        tridiag_matvec(d, e, v, out=r, scratch=scratch[:-1])
        mu = float(np.einsum("i,i", v, r))
        r -= np.multiply(mu, v, out=scratch)
        res = math.sqrt(np.einsum("i,i", r, r))
        if res <= tol:
            return EigenPair(mu, _positive(v, scratch), res, it, sigma, tried)
        if mu - res > sigma:
            accepted = factor(mu - res) or accepted
    raise MinimizationError(
        f"inverse iteration: no convergence in {_MAX_INVERSE_ITERATIONS} iterations "
        f"(residual {res:.3e} > tol {tol:.1e}, shift {sigma:.15g})",
        _positive(v, scratch), res)


def _positive(v, scratch) -> np.ndarray:
    """A fresh copy of v with its largest entry positive.  Inverse iteration
    is odd in v to the bit, so fixing the sign once at the end gives the
    bits of fixing it at every step."""
    return v * math.copysign(1.0, v[np.argmax(np.abs(v, out=scratch))])


def _dirichlet_grid(hi: float, n: int) -> tuple:
    """(interior nodes, 2 / h^2, -1 / h^2) of the three-point -u'' + V u on
    n uniform nodes of [0, hi] with u = 0 at both ends: its matrix has the
    diagonal 2 / h^2 + V(nodes) and the constant off-diagonal -1 / h^2."""
    q = np.linspace(0.0, hi, n)
    h = q[1] - q[0]
    return q[1:-1], 2.0 / h**2, -1.0 / h**2


@dataclass(frozen=True)
class RichardsonLevel:
    """The extrapolated level ``value``, the step-h interior ``nodes`` and
    the ladder's eigenpairs: ``coarse``, ``ground`` (step h), ``fine`` (h/2)."""

    value: float
    nodes: np.ndarray
    coarse: EigenPair
    ground: EigenPair
    fine: EigenPair


class RichardsonLadder:
    """The Richardson-extrapolated lowest level of the three-point Dirichlet
    matrix of -u'' + V u (:func:`_dirichlet_grid`) on [0, hi] at n and
    2 (n - 1) + 1 nodes, for any number of potentials:
    :meth:`ground` returns ``value`` = (4 lam_{h/2} - lam_h) / 3, which
    cancels the stencil's O(h^2) error.  A one-off solve is
    ``RichardsonLadder(hi, n).ground(potential)``.

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

    The ladder holds each level's interior nodes and constant
    off-diagonal, and its work arrays sized for the h/2 level (the
    diagonal, the h/2 start and the :func:`tridiag_ground` workspace) as
    nine rows of one block, so a sweep over d that builds one ladder
    makes them once.  Each solve fills every entry it reads, so its bits
    do not depend on what the ladder solved before.  The one block
    (1.15 MB at the default grid) is above glibc's 128 KiB mmap
    threshold; freeing it raises that threshold (glibc's dynamic
    threshold, no setting), so later ladders reuse heap pages instead of
    faulting fresh ones in, which nine 125 KiB arrays never do.
    """

    def __init__(self, hi: float, n: int):
        self.hi, self.n = hi, n
        self._levels = []  # (interior nodes, 2 / h^2, off-diagonal) per level
        for m in (max(4, (n - 1) // 32 + 1), n, 2 * (n - 1) + 1):
            nodes, c, off = _dirichlet_grid(hi, m)
            # the constant off-diagonal as a read-only broadcast: no grid memory
            self._levels.append((nodes, c, np.broadcast_to(off, m - 3)))
        self._knots = np.concatenate(([0.0], self._levels[0][0], [hi]))
        self._work = _Workspace(len(self._levels[-1][0]), extra=2)
        self._diagonal, self._start = self._work.extra

    def _solve(self, level, potential, shift=None, start=None) -> EigenPair:
        nodes, c, e = self._levels[level]
        d = np.add(c, potential(nodes), out=self._diagonal[:len(nodes)])
        return tridiag_ground(d, e, shift=shift, start=start, work=self._work)

    def ground(self, potential: Callable) -> RichardsonLevel:
        """The :class:`RichardsonLevel` of -u'' + ``potential`` u; its
        vectors and nodes are fresh arrays, not the ladder's."""
        coarse = self._solve(0, potential)
        nodes = self._levels[1][0]
        start = np.interp(nodes, self._knots, np.concatenate(([0.0], coarse.vector, [0.0])))
        ground = self._solve(1, potential, coarse.value, start)
        # the h vector on the odd h/2 nodes, the means of its walled
        # neighbours (0 + v = v) on the even ones
        v = ground.vector
        start = self._start[:2 * len(v) + 1]
        even = start[0::2]
        np.add(v[:-1], v[1:], out=even[1:-1])
        even[0], even[-1] = v[0], v[-1]
        even *= 0.5
        start[1::2] = v
        fine = self._solve(2, potential, ground.value, start)
        return RichardsonLevel((4.0 * fine.value - ground.value) / 3.0, nodes.copy(),
                               coarse, ground, fine)


# ----------------------------------------------------------------------
# bracketed scalar root
# ----------------------------------------------------------------------

_MAX_ROOT_ITERATIONS = 100  # the iteration cap of find_root


@dataclass(frozen=True)
class Root:
    """A root of f, the sign-change bracket around it, and the work done.

    ``evaluations`` counts every call of f, the two bracket ends included.
    """

    value: float
    bracket: tuple
    evaluations: int


def find_root(f: Callable, lo: float, hi: float, xtol: float) -> Root:
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
    ValueError
        If f is not finite at a point it is evaluated at (the message
        names the point): a nan fails every sign comparison, so it would
        pass the bracket check and steer the search.
    RuntimeError
        If ``_MAX_ROOT_ITERATIONS`` iterations pass first.
    """
    def value(x):
        fx = f(x)
        if not math.isfinite(fx):
            raise ValueError(f"find_root: f({x:.17g}) = {fx} is not finite")
        return fx

    a, b = lo, hi
    fa, fb = value(a), value(b)
    if (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
        raise BracketError(f"no sign change on [{lo:.6f}, {hi:.6f}] "
                           f"(values {fa:.3e}, {fb:.3e})")
    c, fc = a, fa
    d = e = b - a
    for it in range(_MAX_ROOT_ITERATIONS + 1):
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
        if it == _MAX_ROOT_ITERATIONS:
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
        fb = value(b)
    raise RuntimeError(
        f"find_root: no convergence within the iteration cap "
        f"_MAX_ROOT_ITERATIONS = {_MAX_ROOT_ITERATIONS} "
        f"(bracket [{min(b, c):.17g}, {max(b, c):.17g}])")
