"""Ground-state solver for -u'' + W(q) u = lam u on (0, inf).

Two independent routes, on grids they do not share, are cross-checked
against each other: a finite-difference matrix on nodes uniform in q,
whose lowest eigenpair is found by certified shifted inverse iteration
(with Richardson extrapolation over h and h/2), and Numerov shooting on
nodes uniform in x = ln q.  With u = sqrt(q) v the equation becomes
v'' = (q^2 (W - lam) + 1/4) v, whose coefficient is finite at the origin
(W ~ c/q^2 there), so the regular solution v ~ q^(alpha - 1/2) is smooth
in x and one recurrence runs from ``SHOOTING_Q_LO`` to ``Q_MAX``.  Both
routes end at ``Q_MAX`` and take only their node count n, which both,
like :func:`gamma_curve` and the CLI, refuse below ``MIN_GRID_N``.

Each Numerov sweep is one lower-triangular banded solve (LAPACK
``dtbtrs``, forward substitution without pivoting, so the same
recurrence as a loop over the nodes), and the eigenvalue is the root of
the matching mismatch found by Brent's zeroin
(:func:`relbosons.numkernel.find_root`).  Its bracket comes from the
paper's closed forms, not from the FD route: with y = d^2, W(q; y) is
monotone in y at each q for both spins and every angular index, so by
Courant-Fischer lam(d) lies between the exact d = 0 and d = inf levels
2 alpha + 1 (:func:`limit_bracket`).

A sweep (:func:`gamma_curve`) solves every d in one FD
:class:`relbosons.numkernel.RichardsonLadder`; every function here stays
pure and writes no array it is given.

Only gamma = lam / 2 crosses module boundaries.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .numkernel import BracketError, RichardsonLadder, find_root
from .potentials import (INFINITY, PotentialSpec, effective_potential, limit_profile,
                         origin_behavior, spec_spin0, spec_spin1)

GOLDEN_GAMMA = 1.0 + math.sqrt(5.0) / 2.0          # massless limit, both spins
ALPHA_GOLDEN = 0.5 * (1.0 + math.sqrt(5.0))        # origin exponent at d = inf

# the first shooting node: the O((d q)^2) error of the start q^(alpha - 1/2)
# admits an irregular part, which falls as (q / 1e-7)^(1 - 2 alpha) against
# the regular one on the way out
SHOOTING_Q_LO = 1e-7
# the outer end of both radial routes, far inside the Gaussian-decay
# region: W(Q_MAX) exceeds the top of the shooting bracket by at least 65
# at every angular index that shooting can start (l <= 45), so the inward
# sweep starts where the solution decays
Q_MAX = 12.0
# the fewest radial nodes that the solvers and ``--grid-n`` accept
MIN_GRID_N = 100
# shooting and FD must agree this closely at every point of a gamma sweep
CROSS_METHOD_TOL = 1e-6
# the bracket width at which the shooting root search stops (plus 4 eps lam)
_SHOOTING_XTOL = 1e-10
# the shooting bracket extends the two limit levels by this much: the
# discrete root can sit just outside an exact endpoint
_BRACKET_MARGIN = 0.05
# closed-form residuals of origin-singular eigenfunctions are reported
# away from the coordinate singularity, where u'''' is bounded
_RESIDUAL_EDGE = 0.2


def _require_grid_n(n: int) -> None:
    """Refuse a node count below ``MIN_GRID_N``, in the words of ``--grid-n``."""
    if n < MIN_GRID_N:
        raise ValueError(f"n must be at least {MIN_GRID_N}")


@dataclass
class EigenResult:
    gamma: float
    q_samples: np.ndarray
    u_samples: np.ndarray
    meta: dict = field(default_factory=dict)


def solve_ground_fd(spec: PotentialSpec, n: int = 8000,
                    ladder: Optional[RichardsonLadder] = None) -> EigenResult:
    """Lowest eigenvalue via the finite-difference matrix on n nodes.

    The matrix has Dirichlet walls at 0 and ``Q_MAX``; the regular
    solution obeys u(0) = 0 for every channel here.  ``gamma`` is half the
    Richardson extrapolation of the h and h/2 levels of
    :meth:`relbosons.numkernel.RichardsonLadder.ground`.  ``meta`` keeps both
    raw levels (``lambda_h``, ``lambda_h_half``) and the inverse
    iterations and factorizations of its (coarse, h, h/2) eigenpairs.
    ``u_samples`` (sum(u^2) h = 1) is the step-h kernel vector.

    ``ladder`` is the :class:`relbosons.numkernel.RichardsonLadder` on
    [0, ``Q_MAX``] at n, which a sweep builds once and passes to every
    point; without it the call builds its own.  Either way the result has
    the same bits.  An n below ``MIN_GRID_N`` raises ValueError first.
    """
    _require_grid_n(n)
    if ladder is None:
        ladder = RichardsonLadder(Q_MAX, n)
    elif (ladder.hi, ladder.n) != (Q_MAX, n):
        raise ValueError(f"ladder on [0, {ladder.hi}] at n = {ladder.n} "
                         f"is not the FD ladder on [0, {Q_MAX}] at n = {n}")
    level = ladder.ground(lambda q: effective_potential(q, spec))
    solves = (level.coarse, level.ground, level.fine)
    meta = {"lambda_h": level.ground.value, "lambda_h_half": level.fine.value,
            "inverse_iterations": tuple(s.iterations for s in solves),
            "factorizations": tuple(s.factorizations for s in solves)}
    # with the first wall at 0, the first interior node is the step h
    return EigenResult(level.value / 2.0, level.nodes,
                       level.ground.vector / math.sqrt(level.nodes[0]), meta)


def _numerov_sweep(T: np.ndarray, f: float, u0: float, u1: float) -> np.ndarray:
    """Numerov recurrence for u'' = T u along ``T`` from the start values u0, u1.

    With both start values fixed the recurrence
    (1 - f T[k]) u[k] = 2 (1 + 5 f T[k-1]) u[k-1] - (1 - f T[k-2]) u[k-2]
    is a lower-triangular system of bandwidth 2 whose first two rows are
    identity rows; ``dtbtrs`` solves it by forward substitution without
    pivoting, i.e. it runs the same recurrence in one compiled call.
    """
    a = 1.0 - f * T
    ab = np.empty((3, len(T)), order="F")
    ab[0] = a
    ab[0, :2] = 1.0
    ab[1] = -2.0 * (1.0 + 5.0 * f * T)
    ab[1, 0] = 0.0
    ab[2] = a
    rhs = np.zeros((len(T), 1), order="F")
    rhs[:2, 0] = u0, u1
    u, info = dtbtrs(ab, rhs, uplo="L")
    if info != 0:
        raise np.linalg.LinAlgError(f"Numerov sweep is singular at step {info}")
    return u[:, 0]


def _numerov_mismatch(head: np.ndarray, q: np.ndarray, step: float, lam: float,
                      W: np.ndarray, im: int):
    """Cross mismatch vL[im] vR[2] - vL[im+1] vR[1] of the two sweeps at q[im:im+2].

    The sweeps solve v'' = (q^2 (W - lam) + 1/4) v on the nodes ``q``,
    uniform in x = ln q with spacing ``step``.  The mismatch is zero
    exactly when one Numerov solution satisfies both boundary
    conditions, i.e. at the discretized eigenvalues.  ``vL`` holds the
    outward solution on q[:im+2], started from ``head`` = q[:2]^(alpha - 1/2)
    (:func:`_shooting_head`); ``vR`` the inward one on q[im-1:], started
    from the Gaussian envelope q^(lam/2 - 1) exp(-q^2/2).
    """
    f = step ** 2 / 12.0
    T = q * q * (W - lam) + 0.25
    vL = _numerov_sweep(T[: im + 2], f, head[0], head[1])
    tail = q[-2:] ** (0.5 * lam - 1.0) * np.exp(-0.5 * q[-2:] ** 2)
    vR = _numerov_sweep(T[im - 1:][::-1], f, tail[1], tail[0])[::-1]
    return vL[im] * vR[2] - vL[im + 1] * vR[1], vL, vR


def _shooting_head(spec: PotentialSpec, q: np.ndarray) -> np.ndarray:
    """The outward start values q[:2]^(alpha - 1/2) of the regular solution v."""
    return q[:2] ** (origin_behavior(spec).exponent_alpha - 0.5)


def limit_bracket(spec: PotentialSpec) -> tuple:
    """(lo, hi) around lam(d): the d = 0 and d = inf levels 2 alpha + 1 of
    ``spec``'s channel and angular index, widened by ``_BRACKET_MARGIN``.

    With y = d^2 and x = y q^2 the potential is monotone in y at every q:
    d/dy [y/(1+x) + y/(2(1+x)^2)] = (3+x)/(2(1+x)^3) > 0 for spin 0 and
    d/dy [1/(q^2(1+x)) + y/(2(1+x)^2)] = -(1+3x)/(2(1+x)^3) < 0 for spin 1.
    By Courant-Fischer lam(d) then lies between the two limit levels, the
    exact ground levels (of q^alpha exp(-q^2/2)) of alpha (alpha-1)/q^2 + q^2.
    """
    levels = [2.0 * origin_behavior(dataclasses.replace(spec, d=d)).exponent_alpha + 1.0
              for d in (0.0, INFINITY)]
    return min(levels) - _BRACKET_MARGIN, max(levels) + _BRACKET_MARGIN


def solve_ground_shooting(spec: PotentialSpec, n: int = 8000) -> EigenResult:
    """Ground state by bidirectional Numerov shooting in x = ln q.

    The sweeps of :func:`_numerov_mismatch` run on n nodes uniform in x
    from ``SHOOTING_Q_LO`` to ``Q_MAX``; lam is the root of their
    mismatch, found by Brent's zeroin (:func:`relbosons.numkernel.find_root`
    with ``xtol=_SHOOTING_XTOL``) on the closed-form bracket of
    :func:`limit_bracket`.  ``u_samples`` = sqrt(q) v on those nodes, with
    int u^2 dq = sum(q^2 v^2) dx = 1.  ``meta`` records the number of
    Numerov mismatch evaluations and the final sign-change bracket, the
    tightest among them.
    The sweeps of the evaluation with the smallest |mismatch| are kept; when
    that evaluation is the root, ``u_samples`` is built from them, with no
    further sweep.

    Raises
    ------
    ValueError
        Before anything else, if n is below ``MIN_GRID_N``; next, before W is
        evaluated, if q^(alpha - 1/2) underflows to 0 (index >= 46).
    BracketError
        If the bracket fails to straddle a sign change: lam(d) is not
        between its d = 0 and d = inf levels.
    RuntimeError
        If the root search reaches its iteration cap.
    """
    _require_grid_n(n)
    x = np.linspace(math.log(SHOOTING_Q_LO), math.log(Q_MAX), n)
    step = x[1] - x[0]
    q = np.exp(x)
    head = _shooting_head(spec, q)
    if not head[0] > 0.0:
        alpha = origin_behavior(spec).exponent_alpha
        raise ValueError(f"shooting cannot start at angular index l = {spec.angular_index}: "
                         f"the start value q^(alpha - 1/2) at q = {SHOOTING_Q_LO:g} "
                         f"underflows to 0 for alpha = {alpha:.6g}")
    W = effective_potential(q, spec)
    im = int(np.argmin(W))
    if q[im] < 0.5 or q[im] > 0.5 * Q_MAX:
        im = int(np.searchsorted(q, 1.0))
    im = min(im, n - 3)

    lo, hi = limit_bracket(spec)
    best = (math.inf, math.nan, None, None)  # |mismatch|, lam, vL, vR

    def mismatch(lam):
        nonlocal best
        g, vL, vR = _numerov_mismatch(head, q, step, lam, W, im)
        if abs(g) < best[0]:
            best = (abs(g), lam, vL, vR)
        return g

    try:
        root = find_root(mismatch, lo, hi, _SHOOTING_XTOL)
    except BracketError as exc:
        raise BracketError(f"mismatch: {exc} for {spec}; lam(d) must lie between "
                           "its d = 0 and d = inf levels") from None
    lam = root.value

    _, best_lam, vL, vR = best
    if best_lam != lam:
        _, vL, vR = _numerov_mismatch(head, q, step, lam, W, im)
    v = np.concatenate([vL[:im], vR[1:] * (vL[im] / vR[1])])
    v /= math.sqrt(np.sum(q * q * v * v) * step)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    meta = {"bracket": root.bracket, "mismatch_evaluations": root.evaluations}
    return EigenResult(lam / 2.0, q, np.sqrt(q) * v, meta)


def _discrete_residual(nodes, y, T, lam) -> float:
    """Max |(-D^2 + T) y| / (|lam| max|y|) over the interior of the uniform ``nodes``."""
    h = nodes[1] - nodes[0]
    d2 = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h**2
    res = -d2 + T[1:-1] * y[1:-1]
    return float(np.max(np.abs(res)) / (abs(lam) * np.max(np.abs(y))))


@dataclass
class GammaPoint:
    """gamma at one d by shooting and by FD; ``residual`` is their gap, gated
    at ``CROSS_METHOD_TOL``, and the point is ``ok`` without a ``message``."""

    d: float
    gamma: float = math.nan
    gamma_fd: float = math.nan
    message: str = ""

    @property
    def residual(self) -> float:
        return abs(self.gamma - self.gamma_fd)

    @property
    def ok(self) -> bool:
        return not self.message


def gamma_curve(spec_template: PotentialSpec, d_values: Sequence[float],
                n: int = 8000) -> list:
    """gamma(d) for a family of potentials on n nodes, shooting with FD cross-check.

    Each point records gamma from shooting and the Richardson FD value.  A
    point whose two values differ by more than ``CROSS_METHOD_TOL``, or
    whose solve raises, is marked failed with a message; shooting runs
    first, so a point it refuses costs no FD solve.  Failures are
    recorded per point and the sweep continues; returns the
    :class:`GammaPoint` list ordered by d.  The FD solves of all points
    share one :class:`relbosons.numkernel.RichardsonLadder`, built here and
    dropped on return, so the sweep makes its grid-sized work arrays once;
    each point's values are those of a sweep over that d alone.  An n
    below ``MIN_GRID_N`` raises ValueError before any point is solved.
    """
    _require_grid_n(n)
    ds = list(d_values)
    if not all(d >= 0 for d in ds):  # also rejects nan
        raise ValueError("d values must be nonnegative")
    ladder = RichardsonLadder(Q_MAX, n)

    def solve_one(d):
        spec = dataclasses.replace(spec_template, d=d)
        try:
            sh = solve_ground_shooting(spec, n).gamma
            fd = solve_ground_fd(spec, n, ladder=ladder).gamma
        except Exception as exc:  # recorded, sweep continues
            return GammaPoint(d, message=str(exc) or type(exc).__name__)
        point = GammaPoint(d, sh, fd)
        if not point.residual <= CROSS_METHOD_TOL:
            point.message = (f"shooting gamma {sh:.12g} and FD gamma {fd:.12g} differ by "
                             f"{point.residual:.3e} > {CROSS_METHOD_TOL:g}")
        return point

    return sorted((solve_one(d) for d in ds), key=lambda p: p.d)


# ----------------------------------------------------------------------
# closed-form limiting eigenfunctions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticCase:
    """A limit case: its ground state q * limit_profile(q, spec) has level 2 gamma."""

    label: str
    spec: PotentialSpec
    gamma: float
    q_min: float  # residual grid start (offset for singular exponents)


def analytic_cases() -> list:
    """The three closed-form ground states of the limiting potentials; at d = inf
    both spins share W = q^2 + (l(l+1) + 1)/q^2, so one state stands for both."""
    return [
        AnalyticCase("spin0 d=0", spec_spin0(0.0), 1.5, 1e-4),
        AnalyticCase("spin0 d=inf", spec_spin0(INFINITY), GOLDEN_GAMMA, _RESIDUAL_EDGE),
        AnalyticCase("spin1 d=0", spec_spin1(0.0), 2.5, 1e-4),
    ]


def closed_form_residual(case: AnalyticCase, n: int = 8000) -> float:
    """max |(-D^2 + W - lam) u| / (lam max|u|) of one closed form on n points.

    The d = inf case starts at an origin offset, where u'''' is bounded;
    the residual decreases as h^2 under grid refinement.
    """
    q = np.linspace(case.q_min, Q_MAX, n)
    lam = 2.0 * case.gamma
    return _discrete_residual(q, q * limit_profile(q, case.spec),
                              effective_potential(q, case.spec) - lam, lam)


def expectation_q2(result: EigenResult) -> float:
    """<q^2> of a normalized ground state (the q^2 f^2 measure)."""
    u, q = result.u_samples, result.q_samples
    return float(np.trapezoid(q * q * u * u, q) / np.trapezoid(u * u, q))
