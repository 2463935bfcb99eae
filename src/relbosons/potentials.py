"""Effective radial potentials for the boson uncertainty eigenproblems.

Both spin channels are cast into the one canonical form

    -u''(q) + W(q) u(q) = lam u(q),      lam = 2 gamma,  u = q * f,

so a single solver covers the scalar (spin-0) and longitudinal (spin-1)
problems.  The relativity parameter ``d`` interpolates between the
nonrelativistic (d = 0) and massless (d = inf) regimes; the two limits
use their exact closed forms rather than a large float.

The two formulas every module shares are owned here:
:func:`dispersion_weight`, the relativistic |f|^2 weight of the position
dispersion, and :func:`limit_profile`, the d = 0 and d = inf ground states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INFINITY = math.inf
_FLOAT_MAX = float(np.finfo(float).max)

SPIN0 = 0
SPIN1 = 1


@dataclass(frozen=True)
class PotentialSpec:
    """Selects one effective radial potential W(q).

    ``angular_index`` is l for spin 0 and j for spin 1; only the 0 value
    matters for the uncertainty bound (the centrifugal barrier raises
    every level) but any value is accepted.  The spin fixes the channel:
    scalar for spin 0, longitudinal for spin 1.
    """

    spin: int
    d: float
    angular_index: int = 0

    def __post_init__(self):
        if self.spin not in (SPIN0, SPIN1):
            raise ValueError("spin must be 0 or 1")
        if not (self.d >= 0.0):
            raise ValueError("d must be nonnegative (or INFINITY)")
        if self.angular_index < 0 or self.angular_index != int(self.angular_index):
            raise ValueError("angular_index must be a nonnegative integer")

    @property
    def channel(self) -> str:
        return "scalar" if self.spin == SPIN0 else "longitudinal"


def spec_spin0(d: float, l: int = 0) -> PotentialSpec:
    return PotentialSpec(SPIN0, d, l)


def spec_spin1(d: float, j: int = 0) -> PotentialSpec:
    return PotentialSpec(SPIN1, d, j)


@dataclass(frozen=True)
class OriginBehavior:
    """Small-q structure of W: W ~ c/q^2, regular solution u ~ q^alpha."""

    singular_strength: float
    exponent_alpha: float


def dispersion_weight(q, spec: PotentialSpec):
    """w(q; d) = W - q^2 - l (l + 1)/q^2, the |f|^2 weight that the position
    dispersion adds to |grad f|^2 in rescaled units; vectorized.  At d = INFINITY
    the exact limit 1/q^2 (either spin); at d = 0 exactly 0 (spin 0) and 2/q^2.
    A finite d with d^2 or (d q)^2 = inf raises ValueError, where the spin-0
    term d^2/(1+x) would drop to 0 instead of tending to 1/q^2; so does a
    spin-0 weight that is itself inf (about 1.5 d^2 at d q << 1, from
    d ~ 1.09e154), where W would be inf."""
    q = np.asarray(q, dtype=float)
    if math.isinf(spec.d):
        return 1.0 / q**2
    dq = spec.d * float(q.max(initial=0.0))  # Python floats: inf on overflow, no error
    if math.isinf(spec.d * spec.d) or math.isinf(dq * dq):
        raise ValueError(f"d = {spec.d:g} is too large: d^2 or (d q)^2 overflows for "
                         "d q above about 1.3e154; use d = inf, the massless limit")
    x = (spec.d * q) ** 2
    with np.errstate(over="ignore"):
        # (1+x)^2 = inf once d q > 1.2e77, and q^2 (1+x) once d q^2 passes
        # about 1.3e154; each term's limit is then 0
        tail = spec.d**2 / (2.0 * (1.0 + x) ** 2)
        if spec.spin == SPIN1:
            return 1.0 / q**2 + 1.0 / (q**2 * (1.0 + x)) + tail
        w = spec.d**2 / (1.0 + x) + tail  # checked below, without a warning first
    if not np.isfinite(w).all():
        raise ValueError(f"d = {spec.d:g} is too large: the spin-0 weight, about 1.5 d^2 "
                         f"at d q << 1, overflows at q = {float(q.min()):g}")
    return w


def effective_potential(q, spec: PotentialSpec):
    """W(q) = w(q; d) + q^2 + l (l + 1)/q^2 in the canonical -u'' + W u = lam u
    form, w from :func:`dispersion_weight`.  Requires q > 0; vectorized.

    Near the origin W ~ c/q^2, c from :func:`origin_behavior`; a q whose
    c/q^2 reaches half the largest float (q below about 1e-154 sqrt(c))
    raises ValueError naming q, before any division, rather than giving
    W = inf.  With c = 0 (spin 0, finite d, l = 0) W has no such term.
    At the other end, a q whose q^2 overflows (q above about 1.34e154)
    raises ValueError naming q, before any arithmetic, for the same reason.
    """
    q = np.asarray(q, dtype=float)
    q_min = float(q.min(initial=INFINITY))
    if not q_min > 0.0:
        raise ValueError("q must be positive")
    q_max = float(q.max(initial=0.0))
    if math.isinf(q_max * q_max):  # Python floats: inf on overflow, no warning
        raise ValueError(f"q = {q_max:g} is too large: the q^2 term of W overflows for "
                         f"q above about {math.sqrt(_FLOAT_MAX):.3g}")
    c = origin_behavior(spec).singular_strength
    if c and not q_min * q_min * _FLOAT_MAX > 2.0 * c:  # Python floats: no warning
        raise ValueError(f"q = {q_min:g} is too small: the {c:g}/q^2 terms of W overflow "
                         f"for q below about {math.sqrt(2.0 * c / _FLOAT_MAX):.2g}")
    lterm = spec.angular_index * (spec.angular_index + 1)
    w = dispersion_weight(q, spec) + q**2
    if lterm:
        w = w + lterm / q**2
    return w if w.shape else float(w)


def limit_profile(q, spec: PotentialSpec):
    """f = q^(alpha - 1) exp(-q^2/2), the ground state at d = 0 or d = inf.

    There W = q^2 + c/q^2 for every angular index, and u = q f =
    q^alpha exp(-q^2/2) solves -u'' + W u = (2 alpha + 1) u, with alpha
    from :func:`origin_behavior`.  Unnormalized; vectorized over q.  Raises
    ValueError for 0 < d < inf, where no closed form exists.
    """
    if 0.0 < spec.d < INFINITY:
        raise ValueError(f"no closed-form ground state at finite d = {spec.d:g} > 0")
    q = np.asarray(q, dtype=float)
    return q ** (origin_behavior(spec).exponent_alpha - 1.0) * np.exp(-q * q / 2.0)


def origin_behavior(spec: PotentialSpec) -> OriginBehavior:
    """Strength of the 1/q^2 singularity and the regular-solution power.

    c collects the centrifugal term plus the channel contribution:
    0 for spin 0 at finite d, 1 for either d = INFINITY limit, and 2 for
    spin 1 at any finite d (its two 1/q^2 terms coincide at the origin).
    alpha solves alpha (alpha - 1) = c with alpha >= 1.
    """
    c = float(spec.angular_index * (spec.angular_index + 1))
    if math.isinf(spec.d):
        c += 1.0
    elif spec.spin == SPIN1:
        c += 2.0
    alpha = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * c))
    return OriginBehavior(c, alpha)


def d_parameter(delta_p2: float, delta_r2: float, mass: float) -> float:
    """Dimensionless relativity measure (1/m)(dp^2/dr^2)^(1/4), hbar=c=1."""
    if delta_p2 <= 0 or delta_r2 <= 0 or mass <= 0:
        raise ValueError("dispersions and mass must be positive")
    return (delta_p2 / delta_r2) ** 0.25 / mass
