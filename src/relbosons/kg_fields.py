"""Klein-Gordon wavepacket densities in position space.

The packet is the positive-frequency radial solution

    phi(r, t) = (1/r) int_0^inf dp p sin(p r) f(p) exp(-(a + i t) E_p),

with E_p = sqrt(m^2 + p^2).  The module evaluates phi and its time and
radial derivatives, forms the charge density rho = -Im(phi* dphi/dt)
(not positive definite: the central point of the whole exercise) and the
positive energy density eps = |dphi/dt|^2 + |dphi/dr|^2 + m^2 |phi|^2,
scans them on radial grids, detects negative-charge shells, and provides
the position-space dispersion that cross-checks the momentum-space
formulas in :mod:`relbosons.variational`.

On a radial grid one evaluator, :func:`_radial_fields`, gives phi,
dphi/dt and dphi/dr of any radial amplitude with a momentum weight w(p):
the packet (w = p f e^{-(a + i t) E}) and the t = 0 state of a momentum
amplitude f~ (w = p f~ / (sqrt(pi) E)).  The fields are sine and cosine
transforms in p, computed by the trapezoid rule on a uniform p grid: one
DST-I or DCT-I per transform on the first grid, then one DST-II or DCT-II
per transform on the midpoints added by each halving of the p step.  The
weights are even in p and analytic in a strip of half-width m, so the rule
converges exponentially as the p step shrinks.
The grid must be the lattice r_k = k dr (integer k >= 1, evenly spaced)
that :func:`default_radii` makes.  Every scan settles within
``_FIELD_ABS_TOL`` + ``_FIELD_REL_TOL`` times its largest sine transform.
Radial integrals of the densities share :func:`_radial_integral` and its
tail check.
:func:`field_sample` evaluates single points by QUADPACK on [0, inf)
and is the independent check; it shares no truncation point with the
transforms.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.fft import dct, dst

from . import numkernel
from .numkernel import QuadratureError

# tolerances of the radial transforms behind every field scan
_FIELD_ABS_TOL = 1e-11
_FIELD_REL_TOL = 1e-9
# share of position_dispersion_direct's r^4 eps integral its outer 10% may hold
_DISPERSION_TAIL_TOL = 1e-7

# tolerances of the pointwise QUADPACK references
_QUAD_ABS_TOL = 1e-12
_QUAD_REL_TOL = 1e-10

# strict-sign dead band for shell detection; suppresses spurious shells
# at quadrature-roundoff scale
RHO_DEADBAND = 1e-12


class TailWarning(UserWarning):
    """A radial integral's outer grid region is not yet negligible."""


# ----------------------------------------------------------------------
# spectral profiles f(p)
# ----------------------------------------------------------------------

class CosineProfile:
    """f(p) = cos(p/m) / sqrt(m^2 + p^2), the packet behind the density map."""

    def __init__(self, mass: float = 1.0):
        self.mass = mass

    def __call__(self, p):
        return np.cos(p / self.mass) / np.sqrt(self.mass**2 + p**2)


class GaussianProfile:
    """f(p) = exp(-p^2 / (2 sigma^2))."""

    def __init__(self, sigma: float = 1.0):
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        self.sigma = sigma

    def __call__(self, p):
        return np.exp(-np.asarray(p) ** 2 / (2.0 * self.sigma**2))


@dataclass(frozen=True)
class WavepacketParams:
    """Mass, damping a, time t and the spectral profile f(p)."""

    mass: float
    damping_a: float
    time_t: float
    profile: Callable

    def __post_init__(self):
        if not (0.0 < self.mass < math.inf and math.isfinite(self.time_t)):
            raise ValueError("mass must be positive and finite, and time_t finite")
        if not 0.0 < self.damping_a < math.inf:
            raise ValueError("damping_a must be positive (integral convergence) and finite")
        probe = np.asarray(self.profile(np.array([0.0, 0.7, 2.3])))
        if np.iscomplexobj(probe) and np.any(np.abs(probe.imag) > 0):
            raise ValueError("profile must be real-valued on [0, inf)")

    def energy(self, p):
        return np.sqrt(self.mass**2 + np.asarray(p, dtype=float) ** 2)


def demo_packet(time_t: float = 0.05) -> WavepacketParams:
    """The parameter set used for the negative-density demonstration: the
    cosine profile at mass 1 and damping a = 0.5."""
    return WavepacketParams(1.0, 0.5, time_t, CosineProfile(1.0))


# ----------------------------------------------------------------------
# pointwise field samples
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSample:
    """phi, its time derivative and its radial derivative at one point."""

    phi: complex
    dt_phi: complex
    dr_phi: complex


def _quad(kern: Callable, weight=None, r=None) -> complex:
    """int_0^inf kern(p) w(p r) dp by QUADPACK, w = sin or cos (``weight``
    'sin' or 'cos', the QAWF rule, which takes the absolute tolerance
    alone) or 1 (``weight`` None, QAGI).

    Raises :class:`QuadratureError` when QUADPACK reports that the
    integral did not settle within its subdivision budget.
    """
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, _ = quad(kern, 0.0, math.inf, weight=weight, wvar=r,
                            epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
                            complex_func=True)
        except IntegrationWarning as exc:
            raise QuadratureError(f"quadrature did not settle: {exc}") from None
    return complex(value)


def field_sample(r: float, params: WavepacketParams) -> FieldSample:
    """Evaluate the packet fields at radius r >= 0.

    r = 0 uses the analytic kernel limits sin(pr)/r -> p (and a vanishing
    radial derivative); no division by r ever happens there.  Quadrature
    failures propagate as :class:`QuadratureError`.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    a, t = params.damping_a, params.time_t

    def base(p):
        E = params.energy(p)
        return p * params.profile(p) * np.exp(-(a + 1j * t) * E)

    def base_dt(p):
        return -1j * params.energy(p) * base(p)

    if r == 0.0:
        return FieldSample(_quad(lambda p: p * base(p)),
                           _quad(lambda p: p * base_dt(p)), 0.0j)

    i_sin = _quad(base, "sin", r)
    i_cos = _quad(lambda p: p * base(p), "cos", r)
    return FieldSample(i_sin / r, _quad(base_dt, "sin", r) / r,
                       i_cos / r - i_sin / r**2)


def charge_density(sample: FieldSample):
    """rho = (i/2)(phi* dphi - phi dphi*) computed as -Im(phi* dphi/dt);
    the fields of ``sample`` may be arrays, one entry per radius."""
    return -np.imag(np.conj(sample.phi) * sample.dt_phi)


def energy_density(sample: FieldSample, mass: float):
    """eps = |dphi/dt|^2 + |dphi/dr|^2 + m^2 |phi|^2 (>= 0 by construction),
    per entry for array fields."""
    return (abs(sample.dt_phi) ** 2 + abs(sample.dr_phi) ** 2
            + mass**2 * abs(sample.phi) ** 2)


# ----------------------------------------------------------------------
# radial transforms on a radius lattice
# ----------------------------------------------------------------------

# radial distance the packet's fields must fall off over before the
# trapezoid rule's periodic images (period 2 M h in r) come back
_ALIAS_MARGIN = 30.0
_MAX_DOUBLINGS = 6

# points of the radius lattice r_k = k dr that the transforms span, out to
# r_max + _ALIAS_MARGIN, at most: 3600 on the default grid; the radii
# themselves are the first r_max / dr of them
MAX_LATTICE_POINTS = 10**5
# p nodes that the last halving of a transform may reach, M 2^_MAX_DOUBLINGS
# for a first level of M intervals, at most: 2^18 on the default grid.
# M grows as p_max (r_max + _ALIAS_MARGIN) / pi, and p_max as about 27 / a;
# 2^23 admits every lattice below MAX_LATTICE_POINTS with dr <= 0.05 at
# a = 0.5 (p_max = 55), --rmax 970 --dr 0.01 among them, and a >= 0.003 on
# the default grid
MAX_TRANSFORM_NODES = 2**23


def _radius_lattice(radii):
    """(dr, k) with radii = k dr for ascending integers k >= 1.

    The transforms return the fields on the lattice r = k dr only, so a
    grid that is not evenly spaced from a multiple of its step is
    rejected rather than evaluated elsewhere.
    """
    if radii.size == 0:
        raise ValueError("radii must be nonempty")
    dr = (float(radii[-1] - radii[0]) / (radii.size - 1) if radii.size > 1
          else float(radii[0]))
    k = np.rint(radii / dr).astype(np.int64)
    if k[0] < 1 or np.any(np.abs(radii - k * dr) > 1e-12 * float(radii[-1])):
        raise ValueError("radii must lie on a lattice r_k = k dr (integer k >= 1, "
                         "evenly spaced), as default_radii makes them")
    return dr, k


def _radial_fields(weight, energy, radii, p_max):
    """(phi, dt_phi, dr_phi, failed_radii) on radii r_k = k dr of the radial
    amplitude with momentum weight w(p), taken as zero beyond p_max:

        phi    = (1/r) int_0^p_max w(p) sin(pr) dp,
        dt_phi = (1/r) int_0^p_max -i E(p) w(p) sin(pr) dp,
        dr_phi = (1/r) int_0^p_max p w(p) cos(pr) dp - phi / r.

    The radii must be ascending, positive and evenly spaced from a multiple
    of their step, as :func:`default_radii` makes them.  ``weight`` is
    sampled once per p node; the other two weights are formed from it.

    The trapezoid rule on p_j = j dp with dp = pi / (M h): on the radius
    lattice r = n h it is one DST-I (sine) or DCT-I (cosine) of the
    sampled weights.  The step h = dr / s is the largest divisor of the
    lattice step with pi / h >= p_max.

    dp is then halved (M doubled) until every transform is stable within
    ``_FIELD_ABS_TOL`` + ``_FIELD_REL_TOL`` times the largest sine
    transform; radii whose entries fail to settle are reported back (the
    caller records them and carries on).  A halving keeps the level it
    refines and adds the M midpoints p_j = (j + 1/2) dp, j = 0 .. M-1:
    T_2M = T_M / 2 + (dp / 2) sum_j g(p_j).  Since dp h = pi / M,

        sin(p_j n h) = sin(pi n (2j + 1) / (2M)),
        cos(p_j n h) = cos(pi n (2j + 1) / (2M)),

    which are the kernels of scipy's DST-II at k = n - 1 and DCT-II at
    k = n, each with scipy's factor 2; both indices exist because
    M >= n_max + 1.  So a halving is one size-M DST-II or DCT-II per
    transform on M new samples, where the rule taken afresh is a size-2M
    DST-I or DCT-I on 2M + 1 samples.  A first level whose last halving
    would reach more than ``MAX_TRANSFORM_NODES`` nodes raises ValueError
    before any p grid is built.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be ascending and positive")
    dr, k = _radius_lattice(radii)
    s = max(1, math.ceil(p_max * dr / math.pi))
    h = dr / s
    n = k * s
    m_min = max(int(n[-1]) + 1, math.ceil((float(radii[-1]) + _ALIAS_MARGIN) / h))
    m = 1 << (m_min - 1).bit_length()  # the next power of two >= m_min
    if m << _MAX_DOUBLINGS > MAX_TRANSFORM_NODES:
        raise ValueError(f"p_max = {p_max:.4g} over r_max + {_ALIAS_MARGIN:g} = "
                         f"{float(radii[-1]) + _ALIAS_MARGIN:.4g} needs up to "
                         f"{m << _MAX_DOUBLINGS} transform nodes, above MAX_TRANSFORM_NODES "
                         f"= {MAX_TRANSFORM_NODES}: p_max grows as 1/a, so raise --a "
                         "or lower --rmax")
    dp = math.pi / (m * h)

    def sample(p):
        """The two sine weights w and -i E w, zero beyond p_max."""
        inside = int(np.searchsorted(p, p_max, side="right"))
        w = np.zeros((2, p.size), dtype=complex)
        w[0, :inside] = weight(p[:inside])
        w[1, :inside] = -1j * energy(p[:inside]) * w[0, :inside]
        return w

    p = dp * np.arange(m + 1)
    w = sample(p)
    sins = [0.5 * dp * dst(row[1:m], type=1)[n - 1] for row in w]
    cos = 0.5 * dp * dct(p * w[0], type=1)[n]
    for _ in range(_MAX_DOUBLINGS):
        m *= 2
        dp *= 0.5
        p = dp * np.arange(1, m, 2)  # the midpoints of the level before
        w = sample(p)
        new_sins = [0.5 * old + 0.5 * dp * dst(row, type=2)[n - 1]
                    for old, row in zip(sins, w)]
        new_cos = 0.5 * cos + 0.5 * dp * dct(p * w[0], type=2)[n]
        scale = max(max(float(np.max(np.abs(v))) for v in new_sins), 1e-300)
        bad = np.zeros(len(radii), dtype=bool)
        for new, old in zip([*new_sins, new_cos], [*sins, cos]):
            bad |= np.abs(new - old) > (_FIELD_ABS_TOL + _FIELD_REL_TOL * scale)
        sins, cos = new_sins, new_cos
        if not bad.any():
            break
    s0, s1 = sins
    return s0 / radii, s1 / radii, cos / radii - s0 / radii**2, radii[bad]


def packet_fields(params: WavepacketParams, radii):
    """(phi, dt_phi, dr_phi, failed_radii) of the packet on radii r_k = k dr,
    as :func:`default_radii` makes them."""
    a, t = params.damping_a, params.time_t

    def b0(p):
        return p * params.profile(p) * np.exp(-(a + 1j * t) * params.energy(p))

    return _radial_fields(b0, params.energy, radii, _packet_p_max(params))


def _packet_p_max(params: WavepacketParams) -> float:
    """The p beyond which the packet weight stays below ``_FIELD_ABS_TOL``.

    The envelope |p f(p)| e^{a (p - E)} is scanned on [0, 60 / a] at 257
    even and 257 geometric points; the geometric ones, from p = 1e-3,
    resolve a peak at small p (a narrow or weakly damped profile), which
    the even ones, 60 / (256 a) apart, step over.  The weight falls as
    e^{-a p} from that peak.  Raises ValueError when no sample rises
    above ``_FIELD_ABS_TOL`` (p_max <= 0), rather than scan a zero field.
    """
    a = params.damping_a
    p = np.concatenate((np.linspace(0.0, 60.0 / a, 257), np.geomspace(1e-3, 60.0 / a, 257)))
    env = np.abs(p * np.asarray(params.profile(p))) * np.exp(
        a * (p - params.energy(p)))
    peak = max(float(np.max(env)), 1e-30)
    p_max = math.log(peak / _FIELD_ABS_TOL) / a + 2.0 / a
    if not p_max > 0.0:
        raise ValueError(f"the packet's momentum weight stays below _FIELD_ABS_TOL = "
                         f"{_FIELD_ABS_TOL:g} (envelope peak {peak:.3g}), and so do its "
                         "fields: widen --sigma or lower --a")
    return p_max


# ----------------------------------------------------------------------
# density scans and shells
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Shell:
    """Maximal contiguous radius interval where rho < -RHO_DEADBAND."""

    r_min: float
    r_max: float
    rho_min: float


@dataclass
class DensityField:
    radii: np.ndarray
    rho: np.ndarray
    eps: np.ndarray
    negative_shells: list
    failed_radii: np.ndarray


def find_negative_shells(radii, rho) -> list:
    """Contiguous grid runs with rho < -RHO_DEADBAND, as Shell intervals."""
    neg = np.asarray(rho) < -RHO_DEADBAND
    idx = np.flatnonzero(neg)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.r_[idx[0], idx[breaks + 1]]
    ends = np.r_[idx[breaks], idx[-1]]
    shells = []
    for s, e in zip(starts, ends):
        shells.append(Shell(float(radii[s]), float(radii[e]),
                            float(np.min(rho[s:e + 1]))))
    return shells


def scan_density(params: WavepacketParams, radii) -> DensityField:
    """Sample rho and eps on a radial grid and detect negative shells."""
    phi, dt_phi, dr_phi, failed = packet_fields(params, radii)
    sample = FieldSample(phi, dt_phi, dr_phi)
    rho = charge_density(sample)
    eps = energy_density(sample, params.mass)
    shells = find_negative_shells(radii, rho)
    return DensityField(np.asarray(radii, dtype=float), rho, eps, shells,
                        np.asarray(failed))


def default_radii(r_max: float = 6.0, dr: float = 0.01) -> np.ndarray:
    """The (0, r_max] grid of the density demonstration.

    The transforms of its fields span (r_max + _ALIAS_MARGIN) / dr lattice
    points, which size their work and memory; above
    ``MAX_LATTICE_POINTS`` the grid is refused before it is built.
    """
    if not 0.0 < dr <= r_max:
        raise ValueError(f"need 0 < dr <= r_max for a nonempty radius grid, "
                         f"got r_max = {r_max:g} and dr = {dr:g}")
    points = (r_max + _ALIAS_MARGIN) / dr  # Python floats: inf on overflow
    if not points <= MAX_LATTICE_POINTS:
        raise ValueError(f"r_max = {r_max:g} (--rmax) and dr = {dr:g} (--dr) span "
                         f"{points:.3g} lattice points out to r_max + {_ALIAS_MARGIN:g}, "
                         f"above MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}: raise --dr "
                         "or lower --rmax")
    n = int(round(r_max / dr))
    return dr * np.arange(1, n + 1)


def planar_map(fieldmap: DensityField, n: int = 121):
    """(x, z, rho) on a square grid by rotational symmetry.

    The radial profile is evaluated once and mapped by
    rho(x, 0, z) = rho(sqrt(x^2 + z^2)); beyond the scanned radius the
    density is taken as zero.
    """
    r_max = float(fieldmap.radii[-1])
    x = np.linspace(-r_max, r_max, n)
    z = np.linspace(-r_max, r_max, n)
    rr = np.hypot(x[:, None], z[None, :])
    rho = np.interp(rr.ravel(), fieldmap.radii, fieldmap.rho,
                    left=float(fieldmap.rho[0]), right=0.0).reshape(rr.shape)
    return x, z, rho


def shells_json(fieldmap: DensityField) -> str:
    return json.dumps([{"r_min": s.r_min, "r_max": s.r_max, "rho_min": s.rho_min}
                       for s in fieldmap.negative_shells], indent=2)


# ----------------------------------------------------------------------
# integral charges, energies, dispersions
# ----------------------------------------------------------------------

def _radial_integral(radii, density, power, rel_tol, what):
    """int density 4 pi r^power dr by the trapezoid rule on ``radii``.

    Emits :class:`TailWarning` when the outer 10% of the grid still
    contributes more than ``rel_tol`` of the total.
    """
    integrand = 4.0 * np.pi * density * radii**power
    total = float(np.trapezoid(integrand, radii))
    tail = np.trapezoid(np.where(radii >= 0.9 * radii[-1], integrand, 0.0), radii)
    if abs(tail) > rel_tol * max(abs(total), 1e-300):
        warnings.warn(
            f"{what}: outer 10% of the grid contributes "
            f"{abs(tail):.2e} (total {total:.6e}); extend the grid",
            TailWarning, stacklevel=3)
    return total


def total_charge(params: WavepacketParams, radii=None) -> float:
    """Q = int rho 4 pi r^2 dr over the grid (default reaches r = 45).

    Positive for a positive-frequency packet even when rho has negative
    shells.  Emits :class:`TailWarning` when the outer 10% of the grid
    still contributes more than 1e-6 of the total.
    """
    if radii is None:
        radii = default_radii(45.0, 0.02)
    rho = charge_density(FieldSample(*packet_fields(params, radii)[:3]))
    return _radial_integral(radii, rho, 2, 1e-6, "total_charge")


def _momentum_integral(params: WavepacketParams, power: int) -> float:
    """int_0^inf p^2 E_p^power f(p)^2 e^{-2 a E_p} dp by QUADPACK."""
    a = params.damping_a

    def kern(p):
        E = params.energy(p)
        return p * p * E**power * np.asarray(params.profile(p)) ** 2 * np.exp(-2.0 * a * E)

    return _quad(kern).real


def charge_momentum_space(params: WavepacketParams) -> float:
    """Momentum-space oracle: Q = 2 pi^2 int p^2 E_p f^2 e^{-2 a E_p} dp."""
    return 2.0 * np.pi**2 * _momentum_integral(params, 1)


def energy_momentum_space(params: WavepacketParams) -> float:
    """Total energy of the packet by momentum quadrature (= N^2 below)."""
    return 4.0 * np.pi**2 * _momentum_integral(params, 2)


def packet_momentum_profile(params: WavepacketParams) -> Callable:
    """The t = 0 momentum amplitude of the packet in the canonical gauge.

    With phi and pi represented as d^3p integrals over
    f~(p) / (sqrt(2) (2 pi)^{3/2} E_p) and -i f~(p) / (sqrt(2) (2 pi)^{3/2}),
    the packet corresponds to
    f~(p) = sqrt(2) (2 pi)^{3/2} E_p f(p) e^{-a E_p} / (4 pi), so that
    int |f~|^2 d^3p equals the position-space energy integral.
    """
    a = params.damping_a
    coef = math.sqrt(2.0) * (2.0 * math.pi) ** 1.5 / (4.0 * math.pi)

    def ftil(p):
        E = params.energy(p)
        return coef * E * np.asarray(params.profile(p)) * np.exp(-a * E)

    return ftil


def state_fields_from_momentum(f: Callable, mass: float, radii, p_max: float = 60.0):
    """Position-space (phi, pi, dphi/dr) of the state defined by f~ at t = 0.

    f~ is taken as zero beyond ``p_max``.  Raises :class:`QuadratureError`
    when the radial transforms do not settle at some radius.
    """
    kap = 1.0 / math.sqrt(math.pi)

    def energy(p):
        return np.sqrt(mass**2 + p * p)

    def weight(p):
        return kap * p * np.asarray(f(p)) / energy(p)

    phi, pi, dphi, failed = _radial_fields(weight, energy, radii, p_max)
    if len(failed):
        raise QuadratureError(
            f"radial transforms did not settle at {len(failed)} radii "
            f"(first r = {failed[0]:g})")
    return phi.real, pi, dphi.real


def energy_position_space(f: Callable, mass: float) -> float:
    """int eps 4 pi r^2 dr of the f~ state; equals int |f~|^2 d^3p."""
    radii = default_radii(45.0, 0.01)
    eps = energy_density(FieldSample(*state_fields_from_momentum(f, mass, radii)), mass)
    return _radial_integral(radii, eps, 2, 1e-8, "energy_position_space")


def position_dispersion_direct(f: Callable, mass: float, r_max: float = 45.0,
                               p_max: float = 60.0) -> float:
    """Delta r^2 = (1/N^2) int r^2 eps d^3r by position-space quadrature.

    The independent oracle for the momentum-space dispersion formula,
    the ``delta_rq2`` of :func:`relbosons.variational.radial_state` at
    ``spec_spin0(1 / mass)``;
    N^2 is evaluated in momentum space by
    :func:`relbosons.numkernel.radial_rule`.  The radii are spaced 0.01
    out to ``r_max``.  Warns when the outer 10% of the radii holds more
    than ``_DISPERSION_TAIL_TOL`` of the integral.
    """
    radii = default_radii(r_max, 0.01)
    eps = energy_density(FieldSample(*state_fields_from_momentum(f, mass, radii, p_max)), mass)
    num = _radial_integral(radii, eps, 4, _DISPERSION_TAIL_TOL,
                           "position_dispersion_direct")
    p, w = numkernel.radial_rule(p_max)
    return num / float(np.sum(w * np.asarray(f(p)) ** 2))
