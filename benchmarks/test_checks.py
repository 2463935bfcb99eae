"""Fast tests of the benchmark's independent checkers.

Run from the root of the repository:

    python3 -m pytest benchmarks -q
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from run import scipy_import_seconds  # noqa: E402

GOLDEN = 1.0 + math.sqrt(5.0) / 2.0


@pytest.mark.parametrize("spin, d, exact", [
    (0, 0.0, 1.5), (0, math.inf, GOLDEN), (1, 0.0, 2.5), (1, math.inf, GOLDEN)])
def test_reference_gamma_hits_the_exact_endpoints(spin, d, exact):
    assert abs(checks.reference_gamma(spin, d) - exact) < 1e-7


def test_reference_gamma_is_monotone_inside_the_intervals():
    spin0 = [checks.reference_gamma(0, d) for d in (0.0, 1.0, 32.0, math.inf)]
    spin1 = [checks.reference_gamma(1, d) for d in (0.0, 1.0, 32.0, math.inf)]
    assert checks.check_gamma_curve(0, list(zip((0.0, 1.0, 32.0, math.inf), spin0)),
                                    dict(zip((0.0, 1.0, 32.0, math.inf), spin0))) == []
    assert checks.check_gamma_curve(1, list(zip((0.0, 1.0, 32.0, math.inf), spin1)),
                                    dict(zip((0.0, 1.0, 32.0, math.inf), spin1))) == []


def _massless_unit_packet(r, a, t):
    """Closed form of rho and eps for m = 0, f(p) = 1: phi = 2c/(c^2 + r^2)^2."""
    c = complex(a, t)
    den = c * c + r * r
    phi = 2.0 * c / den**2
    dt_phi = -2j * (3.0 * c * c - r * r) / den**3
    dr_phi = -8.0 * c * r / den**3
    rho = -(phi.conjugate() * dt_phi).imag
    return rho, abs(dt_phi) ** 2 + abs(dr_phi) ** 2


@pytest.mark.parametrize("r", [0.3, 0.98, 2.5, 7.0])
def test_reference_density_matches_a_closed_form(r):
    rho, eps = checks.reference_density(r, 0.0, 0.5, 0.05, lambda p: 1.0)
    rho_exact, eps_exact = _massless_unit_packet(r, 0.5, 0.05)
    rho_scale, eps_scale = _massless_unit_packet(1e-6, 0.5, 0.05)
    assert abs(rho - rho_exact) < 1e-9 * abs(rho_scale)
    assert abs(eps - eps_exact) < 1e-9 * eps_scale


def test_reference_density_finds_the_negative_shell():
    rho, eps = checks.reference_density(0.98, 1.0, 0.5, 0.05, checks.cosine_profile(1.0))
    assert -3.6e-3 < rho < -3.4e-3
    assert eps > 0.0


def test_gamma_check_rejects_a_value_off_by_more_than_its_tolerance():
    ds = [0.0, 1.0, math.inf]
    good = {0.0: 1.5, 1.0: 1.8010515, math.inf: GOLDEN}
    points = [(d, good[d]) for d in ds]
    assert checks.check_gamma_curve(0, points, good) == []
    nudged = [(0.0, 1.5), (1.0, good[1.0] + 0.5 * checks.GAMMA_TOL), (math.inf, GOLDEN)]
    assert checks.check_gamma_curve(0, nudged, good) == []
    off = [(0.0, 1.5), (1.0, good[1.0] + 2.0 * checks.GAMMA_TOL), (math.inf, GOLDEN)]
    assert checks.check_gamma_curve(0, off, good) != []
    # the endpoints are checked against the exact values, not only the reference
    off_end = [(0.0, 1.5 + 2.0 * checks.GAMMA_TOL), (1.0, good[1.0]), (math.inf, GOLDEN)]
    shifted = {**good, 0.0: 1.5 + 2.0 * checks.GAMMA_TOL}
    assert checks.check_gamma_curve(0, off_end, shifted) != []


def test_gamma_check_rejects_a_non_monotone_curve():
    ref = {8.0: 2.10, 16.0: 2.11, 32.0: 2.105}
    problems = checks.check_gamma_curve(0, sorted(ref.items()), ref)
    assert any("monotone" in p for p in problems)


def test_gamma_parsers_read_both_formats():
    csv = "d,gamma,residual,method\n0,1.5,1e-9,shooting\ninf,2.11803399,2e-9,shooting\n"
    assert checks.parse_gamma_csv(csv) == [(0.0, 1.5, "shooting"),
                                           (math.inf, 2.11803399, "shooting")]
    payload = {"points": [{"d": "inf", "gamma": None, "method": "shooting", "ok": False}]}
    (d, gamma, method), = checks.parse_gamma_json(payload)
    assert math.isinf(d) and math.isnan(gamma) and method == "failed"


def test_density_check_rejects_a_value_off_by_more_than_its_tolerance():
    radii = np.array([0.5, 1.0, 1.5])
    rho = np.array([1.0, -0.01, 0.2])
    eps = np.array([3.0, 1.0, 0.5])
    refs = [(1.0, 3.0), (-0.01, 1.0), (0.2, 0.5)]
    assert checks.check_density_profile(radii, rho, eps, [0, 1, 2], refs) == []
    bad_rho = rho.copy()
    bad_rho[1] += 2.0 * checks.DENSITY_TOL
    assert checks.check_density_profile(radii, bad_rho, eps, [0, 1, 2], refs) != []
    bad_eps = eps.copy()
    bad_eps[2] -= 2.0 * checks.DENSITY_TOL * 3.0
    assert checks.check_density_profile(radii, rho, bad_eps, [0, 1, 2], refs) != []
    negative = eps.copy()
    negative[2] = -1e-12
    assert checks.check_density_profile(radii, rho, negative, [0, 1], refs[:2]) != []


def test_shell_check_needs_a_shell_around_the_radius():
    shells = [{"r_min": 0.97, "r_max": 0.99, "rho_min": -3.5e-3}]
    assert checks.check_shell_contains(shells, 0.98) == []
    assert checks.check_shell_contains(shells, 1.2) != []
    assert checks.check_shell_contains([], 0.98) != []


def test_transverse_check_rejects_each_perturbation():
    good = {"gamma": 2.50025, "delta_q2": 2.50025, "delta_rq2": 2.50025,
            "separation_oracle": 2.5000000001}
    assert checks.check_transverse(good) == []
    off = 2.5 + 1.5 * checks.TRANSVERSE_TOL
    assert checks.check_transverse(dict(good, gamma=off, delta_q2=off, delta_rq2=off)) != []
    g = good["gamma"]
    dq2, drq2 = g * (1 + 2e-6), g / (1 + 2e-6)
    assert checks.check_transverse(dict(good, delta_q2=dq2, delta_rq2=drq2)) != []
    assert checks.check_transverse(
        dict(good, separation_oracle=2.5 + 2.0 * checks.ORACLE_TOL)) != []


REPORT = """\
[PASS] scalar gamma(d=0) = 3/2 (shooting)               gamma = 1.500000000 (target 1.500000000)
[PASS] scalar gamma(d=inf) = 1 + sqrt(5)/2 (shooting)   gamma = 2.118033989 (target 2.118033989)
[PASS] longitudinal gamma(d=0) = 5/2 (shooting)         gamma = 2.500000000 (target 2.500000000)
[PASS] longitudinal gamma(d=inf) = 1 + sqrt(5)/2 (fd)   gamma = 2.118034001 (target 2.118033989)
[PASS] energy density nonnegative at every sample       min eps = 1.2e-30
5/5 checks passed"""


def test_verify_check_rejects_a_failed_line_or_an_endpoint_off():
    assert checks.check_verify_report(0, REPORT) == []
    assert checks.check_verify_report(1, REPORT) != []
    assert checks.check_verify_report(
        0, REPORT.replace("[PASS] energy", "[FAIL] energy")) != []
    assert checks.check_verify_report(
        0, REPORT.replace("gamma = 1.500000000", "gamma = 1.500002000")) != []
    assert checks.check_verify_report(
        0, REPORT.replace("gamma = 2.118034001", "gamma = 2.118050000")) != []


def test_scipy_import_time_counts_only_the_outermost_scipy_imports():
    log = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     scipy._lib
import time:       200 |        300 |   scipy
import time:        50 |        400 |   scipy.linalg
import time:        10 |        710 | relbosons.numkernel
import time:        20 |         20 |   scipy.integrate
import time:         5 |         25 | relbosons.kg_fields"""
    assert scipy_import_seconds(log) == pytest.approx(720e-6)
